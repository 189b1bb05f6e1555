#include "backends/mesorasi_backend.h"

#include <map>

#include "sim/fcu_dla.h"

namespace hgpcn
{

BackendInference
MesorasiBackend::time(const ExecutionTrace &trace) const
{
    BackendInference out;

    // Data structuring runs on the paired GPU.
    out.dsSec = gpu.dsSec(trace);

    // Delayed aggregation: SA-layer MLPs execute once per unique
    // input point instead of once per grouped row. Scale each SA
    // GEMM's M from centroids*k down to the layer's input size; the
    // aggregation itself (a max reduction) is cheap and absorbed in
    // the systolic model's drain cycles.
    std::map<std::string, double> scale;
    for (const GatherOp &op : trace.gathers) {
        const double grouped = static_cast<double>(op.centroids) *
                               static_cast<double>(op.k);
        if (grouped > 0.0 && op.layer.rfind("sa", 0) == 0) {
            scale[op.layer] =
                static_cast<double>(op.inputPoints) / grouped;
        }
    }

    ExecutionTrace delayed;
    for (GemmOp op : trace.gemms) {
        // GEMM names are "<layer>.fcN"; match on the layer prefix.
        const auto dot = op.layer.find('.');
        const std::string layer = op.layer.substr(0, dot);
        const auto it = scale.find(layer);
        if (it != scale.end()) {
            const double scaled =
                static_cast<double>(op.m) * it->second;
            op.m = scaled < 1.0 ? 1
                                : static_cast<std::uint64_t>(scaled);
        }
        delayed.gemms.push_back(std::move(op));
    }

    const FcuSim fcu(cfg);
    out.fcSec = fcu.run(delayed).totalSec();
    out.dsFcOverlap = true; // DS/FC overlapped (Section VII-D)
    return out;
}

} // namespace hgpcn
