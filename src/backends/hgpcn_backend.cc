#include "backends/hgpcn_backend.h"

namespace hgpcn
{

BackendInference
HgpcnBackend::time(const ExecutionTrace &trace) const
{
    const InferenceResult r = eng.time(trace);
    BackendInference out;
    out.dsSec = r.dsu.pipelinedSec;
    out.fcSec = r.fcu.totalSec();
    out.dsFcOverlap = true; // DSU/FCU overlap through the BF buffer
    return out;
}

double
HgpcnBackend::batchServiceSec(
    std::span<const BackendInference *const> frames) const
{
    double ds = 0.0;
    std::vector<const ExecutionTrace *> traces;
    traces.reserve(frames.size());
    for (const BackendInference *f : frames) {
        ds += f->dsSec;
        traces.push_back(&f->output.trace);
    }
    const FcuSim fcu(eng.config().sim);
    const double fc = fcu.runStacked(traces).totalSec();
    return ds > fc ? ds : fc;
}

} // namespace hgpcn
