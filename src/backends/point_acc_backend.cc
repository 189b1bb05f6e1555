#include "backends/point_acc_backend.h"

#include "sim/bitonic_sorter.h"
#include "sim/fcu_dla.h"

namespace hgpcn
{

BackendInference
PointAccBackend::time(const ExecutionTrace &trace) const
{
    BackendInference out;

    // Mapping Unit: per centroid, distances to the entire input
    // cloud (4 parallel distance units) followed by a full-range
    // bitonic top-K.
    const BitonicSorterSim sorter(cfg.fpga.bitonicLanes);
    std::uint64_t cycles = 0;
    for (const GatherOp &op : trace.gathers) {
        const std::uint64_t per_centroid_dist = (op.inputPoints + 3) / 4;
        const std::uint64_t per_centroid_sort =
            sorter.topKCycles(op.inputPoints, op.k ? op.k : 1);
        cycles +=
            op.centroids * (per_centroid_dist + per_centroid_sort);
    }
    out.dsSec =
        static_cast<double>(cycles) / cfg.fpga.acceleratorClockHz;

    // Feature computation on the shared 16x16 systolic model.
    const FcuSim fcu(cfg);
    out.fcSec = fcu.run(trace).totalSec();
    out.dsFcOverlap = true; // DS/FC overlapped
    return out;
}

} // namespace hgpcn
