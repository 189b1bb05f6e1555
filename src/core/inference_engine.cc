#include "core/inference_engine.h"

#include <utility>

namespace hgpcn
{

InferenceResult
InferenceEngine::run(const PointNet2 &model, const PointCloud &input,
                     const Octree *input_octree,
                     FrameWorkspace *workspace,
                     int intra_op_threads) const
{
    RunOptions opts;
    opts.centroid = cfg.centroid;
    opts.ds = cfg.ds;
    opts.seed = cfg.seed;
    opts.inputOctree = input_octree;
    opts.workspace = workspace;
    opts.intraOpThreads = intra_op_threads;
    return timeOutput(model.run(input, opts));
}

InferenceResult
InferenceEngine::timeOutput(RunOutput output) const
{
    InferenceResult result = time(output.trace);
    result.output = std::move(output);
    return result;
}

InferenceResult
InferenceEngine::time(const ExecutionTrace &trace) const
{
    InferenceResult result;

    // DSU: time every gather of the network on the pipeline model.
    // Brute-force gathers (if configured) produce no VEG traces; for
    // those the DSU degenerates to a full-range sort, which we
    // approximate by one trace whose last ring is the whole input.
    for (const GatherOp &op : trace.gathers) {
        DsuPipelineResult part;
        const DsuPipelineSim dsu(cfg.sim, /*octree_levels=*/
                                 op.traces.empty() ? 0 : 10);
        if (!op.traces.empty()) {
            part = dsu.run(op.traces, op.k);
        } else {
            std::vector<VegTrace> synth(
                op.centroids,
                VegTrace{0, 0,
                         static_cast<std::uint32_t>(op.inputPoints),
                         1});
            part = dsu.run(synth, op.k);
        }
        for (std::size_t s = 0; s < kStageCount; ++s)
            result.dsu.stageCycles[s] += part.stageCycles[s];
        result.dsu.pipelinedCycles += part.pipelinedCycles;
    }
    result.dsu.pipelinedSec =
        static_cast<double>(result.dsu.pipelinedCycles) /
        cfg.sim.fpga.acceleratorClockHz;

    // FCU: all GEMMs on the systolic model.
    const FcuSim fcu(cfg.sim);
    result.fcu = fcu.run(trace);
    return result;
}

} // namespace hgpcn
