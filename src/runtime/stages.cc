#include "runtime/stages.h"

#include <utility>
#include <vector>

#include "common/logging.h"

namespace hgpcn
{
namespace
{

/**
 * Charge a frame's resolved fault directive against its solo
 * modeled inference seconds: every attempt re-occupies the device
 * for a full (slowed-down) service and the deterministic backoff is
 * device-idle-but-frame-blocked time, both charged to the frame's
 * inference span. Records the surcharge on the task (batched
 * execution folds it into the shared occupancy) and marks the
 * terminal failure on the inference status.
 */
double
chargeFault(FrameTask &task, double solo_sec)
{
    if (task.fault.clean())
        return solo_sec;
    const double charged = solo_sec * task.fault.slowdownMult *
                               static_cast<double>(
                                   task.fault.attempts) +
                           task.fault.backoffSec;
    task.faultExtraSec = charged - solo_sec;
    if (task.fault.failed)
        task.result.inference.status =
            InferenceStatus::TransientError;
    return charged;
}

} // namespace

double
OctreeBuildStage::process(FrameTask &task) const
{
    task.result.preprocess = pre.buildStage(task.frame->cloud, carry);
    return task.result.preprocess.octreeBuildSec;
}

double
DownSampleStage::process(FrameTask &task) const
{
    // Graceful degradation: a degraded frame keeps a reduced sample
    // budget — less work everywhere downstream, same code path.
    std::size_t k_eff = k;
    if (task.fault.samplePoints > 0 && task.fault.samplePoints < k)
        k_eff = task.fault.samplePoints;
    PreprocessResult &pr = task.result.preprocess;
    pre.sampleStage(pr, k_eff);
    // Nothing downstream reads the frame's octree or cached indices:
    // release them now, so a carry's pooled bundle returns once the
    // carry moves on and the pool stays bounded by the frames in
    // flight, not by the frames in the run.
    pr.tree.reset();
    pr.rawKnn.reset();
    pr.rawOcc.reset();
    pr.rawOccLevel = -1;
    // preprocess.stats is complete here (build + sampler counters);
    // merge the frame into the stream aggregate from this worker.
    if (workload != nullptr)
        workload->merge(pr.stats);
    return pr.dsu.totalSec();
}

double
InferenceStage::process(FrameTask &task) const
{
    // Same input conditioning as HgPcnSystem::processFrame: the
    // sampled cloud is normalized for the radius-based layers, so
    // the pre-processing octree (raw coordinates) is not reusable
    // and backends build their own structures, still costed in the
    // trace.
    PointCloud input = task.result.preprocess.sampled;
    input.normalizeToUnitCube();
    if (workspaces != nullptr) {
        // Lease a warm scratch arena for this frame; the pool keeps
        // it across frames and runs (zero-alloc steady state).
        WorkspacePool::Lease ws = workspaces->acquire();
        ws->intraOpThreads = intraOp;
        task.result.inference = be.infer(input, ws.get());
    } else {
        task.result.inference = be.infer(input);
    }
    return chargeFault(task, task.result.inference.totalSec());
}

void
InferenceStage::processBatch(std::span<FrameTask *const> tasks,
                             std::span<double> costs) const
{
    // Same conditioning as process(), for every member.
    std::vector<PointCloud> inputs;
    inputs.reserve(tasks.size());
    for (FrameTask *task : tasks) {
        inputs.push_back(task->result.preprocess.sampled);
        inputs.back().normalizeToUnitCube();
    }
    std::vector<const PointCloud *> ptrs;
    ptrs.reserve(inputs.size());
    for (const PointCloud &in : inputs)
        ptrs.push_back(&in);

    // ONE workspace lease serves the whole batch: the stacked
    // tensors reserve batch-sized arena slots once, then reuse them
    // every dispatch (zero-alloc steady state at batch granularity).
    BatchInference batch;
    if (workspaces != nullptr) {
        WorkspacePool::Lease ws = workspaces->acquire();
        ws->intraOpThreads = intraOp;
        batch = be.inferBatch(ptrs, ws.get());
    } else {
        batch = be.inferBatch(ptrs);
    }
    HGPCN_ASSERT(batch.frames.size() == tasks.size(),
                 "backend returned ", batch.frames.size(),
                 " inferences for ", tasks.size(), " frames");
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        tasks[i]->result.inference = std::move(batch.frames[i]);
        costs[i] = chargeFault(*tasks[i],
                               tasks[i]->result.inference.totalSec());
    }
}

} // namespace hgpcn
