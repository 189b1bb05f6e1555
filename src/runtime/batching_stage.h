/**
 * @file
 * Cross-sensor micro-batching: the coalescing point between
 * preprocessing and inference.
 *
 * Frames from many sensors converge on one inference device; serving
 * them one at a time leaves the device's per-pass fixed costs —
 * systolic fill/drain, per-layer weight fetch, op dispatch — paid
 * once per frame. The BatchingStage coalesces up to
 * BatchPolicy::maxBatch down-sampled frames into one batched
 * execution (ExecutionBackend::inferBatch) that shares a single
 * weight pass and one workspace arena reservation, while every
 * frame's functional output and recorded per-frame trace stay
 * bit-identical to a solo run.
 *
 * Two clocks, two mechanisms (docs/RUNTIME.md §batching):
 *  - Wall clock: the assembler below groups frames by FIXED
 *    admission-index ranges [g*B, (g+1)*B), so batch composition is
 *    deterministic no matter how threads interleave upstream.
 *  - Virtual time: the timeline's batched dispatch (runtime/
 *    virtual_timeline.h) forms batches from queue backlog, bounded
 *    by BatchPolicy::timeoutVirtualSec, and charges ONE device
 *    occupancy interval per batch (ExecutionBackend::
 *    batchServiceSec). All reported batch statistics come from the
 *    virtual schedule — per-frame modeled numbers are composition-
 *    independent, so the two groupings never disagree on any
 *    reported number.
 */

#ifndef HGPCN_RUNTIME_BATCHING_STAGE_H
#define HGPCN_RUNTIME_BATCHING_STAGE_H

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "runtime/stage.h"

namespace hgpcn
{

/** Micro-batching knobs, plumbed from StreamRunner::Config. */
struct BatchPolicy
{
    /** Frames coalesced per inference pass (1 = batching off: the
     * pipeline and timeline dispatch every frame alone). */
    std::size_t maxBatch = 1;

    /**
     * Virtual seconds the oldest queued frame may wait for a batch
     * to fill before a partial batch is dispatched. 0 keeps the
     * timeline work-conserving: whatever is queued when a device
     * unit frees dispatches immediately, so batches form only
     * under backlog and latency-sensitive traffic never waits.
     * Consumed by the virtual timeline only — the wall-clock
     * assembler groups by admission index for determinism.
     */
    double timeoutVirtualSec = 0.0;
};

/**
 * Deterministic wall-clock batch assembler: groups FrameTasks by
 * fixed admission-index ranges [g*maxBatch, (g+1)*maxBatch).
 *
 * The single batching worker feeds tasks in whatever order the
 * upstream pool emitted them; groups are released exactly when
 * complete, in group order, so the batched execution sequence is a
 * pure function of the admitted stream. Owned and driven by
 * StagePipeline's final-stage worker.
 */
class BatchingStage
{
  public:
    using Group = std::vector<std::unique_ptr<FrameTask>>;

    explicit BatchingStage(std::size_t max_batch);

    /** Feed one task; @return every group this completes (possibly
     * several, when the task plugs a gap), in group order. */
    std::vector<Group> add(std::unique_ptr<FrameTask> task);

    /** End of stream: release the remaining tasks as partial
     * groups in index order. */
    std::vector<Group> flush();

    /** @return tasks currently held back. */
    std::size_t pendingCount() const { return pending.size(); }

  private:
    std::size_t max_batch;
    std::size_t next_base = 0; //!< first index of the open group
    std::map<std::size_t, std::unique_ptr<FrameTask>> pending;
};

} // namespace hgpcn

#endif // HGPCN_RUNTIME_BATCHING_STAGE_H
