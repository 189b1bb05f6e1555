/**
 * @file
 * Deterministic virtual-time scheduler for the stage pipeline.
 *
 * The runtime keeps two clocks (docs/RUNTIME.md): wall-clock threads
 * carry the functional computation, while *modeled* per-stage costs
 * — the cycle models' output — decide the performance numbers. This
 * module is the modeled half: a discrete-event simulation that
 * schedules every frame's stage costs over a small machine
 * description (stages, the device each occupies, units per device,
 * queue capacity, overload policy, frames-in-flight credit) and
 * yields per-frame start/finish times plus per-stage occupancy and
 * utilization. Being pure arithmetic over recorded costs, it is
 * exactly reproducible regardless of thread interleaving.
 *
 * Scheduling rules:
 *  - admission: frame i is offered at arrival[i] (its sensor stamp,
 *    or 0 in batch mode), in order. A full source queue or an
 *    exhausted in-flight credit applies the overload policy: Block
 *    delays the admission (and everything behind it), DropNewest
 *    discards the newcomer, DropOldest evicts the longest-queued
 *    un-started frame.
 *  - dispatch: each stage pulls FIFO from its input queue when a
 *    unit of its device is free; stages sharing a device are served
 *    downstream-first, so a frame in flight drains before new work
 *    is accepted (this is what serializes OIS down-sampling and
 *    inference on the one FPGA, matching the legacy two-stage
 *    pipeline estimate).
 *  - hand-off: a finished frame moves to the next stage's queue; if
 *    that queue is full the unit stays held (back-pressure), which
 *    is how stalls propagate upstream.
 */

#ifndef HGPCN_RUNTIME_VIRTUAL_TIMELINE_H
#define HGPCN_RUNTIME_VIRTUAL_TIMELINE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/overload_policy.h"

namespace hgpcn
{

/** One station of the simulated machine. */
struct TimelineStageSpec
{
    std::string name;     //!< stage label for reports
    std::string resource; //!< device occupied while processing
};

/** Micro-batching at the LAST stage of the machine. */
struct TimelineBatchSpec
{
    /** Frames coalesced per dispatch (1 = batching off; the
     * simulation then runs the classic per-frame path). */
    std::size_t maxBatch = 1;

    /**
     * Max virtual seconds the oldest queued frame waits for the
     * batch to fill before a partial batch dispatches. 0 is greedy
     * and work-conserving: whatever is queued when a unit frees
     * goes immediately, so batches only form under backlog.
     */
    double timeoutSec = 0.0;
};

/**
 * Service seconds for one coalesced dispatch (frame indices in
 * dispatch order). Must equal the frame's solo cost for a batch of
 * one; a null callback falls back to the sum of solo costs (no
 * sharing). See ExecutionBackend::batchServiceSec.
 */
using TimelineBatchCost =
    std::function<double(const std::vector<std::size_t> &)>;

/** Machine description for one simulation. */
struct TimelineConfig
{
    /** Stations in dataflow order. */
    std::vector<TimelineStageSpec> stages;

    /** Micro-batching of the last stage (default: off). */
    TimelineBatchSpec batch;

    /** Units per device; devices not listed default to 1. */
    std::map<std::string, std::size_t> resourceUnits;

    /** Capacity of every inter-stage queue (>= 1). */
    std::size_t queueCapacity = 8;

    /** Behavior when the source queue / in-flight credit is full. */
    OverloadPolicy policy = OverloadPolicy::Block;

    /** Max frames admitted-but-unfinished; 0 = bounded only by the
     * queues and units. */
    std::size_t maxInFlight = 0;
};

/** Scheduled life of one frame. */
struct TimelineFrame
{
    bool dropped = false;   //!< discarded by the overload policy
    double arrivalSec = 0;  //!< offered to the source (sensor stamp)
    double admitSec = 0;    //!< entered the source queue
    std::vector<double> startSec;  //!< per-stage begin (undef if dropped)
    std::vector<double> finishSec; //!< per-stage end
    double doneSec = 0;     //!< completion of the last stage
    double latencySec = 0;  //!< doneSec - arrivalSec

    /**
     * Per-stage queue-entry time (enqueueSec[0] == admitSec), so a
     * frame's life decomposes exactly into queue wait
     * (startSec[s] - enqueueSec[s]), execution
     * (finishSec[s] - startSec[s]) and back-pressure hold
     * (enqueueSec[s+1] - finishSec[s]). Tracing-side bookkeeping;
     * never feeds back into scheduling.
     */
    std::vector<double> enqueueSec;

    /**
     * Of the last-stage queue wait, the seconds spent with a device
     * unit FREE but the dispatch gate held for batch fill (bounded
     * by TimelineBatchSpec::timeoutSec). 0 without batching.
     */
    double batchWaitSec = 0;

    /** Index into TimelineResult::batches (-1 without batching). */
    std::int64_t batchId = -1;

    /** When the overload policy discarded this frame (dropped only). */
    double droppedAtSec = 0;

    /** Frames sharing this frame's last-stage dispatch (1 = served
     * solo; > 1 only with batching enabled). */
    std::size_t batchSize = 1;
};

/** Per-stage load numbers over the simulated span. */
struct TimelineStageStats
{
    std::string name;
    std::string resource;
    std::size_t units = 1;      //!< units of the stage's device
    double busySec = 0;         //!< summed stage costs executed
    double utilization = 0;     //!< busySec / (units * makespan)
    double meanQueueDepth = 0;  //!< time-weighted input-queue depth
    std::size_t peakQueueDepth = 0;
};

/** One coalesced last-stage dispatch (batching only). */
struct TimelineBatch
{
    double startSec = 0;
    double finishSec = 0;
    std::vector<std::size_t> members; //!< frame indices, FIFO order
};

/**
 * Batch-occupancy attribution of the last stage: the batch fields of
 * TimelineResult and RuntimeReport, declared once here. Zeros when
 * batching is off.
 */
struct BatchStats
{
    std::size_t batchCount = 0;    //!< dispatches (incl. solo)
    std::size_t batchedFrames = 0; //!< frames in batches of >= 2
    std::size_t soloFrames = 0;    //!< frames dispatched alone
    double meanBatchSize = 0;      //!< frames / batchCount
    std::size_t maxBatchSize = 0;  //!< largest dispatch observed

    /** Fold @p other in: the counts sum, the peak takes the larger,
     * and the mean is re-derived from the summed counts. */
    void mergeBatches(const BatchStats &other);
};

/** Result of one simulation; its BatchStats are filled only when
 * cfg.batch.maxBatch > 1. */
struct TimelineResult : BatchStats
{
    std::vector<TimelineFrame> frames; //!< parallel to the input
    std::vector<TimelineBatch> batches; //!< dispatch log (batching only)
    std::size_t processed = 0;
    std::size_t dropped = 0;
    double makespanSec = 0; //!< first arrival -> last completion
    std::vector<TimelineStageStats> stages;
};

/**
 * Schedule @p costs over the machine in @p cfg.
 *
 * @param cfg Machine description.
 * @param arrivals Arrival time per frame, non-decreasing.
 * @param costs costs[i][s] = modeled seconds of frame i at stage s.
 * @param batch_cost Shared service seconds per coalesced last-stage
 *        dispatch; used only when cfg.batch.maxBatch > 1 and the
 *        dispatch holds >= 2 frames (a batch of one is charged its
 *        solo cost exactly). Null = sum of solo costs.
 *
 * With batching, a dispatch takes min(queued, maxBatch) frames
 * FIFO, holds ONE unit of the stage's device, and charges its
 * occupancy (busySec) once with the batched cost; every member
 * starts at dispatch and completes when the batch does — honest
 * all-complete-at-end stamps, no fabricated per-frame slicing.
 */
TimelineResult
simulateTimeline(const TimelineConfig &cfg,
                 const std::vector<double> &arrivals,
                 const std::vector<std::vector<double>> &costs,
                 const TimelineBatchCost &batch_cost = {});

} // namespace hgpcn

#endif // HGPCN_RUNTIME_VIRTUAL_TIMELINE_H
