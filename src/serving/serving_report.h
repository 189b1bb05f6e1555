/**
 * @file
 * Aggregate reporting for the sharded serving layer.
 *
 * A ServingReport has four views:
 *
 *  - the aggregate view: global sustained FPS over the union
 *    makespan, merged latency percentiles, total drops/abandons;
 *  - the per-shard view: each shard's RuntimeReport;
 *  - the per-sensor view: offered/processed counts, the sensor's
 *    own generation rate and a Section VII-E verdict computed with
 *    the tri-state semantics (common/real_time.h) — NotApplicable
 *    for unpaced serves, never a vacuous YES;
 *  - the per-backend view (heterogeneous fleets): each distinct
 *    execution backend's dispatched/completed counts, sustained
 *    FPS, latency percentiles and its own Section VII-E verdict
 *    against the rate of the traffic routed to it.
 *
 * Two pure functions build it, so the arithmetic is unit-testable
 * without running a fleet. mergeShardOutcomes merges one fleet
 * serve: every shard produced an ordinary RuntimeResult on its own
 * virtual clock (anchored at its first admitted frame). The elastic
 * layer (serving/autoscaler.h) serves a stream as a sequence of
 * control epochs, each an ordinary fleet serve at that epoch's
 * shard count with admission control shedding frames before
 * dispatch; mergeEpochResults merges those epochs across fleet
 * reconfigurations.
 *
 * What the two merges share, written once in serving_report.cc:
 * the aggregate view, the per-sensor slices, the grouping of shards
 * into backends by name and each backend's done/missed counts,
 * sustained rate, latency distribution and verdict. Every report
 * and slice derives its latency fields from LatencySummary
 * (common/stats.h), and both reports their frame tallies from
 * FrameCounts (runtime/stream_runner.h), each merged with one call.
 *
 * Where they differ:
 *
 *  - Completion times. mergeShardOutcomes re-anchors each shard
 *    clock onto the global one. mergeEpochResults receives global
 *    times already, then clamps completions to in-order delivery
 *    per sensor: a frame handed off across an epoch boundary cannot
 *    be delivered before its predecessor finishes, and the wait is
 *    charged to its latency. The clamp can move latencies under
 *    LeastLoaded placement even within one epoch, so a fleet serve
 *    is not a one-epoch elastic serve.
 *  - Shard views. A fleet serve keeps each shard's report as it
 *    is; an elastic serve aggregates each shard index across every
 *    epoch it was active in (counts summed, busy time re-normalized
 *    over the summed epoch makespans, latencies from its clamped
 *    completions).
 *  - Backend offered rate. A fleet serve takes the (n-1)/span rate
 *    of the stamps dispatched to the backend and starts its
 *    sustained window at the first of them. An elastic serve knows
 *    dispatch identities only per epoch, so it divides dispatched
 *    frames by the backend's active window and starts the sustained
 *    window at the first epoch the backend was active in.
 *  - Conservation. An elastic serve also counts shed frames:
 *    framesIn == processed + dropped + abandoned + shed + failed.
 */

#ifndef HGPCN_SERVING_SERVING_REPORT_H
#define HGPCN_SERVING_SERVING_REPORT_H

#include <string>
#include <vector>

#include "common/real_time.h"
#include "datasets/sensor_stream.h"
#include "runtime/stream_runner.h"
#include "serving/placement.h"

namespace hgpcn
{

/** One sensor's slice of a serve; the latency distribution is of
 * its completions. */
struct SensorServingReport : LatencySummary
{
    std::size_t sensor = 0;
    /** Distinct shards that completed frames of this sensor (1
     * under HashBySensor affinity). */
    std::size_t shardSpread = 0;
    std::size_t framesIn = 0;    //!< offered by this sensor
    std::size_t framesDone = 0;  //!< completed the pipeline
    /** Offered - completed: dropped by overload, abandoned by a
     * shard stop (the split is only known shard-wide) or shed by
     * admission control (counted separately below). */
    std::size_t framesMissed = 0;
    /** Of framesMissed: refused by admission control before
     * dispatch (elastic serving only; 0 for a plain fleet serve). */
    std::size_t framesShed = 0;
    /** Of framesMissed: terminally failed (retries/deadline
     * exhausted) after dispatch. */
    std::size_t framesFailed = 0;
    /** Of framesDone: completed only after >= 1 retry. */
    std::size_t framesRetried = 0;
    /** Of framesDone: served at reduced fidelity. */
    std::size_t framesDegraded = 0;

    double generationFps = 0; //!< this sensor's capture rate
    /** Completed / (first offer -> last completion), global clock. */
    double sustainedFps = 0;

    /** Section VII-E, per sensor; NotApplicable when unpaced. */
    RealTimeVerdict realTime = RealTimeVerdict::NotApplicable;
};

/** One execution backend's slice of a serve (union of the shards
 * that run it); the latency distribution is of its completions. */
struct BackendServingReport : LatencySummary
{
    std::string backend;        //!< registry name ("hgpcn", ...)
    std::size_t shards = 0;     //!< fleet replicas of this backend
    std::size_t framesIn = 0;   //!< dispatched to those shards
    std::size_t framesDone = 0; //!< completed the pipeline
    std::size_t framesMissed = 0; //!< dropped, abandoned or failed
    std::size_t framesFailed = 0;   //!< of missed: fault-terminal
    std::size_t framesRetried = 0;  //!< of done: needed retries
    std::size_t framesDegraded = 0; //!< of done: reduced fidelity

    /** Generation rate of the traffic routed to this backend
     * ((n-1)/span of its dispatched stamps; 0 when underivable). */
    double offeredFps = 0;
    /** Completed / (first dispatch -> last completion), global
     * clock. */
    double sustainedFps = 0;

    /** Section VII-E against the routed traffic's rate;
     * NotApplicable when unpaced. */
    RealTimeVerdict realTime = RealTimeVerdict::NotApplicable;
};

/**
 * Aggregate + per-shard + per-sensor + per-backend serving report.
 * The frame tallies sum the shards' (framesIn is the whole stream);
 * the latency distribution is merged across all shards.
 */
struct ServingReport : FrameCounts, LatencySummary
{
    PlacementPolicy placement = PlacementPolicy::HashBySensor;
    std::size_t shardCount = 0;
    std::size_t sensorCount = 0;

    /** Refused by admission control before dispatch (elastic
     * serving; conservation: framesIn == framesProcessed +
     * framesDropped + framesAbandoned + framesShed +
     * framesFailed). */
    std::size_t framesShed = 0;

    bool paced = true; //!< every shard ran sensor-paced

    /** First global offer -> last global completion. */
    double makespanSec = 0;
    /** Global sustained throughput: processed / makespan. */
    double sustainedFps = 0;

    /** Per-shard reports, indexed by shard, on shard-local clocks. */
    std::vector<RuntimeReport> shardReports;
    /** Backend name of each shard, parallel to shardReports (empty
     * strings when the outcomes carried no attribution). */
    std::vector<std::string> shardBackends;
    /** Per-sensor slices, indexed by sensor. */
    std::vector<SensorServingReport> sensors;
    /** Per-backend slices, one per distinct named backend, in
     * first-shard order; empty when no outcome was attributed. */
    std::vector<BackendServingReport> backends;

    /** Render a multi-line human-readable summary. */
    std::string toString() const;
};

/** One completed frame of a serve, on the global clock. */
struct ServedFrame
{
    std::size_t globalIndex = 0; //!< position in the tagged stream
    std::size_t sensor = 0;
    std::size_t sensorIndex = 0; //!< position within its sensor
    std::size_t shard = 0;
    double latencySec = 0;
    double doneSec = 0; //!< completion, global virtual clock
    E2eResult result;
};

/** Everything one serve() produced. */
struct ServingResult
{
    /** Completed frames in global completion order (doneSec, ties
     * by stream position); dropped/abandoned frames absent. */
    std::vector<ServedFrame> frames;
    ServingReport report;
    /** Fleet-wide metrics: every shard's (or epoch's) registry
     * snapshot merged — counters summed, additive gauges summed,
     * histograms folded bucket-wise (obs/metrics.h). */
    MetricsSnapshot metrics;
};

/** What one shard contributed to a serve. */
struct ShardOutcome
{
    RuntimeResult result;
    /** Global time of the shard clock's origin (its first admitted
     * frame's timestamp when paced, 0 in batch mode). */
    double anchorSec = 0;
    /** Sub-stream index -> global stream index. */
    std::vector<std::size_t> globalIndex;
    /** Execution backend the shard ran (registry name); empty
     * outcomes are excluded from the per-backend view. */
    std::string backend;
};

/**
 * Merge per-shard outcomes into the global serving view.
 *
 * @param stream The tagged stream that was served.
 * @param outcomes One entry per shard; results are moved out.
 * @param policy Placement policy used (for the report).
 */
ServingResult
mergeShardOutcomes(const SensorStream &stream,
                   std::vector<ShardOutcome> outcomes,
                   PlacementPolicy policy);

/** What one control epoch of an elastic serve contributed. */
struct EpochOutcome
{
    /** Epoch window on the global clock. */
    double startSec = 0;
    double endSec = 0;
    /** Active shard count during this epoch. */
    std::size_t activeShards = 0;
    /** The epoch's fleet serve over its admitted sub-stream; frame
     * globalIndex values are *epoch-local* (positions in the
     * admitted sub-stream) and completion times are already on the
     * global clock (paced serves anchor at absolute stamps). */
    ServingResult result;
    /** Epoch-local sub-stream index -> full-stream index. */
    std::vector<std::size_t> globalIndex;
    /** Full-stream indices of frames shed by admission control
     * this epoch (never dispatched). */
    std::vector<std::size_t> shedGlobalIndex;
};

/**
 * Merge per-epoch elastic-serve outcomes into one global view.
 *
 * Pure arithmetic, like mergeShardOutcomes. Shard views aggregate
 * per shard *index* across the epochs it was active in (counts
 * summed, busy time re-normalized over the summed epoch makespans);
 * sensor and backend views are recomputed from the union of
 * completions; shed frames join the conservation identity. Before
 * any distribution is derived, completions are clamped to in-order
 * delivery per sensor: a frame's delivery time is at least its
 * predecessor's, with the wait charged to its latency — the
 * cross-epoch handoff cost a reconfiguring fleet really pays.
 *
 * @param stream The full tagged stream the elastic serve covered.
 * @param outcomes One entry per epoch, in epoch order; moved out.
 * @param policy Placement policy used within epochs (for the
 *        report).
 * @param shard_backends Backend name per shard index (stable across
 *        epochs by the ShardedRunner cycling rule); sized to the
 *        peak shard count, may be empty when unattributed.
 */
ServingResult
mergeEpochResults(const SensorStream &stream,
                  std::vector<EpochOutcome> outcomes,
                  PlacementPolicy policy,
                  const std::vector<std::string> &shard_backends);

} // namespace hgpcn

#endif // HGPCN_SERVING_SERVING_REPORT_H
