/**
 * @file
 * Dispatch-time fault resolution: turn a FaultPlan plus an initial
 * placement into (a) a final per-frame shard assignment with
 * crashed/tripped shards routed around and (b) one
 * FrameFaultDirective per frame (retries, backoff, slowdown,
 * degradation, terminal failure) for the runtime to charge as
 * virtual time.
 *
 * Everything here is pure arithmetic over the frame arrival stamps
 * (which ARE virtual times in a paced stream), the plan's keyed
 * draws and the breaker state machines — no wall clock, no
 * threads. Resolving before the functional run is what keeps a
 * faulted serve byte-identical on replay: the wall-clock pipeline
 * merely executes a schedule the resolution already fixed.
 *
 * Failover policy, in arrival order per frame:
 *   - A shard is *available* at t when it is not inside a crash
 *     window and its breaker does not read Open.
 *   - If the frame's home shard is available it serves at home
 *     (and the sensor's redirect, if any, is lifted — epoch
 *     re-placement in ElasticRunner restores locality wholesale).
 *   - Otherwise the sensor is redirected to
 *     survivors[sensor % |survivors|] over the ascending list of
 *     available shards; the redirect is re-evaluated per frame, and
 *     every change is recorded as a FailoverEvent.
 *   - With no available shard the frame is failed outright.
 *
 * On the serving shard the frame then runs the retry loop: each
 * attempt draws FaultPlan::transientError; a failure feeds the
 * breaker and schedules deterministic exponential backoff; the
 * frame fails when attempts or the deadline budget are exhausted.
 * A Half-Open serving shard degrades the frame's fidelity when the
 * policy says so — probes are cheap on purpose.
 */

#ifndef HGPCN_SERVING_FAILOVER_H
#define HGPCN_SERVING_FAILOVER_H

#include <cstddef>
#include <string>
#include <vector>

#include "datasets/sensor_stream.h"
#include "serving/health.h"
#include "sim/fault_plan.h"

namespace hgpcn
{

/** A sensor's redirect target changed at virtual time timeSec
 * (initial failover, target re-pick, or return home). */
struct FailoverEvent
{
    double timeSec = 0.0;
    std::size_t sensor = 0;
    std::size_t fromShard = 0;
    std::size_t toShard = 0;
};

/** A shard's breaker changed observable state at timeSec. */
struct BreakerTransition
{
    double timeSec = 0.0;
    std::size_t shard = 0;
    BreakerState from = BreakerState::Closed;
    BreakerState to = BreakerState::Closed;
};

/** Everything the serving layer needs to execute a faulted serve. */
struct FaultResolution
{
    /** Final shard per frame (parallel to stream.frames), after
     * routing around crashed/tripped shards. */
    std::vector<std::size_t> assignment;

    /** Per-frame fault outcome (parallel to stream.frames);
     * samplePoints is left 0 here — the caller fills the concrete
     * degraded budget since only it knows the configured K. */
    std::vector<FrameFaultDirective> directives;

    std::vector<FailoverEvent> failovers;
    std::vector<BreakerTransition> transitions;

    /** Frames served away from their home shard. */
    std::size_t framesRedirected = 0;
};

/**
 * Resolve the fault schedule for one serve (see file header).
 *
 * @param stream merged, timestamp-sorted sensor stream.
 * @param assignment initial (healthy-fleet) shard per frame, from
 *        assignShards().
 * @param backend_names registry name per shard (keys the
 *        transient-error draws).
 * @param service_sec estimated solo inference service seconds,
 *        one entry per shard (deadline arithmetic); zeros make
 *        deadlines account backoff only.
 * @param plan the scripted fault schedule (must be non-empty; the
 *        caller skips resolution entirely for an empty plan).
 * @param cfg retry/backoff/deadline/degradation parameters.
 * @param health per-shard breakers, resized to the fleet here;
 *        carried across calls when the caller keeps the vector
 *        (ElasticRunner's epochs share one fleet history).
 */
FaultResolution
resolveFaultSchedule(const SensorStream &stream,
                     const std::vector<std::size_t> &assignment,
                     const std::vector<std::string> &backend_names,
                     const std::vector<double> &service_sec,
                     const FaultPlan &plan,
                     const FaultToleranceConfig &cfg,
                     std::vector<CircuitBreaker> &health);

} // namespace hgpcn

#endif // HGPCN_SERVING_FAILOVER_H
