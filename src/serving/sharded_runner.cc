#include "serving/sharded_runner.h"

#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"

namespace hgpcn
{
namespace
{

StreamRunner::Config
resolveRunnerConfig(const HgPcnSystem::Config &system,
                    const PointNet2Spec &spec,
                    StreamRunner::Config runner_cfg)
{
    // Same K resolution as HgPcnSystem: an explicit runner K wins,
    // then the spec's, then the system default.
    if (runner_cfg.inputPoints == 0) {
        runner_cfg.inputPoints = spec.inputPoints != 0
                                     ? spec.inputPoints
                                     : system.inputPoints;
    }
    return runner_cfg;
}

/** The fleet config with the shard's identity stamped on for trace
 * attribution (observability-only; see StreamRunner::Config). */
StreamRunner::Config
shardRunnerConfig(StreamRunner::Config runner_cfg, std::size_t s)
{
    runner_cfg.traceShard = static_cast<std::int64_t>(s);
    return runner_cfg;
}

} // namespace

ShardedRunner::Shard::Shard(const HgPcnSystem::Config &system,
                            const PointNet2Spec &spec,
                            const std::string &backend_name,
                            const StreamRunner::Config &runner_cfg)
    : preprocess(system.preprocess), model(spec),
      backend(makeBackend(backend_name, system.inference, model)),
      runner(preprocess, *backend, runner_cfg)
{
}

std::string
ShardedRunner::backendNameFor(std::size_t s) const
{
    if (cfg.backends.empty())
        return "hgpcn";
    return cfg.backends[s % cfg.backends.size()];
}

ShardedRunner::ShardedRunner(const HgPcnSystem::Config &system_cfg,
                             const PointNet2Spec &spec_arg,
                             const Config &config)
    : cfg(config), system(system_cfg), spec(spec_arg),
      runnerCfg(resolveRunnerConfig(system_cfg, spec_arg,
                                    config.runner))
{
    HGPCN_ASSERT(cfg.shards >= 1, "need at least one shard");
    HGPCN_ASSERT(cfg.backends.size() <= 1 ||
                     cfg.backends.size() == cfg.shards,
                 "backend list (", cfg.backends.size(),
                 ") must be empty, one name, or one per initial "
                 "shard (", cfg.shards, ")");
    fleet.reserve(cfg.shards);
    for (std::size_t s = 0; s < cfg.shards; ++s)
        fleet.push_back(std::make_unique<Shard>(
            system, spec, backendNameFor(s),
            shardRunnerConfig(runnerCfg, s)));
    active = cfg.shards;
}

void
ShardedRunner::setShardCount(std::size_t shards)
{
    HGPCN_ASSERT(shards >= 1, "need at least one shard");
    HGPCN_ASSERT(!serving.load(),
                 "setShardCount must not race a serve in progress");
    // Reactivated replicas must not inherit a stop latched while
    // they were parked (or before they were parked): clear the
    // latches of every shard entering the active prefix.
    for (std::size_t s = active; s < shards && s < fleet.size(); ++s)
        fleet[s]->stopRequested.store(false);
    while (fleet.size() < shards)
        fleet.push_back(std::make_unique<Shard>(
            system, spec, backendNameFor(fleet.size()),
            shardRunnerConfig(runnerCfg, fleet.size())));
    active = shards;
}

std::vector<double>
ShardedRunner::shardServiceSec() const
{
    if (cfg.assumedServiceSec > 0.0)
        return std::vector<double>(active, cfg.assumedServiceSec);
    std::map<std::string, double> estimate_of;
    std::vector<double> out;
    out.reserve(active);
    for (std::size_t s = 0; s < active; ++s) {
        const ExecutionBackend &backend = *fleet[s]->backend;
        auto it = estimate_of.find(backend.name());
        if (it == estimate_of.end()) {
            const double estimate = backend.estimateServiceSec();
            HGPCN_ASSERT(estimate > 0.0, "backend ", backend.name(),
                         " service-time estimate must be positive");
            it = estimate_of.emplace(backend.name(), estimate).first;
        }
        out.push_back(it->second);
    }
    return out;
}

const ExecutionBackend &
ShardedRunner::shardBackend(std::size_t shard) const
{
    HGPCN_ASSERT(shard < active, "shard ", shard,
                 " out of range (", active, " active shards)");
    return *fleet[shard]->backend;
}

ServingResult
ShardedRunner::serve(const SensorStream &stream,
                     const ServingFrameCallback &on_frame,
                     const std::vector<bool> *degrade_sensors,
                     std::vector<CircuitBreaker> *health)
{
    HGPCN_ASSERT(!serving.exchange(true),
                 "serve() reentered while a serve is in progress");
    // Restart contract: a stop belongs to the serve it aborted.
    stopped.store(false);
    for (std::size_t s = 0; s < active; ++s)
        fleet[s]->stopRequested.store(false);

    const std::size_t n_shards = active;
    std::vector<ShardOutcome> outcomes(n_shards);
    for (std::size_t s = 0; s < n_shards; ++s)
        outcomes[s].backend = fleet[s]->backend->name();
    if (stream.size() == 0) {
        ServingResult out = mergeShardOutcomes(
            stream, std::move(outcomes), cfg.placement);
        serving.store(false);
        return out;
    }

    // Dispatch: deterministic placement over the tagged stream.
    // LeastLoaded retires each shard's modeled backlog at that
    // shard's service time, so join-shortest-queue stops assuming
    // homogeneous shards; fault resolution (below) needs the same
    // estimates for its deadline arithmetic.
    const bool faulted =
        cfg.faultPlan != nullptr && !cfg.faultPlan->empty();
    std::vector<double> service_sec;
    if (cfg.placement == PlacementPolicy::LeastLoaded || faulted)
        service_sec = shardServiceSec();
    std::vector<std::size_t> assignment = assignShards(
        stream, n_shards, cfg.placement, service_sec);

    // Fault resolution (dispatch time, virtual clock): route around
    // crashed/tripped shards and fix every frame's retry/backoff/
    // degradation outcome before any functional work runs — the
    // wall-clock pipeline then merely executes a schedule that is
    // already deterministic. Every frame gets a directive; without
    // a fault plan each one is clean.
    std::vector<FrameFaultDirective> directives(stream.size());
    MetricsRegistry fault_metrics;
    if (faulted) {
        std::vector<std::string> backend_names;
        backend_names.reserve(n_shards);
        for (std::size_t s = 0; s < n_shards; ++s)
            backend_names.push_back(fleet[s]->backend->name());
        // Breaker history is the caller's; without one the serve
        // starts pristine.
        std::vector<CircuitBreaker> pristine;
        FaultResolution res = resolveFaultSchedule(
            stream, assignment, backend_names, service_sec,
            *cfg.faultPlan, cfg.faultTolerance,
            health != nullptr ? *health : pristine);
        assignment = std::move(res.assignment);
        directives = std::move(res.directives);
        fault_metrics.counter("fault.failovers")
            .add(res.failovers.size());
        fault_metrics.counter("fault.frames_redirected")
            .add(res.framesRedirected);
        std::size_t trips = 0;
        for (const BreakerTransition &tr : res.transitions) {
            if (tr.to == BreakerState::Open)
                ++trips;
        }
        fault_metrics.counter("fault.breaker_trips").add(trips);
        if (HGPCN_TRACE_ENABLED()) {
            for (const FailoverEvent &ev : res.failovers) {
                TraceIds ids;
                ids.sensor = static_cast<std::int64_t>(ev.sensor);
                ids.shard = static_cast<std::int64_t>(ev.toShard);
                HGPCN_TRACE_EVENT(Tracer::global().instant(
                    TraceClock::Virtual, ev.timeSec,
                    "failover:shard" + std::to_string(ev.toShard),
                    "fault", "serving/failover", ids));
            }
            for (const BreakerTransition &tr : res.transitions) {
                HGPCN_TRACE_EVENT(Tracer::global().counter(
                    TraceClock::Virtual, tr.timeSec,
                    "breaker:shard" + std::to_string(tr.shard),
                    "serving/health", breakerStateGauge(tr.to)));
            }
        }
    }
    // Admission-driven degradation (degrade-instead-of-shed):
    // flagged sensors keep serving, at reduced fidelity.
    if (degrade_sensors != nullptr) {
        HGPCN_ASSERT(degrade_sensors->size() == stream.sensorCount,
                     "degrade_sensors must have one flag per "
                     "sensor: ",
                     degrade_sensors->size(), " vs ",
                     stream.sensorCount);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            if ((*degrade_sensors)[stream.sensors[i]] &&
                !directives[i].failed)
                directives[i].degraded = true;
        }
    }
    const auto degraded_k = static_cast<std::size_t>(std::max(
        1.0, std::floor(static_cast<double>(runnerCfg.inputPoints) *
                            cfg.faultTolerance.degradedSampleFraction +
                        0.5)));
    for (FrameFaultDirective &d : directives) {
        if (d.degraded && d.samplePoints == 0)
            d.samplePoints = degraded_k;
    }

    std::vector<std::vector<Frame>> sub(n_shards);
    std::vector<std::vector<FrameFaultDirective>> shard_faults(
        n_shards);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const std::size_t s = assignment[i];
        sub[s].push_back(stream.frames[i]);
        outcomes[s].globalIndex.push_back(i);
        shard_faults[s].push_back(directives[i]);
    }

    // Trace the placement decisions (virtual clock, at the frame's
    // capture time — deterministic payload) and give every shard its
    // sub-stream's fleet-level frame/sensor ids so shard spans are
    // attributable without the globalIndex mapping.
    std::vector<StreamTraceIds> trace_ids(n_shards);
    if (HGPCN_TRACE_ENABLED()) {
        for (std::size_t i = 0; i < stream.size(); ++i) {
            TraceIds ids;
            ids.frame = static_cast<std::int64_t>(i);
            ids.sensor =
                static_cast<std::int64_t>(stream.sensors[i]);
            ids.shard = static_cast<std::int64_t>(assignment[i]);
            HGPCN_TRACE_EVENT(Tracer::global().instant(
                TraceClock::Virtual, stream.frames[i].timestamp,
                "place:shard" + std::to_string(assignment[i]),
                "placement", "serving/placement", ids));
        }
        for (std::size_t s = 0; s < n_shards; ++s) {
            trace_ids[s].frame.reserve(outcomes[s].globalIndex.size());
            trace_ids[s].sensor.reserve(
                outcomes[s].globalIndex.size());
            for (const std::size_t g : outcomes[s].globalIndex) {
                trace_ids[s].frame.push_back(
                    static_cast<std::int64_t>(g));
                trace_ids[s].sensor.push_back(
                    static_cast<std::int64_t>(stream.sensors[g]));
            }
        }
    }

    // Execute: every shard drains its sub-stream on its own
    // pipeline, concurrently with the others. Stops (fleet-wide or
    // per-shard) are re-asserted through the per-frame hook so a
    // shard that enters run() after the stop — run() resets the
    // pipeline's own flag — still truncates at its first emission
    // instead of resurrecting a stopped serve.
    std::vector<std::thread> threads;
    threads.reserve(n_shards);
    for (std::size_t s = 0; s < n_shards; ++s) {
        threads.emplace_back([this, s, &sub, &outcomes, &on_frame,
                              &trace_ids, &shard_faults] {
            Shard &shard = *fleet[s];
            if (stopped.load() || shard.stopRequested.load()) {
                outcomes[s].result.report.framesIn = sub[s].size();
                outcomes[s].result.report.framesAbandoned =
                    sub[s].size();
                outcomes[s].result.report.paced =
                    shard.runner.config().paceBySensor;
                return;
            }
            const FrameTaskCallback hook =
                [this, s, &shard, &on_frame](const FrameTask &task) {
                    if (on_frame)
                        on_frame(s, task);
                    if (stopped.load() ||
                        shard.stopRequested.load())
                        shard.runner.requestStop();
                };
            outcomes[s].result = shard.runner.run(
                sub[s], hook,
                trace_ids[s].frame.empty() ? nullptr
                                           : &trace_ids[s],
                &shard_faults[s]);
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Re-anchor each shard clock for the merge: a paced shard's
    // virtual time starts at its first admitted frame.
    for (std::size_t s = 0; s < n_shards; ++s) {
        outcomes[s].anchorSec =
            outcomes[s].result.report.paced && !sub[s].empty()
                ? sub[s].front().timestamp
                : 0.0;
    }
    ServingResult out = mergeShardOutcomes(
        stream, std::move(outcomes), cfg.placement);
    if (faulted)
        out.metrics.merge(fault_metrics.snapshot());
    serving.store(false);
    return out;
}

void
ShardedRunner::requestStop()
{
    stopped.store(true);
    // Over the active prefix only: parked shards are idle by
    // construction, and their latches are cleared on reactivation.
    for (std::size_t s = 0; s < active; ++s)
        fleet[s]->runner.requestStop();
}

void
ShardedRunner::requestStopShard(std::size_t shard)
{
    HGPCN_ASSERT(shard < active, "shard ", shard,
                 " out of range (", active, " active shards)");
    fleet[shard]->stopRequested.store(true);
    fleet[shard]->runner.requestStop();
}

} // namespace hgpcn
