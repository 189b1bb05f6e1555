#include "serving/autoscaler.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"

namespace hgpcn
{
namespace
{

/** Fixed-precision double for deterministic log lines. */
std::string
fixed3(double v)
{
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(3);
    oss << v;
    return oss.str();
}

/** Modeled-backlog tolerance, per active shard: an epoch is
 * overloaded when its backlog exceeds this many frames per shard.
 * A keeping-up pipeline always carries about a pipeline depth's
 * worth of in-flight frames across the epoch boundary; only growth
 * beyond that signals overload. */
constexpr double kBacklogFramesPerShard = 4.0;

} // namespace

const char *
scaleActionName(ScaleAction action)
{
    switch (action) {
    case ScaleAction::Hold:
        return "hold";
    case ScaleAction::Up:
        return "up";
    case ScaleAction::Down:
        return "down";
    }
    return "?";
}

Autoscaler::Autoscaler(const AutoscalerConfig &config) : cfg(config)
{
    HGPCN_ASSERT(cfg.minShards >= 1, "minShards must be >= 1");
    HGPCN_ASSERT(cfg.maxShards >= cfg.minShards,
                 "maxShards (", cfg.maxShards,
                 ") must be >= minShards (", cfg.minShards, ")");
    HGPCN_ASSERT(cfg.upStep >= 1 && cfg.downStep >= 1,
                 "scale steps must be >= 1");
    HGPCN_ASSERT(cfg.upHoldEpochs >= 1 && cfg.downHoldEpochs >= 1,
                 "hold thresholds must be >= 1");
    HGPCN_ASSERT(cfg.upUtilization > cfg.downUtilization,
                 "upUtilization (", cfg.upUtilization,
                 ") must exceed downUtilization (",
                 cfg.downUtilization, ")");
    HGPCN_ASSERT(cfg.behindTolerance >= 0.0 &&
                     cfg.behindTolerance < 1.0,
                 "behindTolerance must be in [0, 1)");
}

ScaleDecision
Autoscaler::step(const EpochSignals &signals)
{
    const bool behind =
        signals.sustainedFps <
        signals.offeredFps * (1.0 - cfg.behindTolerance);
    const bool backlogged =
        static_cast<double>(signals.backlogFrames) >
        kBacklogFramesPerShard *
            static_cast<double>(signals.activeShards);
    const bool overloaded = backlogged ||
                            signals.utilization > cfg.upUtilization ||
                            behind;
    const bool underloaded =
        !overloaded && signals.utilization < cfg.downUtilization;

    if (overloaded) {
        ++overEpochs;
        underEpochs = 0;
    } else if (underloaded) {
        ++underEpochs;
        overEpochs = 0;
    } else {
        overEpochs = 0;
        underEpochs = 0;
    }

    ScaleDecision out;
    out.shards = signals.activeShards;

    if (cooldown > 0) {
        --cooldown;
        out.reason = "cooldown";
        return out;
    }

    if (overEpochs >= cfg.upHoldEpochs) {
        if (signals.activeShards >= cfg.maxShards) {
            out.reason = "overloaded at maxShards";
            return out;
        }
        out.action = ScaleAction::Up;
        out.shards = std::min(cfg.maxShards,
                              signals.activeShards + cfg.upStep);
        out.reason =
            "overloaded " + std::to_string(overEpochs) +
            " epoch(s): util " + fixed3(signals.utilization) +
            ", backlog " + std::to_string(signals.backlogFrames) +
            ", sustained " + fixed3(signals.sustainedFps) +
            " vs offered " + fixed3(signals.offeredFps);
        overEpochs = 0;
        underEpochs = 0;
        cooldown = cfg.cooldownEpochs;
        return out;
    }

    if (underEpochs >= cfg.downHoldEpochs) {
        if (signals.activeShards <= cfg.minShards) {
            out.reason = "underloaded at minShards";
            return out;
        }
        out.action = ScaleAction::Down;
        out.shards =
            signals.activeShards >= cfg.minShards + cfg.downStep
                ? signals.activeShards - cfg.downStep
                : cfg.minShards;
        out.reason = "underloaded " + std::to_string(underEpochs) +
                     " epoch(s): util " +
                     fixed3(signals.utilization);
        overEpochs = 0;
        underEpochs = 0;
        cooldown = cfg.cooldownEpochs;
        return out;
    }

    out.reason = overloaded     ? "overloaded " +
                                      std::to_string(overEpochs) +
                                      "/" +
                                      std::to_string(cfg.upHoldEpochs)
                 : underloaded ? "underloaded " +
                                     std::to_string(underEpochs) +
                                     "/" +
                                     std::to_string(
                                         cfg.downHoldEpochs)
                               : "steady";
    return out;
}

std::string
ElasticResult::decisionLog() const
{
    std::ostringstream oss;
    for (const EpochLog &ep : epochs) {
        oss << "epoch " << ep.epoch << " [" << fixed3(ep.startSec)
            << "," << fixed3(ep.endSec) << ") shards="
            << ep.activeShards << " offered=" << ep.framesOffered
            << " admitted=" << ep.framesAdmitted
            << " shed=" << ep.framesShed;
        if (!ep.shedSensors.empty()) {
            oss << " shedSensors=";
            for (std::size_t i = 0; i < ep.shedSensors.size(); ++i)
                oss << (i ? "," : "") << ep.shedSensors[i];
        }
        // Fault-tolerance fields print only for an epoch that
        // degraded frames or flagged degraded sensors.
        if (ep.framesDegraded > 0 || !ep.degradedSensors.empty()) {
            oss << " degraded=" << ep.framesDegraded;
            if (!ep.degradedSensors.empty()) {
                oss << " degradedSensors=";
                for (std::size_t i = 0;
                     i < ep.degradedSensors.size(); ++i)
                    oss << (i ? "," : "") << ep.degradedSensors[i];
            }
        }
        oss << " capacity=" << fixed3(ep.capacityFps)
            << " util=" << fixed3(ep.signals.utilization)
            << " sustained=" << fixed3(ep.signals.sustainedFps)
            << " backlog=" << ep.signals.backlogFrames << " -> "
            << scaleActionName(ep.decision.action);
        if (ep.decision.action != ScaleAction::Hold)
            oss << " to " << ep.decision.shards;
        oss << " (" << ep.decision.reason << ")\n";
    }
    return oss.str();
}

ElasticRunner::ElasticRunner(const HgPcnSystem::Config &system,
                             const PointNet2Spec &spec,
                             const Config &config)
    : cfg(config), runner(system, spec, config.fleet)
{
    HGPCN_ASSERT(cfg.epochSec > 0.0, "epoch length must be positive");
    HGPCN_ASSERT(cfg.fleet.runner.paceBySensor,
                 "elastic serving requires a sensor-paced runner "
                 "(the control loop lives on the virtual timeline)");
    HGPCN_ASSERT(cfg.fleet.shards >= cfg.autoscaler.minShards &&
                     cfg.fleet.shards <= cfg.autoscaler.maxShards,
                 "initial width (", cfg.fleet.shards,
                 ") must lie in [minShards, maxShards] = [",
                 cfg.autoscaler.minShards, ", ",
                 cfg.autoscaler.maxShards, "]");
}

double
ElasticRunner::capacityFps() const
{
    double fps = 0.0;
    for (const double service_sec : runner.shardServiceSec())
        fps += 1.0 / service_sec;
    return fps;
}

ElasticResult
ElasticRunner::serve(const SensorStream &stream,
                     const std::vector<int> &priority)
{
    HGPCN_ASSERT(stream.frames.size() == stream.sensors.size(),
                 "frames/sensors tags out of sync");
    HGPCN_ASSERT(priority.empty() ||
                     priority.size() == stream.sensorCount,
                 "priority list (", priority.size(),
                 ") must be empty or one per sensor (",
                 stream.sensorCount, ")");

    ElasticResult out;
    // Reusable + deterministic: every serve starts from the
    // configured width and a fresh autoscaler.
    runner.setShardCount(cfg.fleet.shards);
    Autoscaler scaler(cfg.autoscaler);
    // One breaker history for the serve: every epoch reads and
    // extends it, and the next serve starts pristine.
    std::vector<CircuitBreaker> health;

    std::vector<EpochOutcome> outcomes;
    std::size_t peak = runner.shardCount();

    if (stream.size() > 0) {
        // Epoch 0 is the epochSec-aligned window containing the
        // first stamp, so epoch boundaries are hand-computable
        // from the config alone.
        const double anchor =
            std::floor(stream.frames.front().timestamp /
                       cfg.epochSec) *
            cfg.epochSec;
        std::size_t cursor = 0;
        for (std::size_t e = 0; cursor < stream.size(); ++e) {
            const double start = anchor + cfg.epochSec *
                                              static_cast<double>(e);
            const double end = start + cfg.epochSec;

            EpochLog log;
            log.epoch = e;
            log.startSec = start;
            log.endSec = end;
            log.activeShards = runner.shardCount();
            peak = std::max(peak, log.activeShards);

            // The epoch's slice of the stream (stamps strictly
            // increase, so it is contiguous).
            const std::size_t first = cursor;
            while (cursor < stream.size() &&
                   stream.frames[cursor].timestamp < end)
                ++cursor;
            log.framesOffered = cursor - first;

            // Admission: offered rate per sensor this epoch.
            std::vector<double> offered_fps(stream.sensorCount,
                                            0.0);
            for (std::size_t i = first; i < cursor; ++i)
                offered_fps[stream.sensors[i]] +=
                    1.0 / cfg.epochSec;
            log.capacityFps = capacityFps();
            const ShedDecision admission = decideAdmission(
                offered_fps, priority, log.capacityFps,
                cfg.admission);
            // Degrade-instead-of-shed: the shed *decision* stands,
            // its enforcement becomes down-sampling — every sensor
            // keeps a live stream.
            const bool degrade_mode =
                cfg.admission.degradeInsteadOfShed &&
                !admission.shedSensors.empty();
            if (degrade_mode)
                log.degradedSensors = admission.shedSensors;
            else
                log.shedSensors = admission.shedSensors;
            std::vector<bool> degrade_flags;
            if (degrade_mode) {
                degrade_flags.assign(stream.sensorCount, false);
                for (const std::size_t sensor : log.degradedSensors)
                    degrade_flags[sensor] = true;
            }

            EpochOutcome outcome;
            outcome.startSec = start;
            outcome.endSec = end;
            outcome.activeShards = log.activeShards;
            SensorStream sub;
            sub.sensorCount = stream.sensorCount;
            for (std::size_t i = first; i < cursor; ++i) {
                if (degrade_mode ||
                    admission.admitted[stream.sensors[i]]) {
                    sub.frames.push_back(stream.frames[i]);
                    sub.sensors.push_back(stream.sensors[i]);
                    outcome.globalIndex.push_back(i);
                } else {
                    outcome.shedGlobalIndex.push_back(i);
                }
            }
            log.framesAdmitted = outcome.globalIndex.size();
            log.framesShed = outcome.shedGlobalIndex.size();

            // Epoch telemetry (virtual clock; timestamps are epoch
            // boundaries, so the events join the deterministic
            // virtual trace).
            if (HGPCN_TRACE_ENABLED()) {
                Tracer &tr = Tracer::global();
                tr.span(TraceClock::Virtual, start, cfg.epochSec,
                        "epoch:" + std::to_string(e), "elastic",
                        "serving/epochs");
                tr.counter(TraceClock::Virtual, start,
                           "activeShards", "serving/shards",
                           static_cast<double>(log.activeShards));
                for (const std::size_t sensor : log.shedSensors) {
                    TraceIds ids;
                    ids.sensor = static_cast<std::int64_t>(sensor);
                    tr.instant(TraceClock::Virtual, start,
                               "shed:sensor" +
                                   std::to_string(sensor),
                               "admission", "serving/admission",
                               ids);
                }
                for (const std::size_t sensor :
                     log.degradedSensors) {
                    TraceIds ids;
                    ids.sensor = static_cast<std::int64_t>(sensor);
                    tr.instant(TraceClock::Virtual, start,
                               "degrade:sensor" +
                                   std::to_string(sensor),
                               "admission", "serving/admission",
                               ids);
                }
            }

            // The epoch serve: an ordinary fleet serve over the
            // admitted sub-stream at the current width.
            outcome.result = runner.serve(
                sub, {}, degrade_mode ? &degrade_flags : nullptr,
                &health);
            log.framesDegraded =
                outcome.result.report.framesDegraded;

            // Signals — all modeled arithmetic from the epoch's
            // report, normalized by the epoch length.
            EpochSignals &sig = log.signals;
            sig.activeShards = log.activeShards;
            sig.offeredFps =
                static_cast<double>(log.framesAdmitted) /
                cfg.epochSec;
            sig.sustainedFps =
                static_cast<double>(
                    outcome.result.report.framesProcessed) /
                cfg.epochSec;
            double busy = 0.0;
            for (const RuntimeReport &sr :
                 outcome.result.report.shardReports) {
                double bottleneck = 0.0;
                for (const TimelineStageStats &st : sr.stages)
                    bottleneck = std::max(
                        bottleneck,
                        st.busySec /
                            static_cast<double>(st.units));
                busy += bottleneck;
            }
            sig.utilization =
                busy / (static_cast<double>(log.activeShards) *
                        cfg.epochSec);
            for (const ServedFrame &sf : outcome.result.frames) {
                if (sf.doneSec > end)
                    ++sig.backlogFrames;
            }

            log.decision = scaler.step(sig);
            out.shardSeconds +=
                static_cast<double>(log.activeShards) *
                cfg.epochSec;
            outcomes.push_back(std::move(outcome));

            if (log.decision.action != ScaleAction::Hold &&
                log.decision.shards != runner.shardCount()) {
                ScaleEvent event;
                event.epoch = e;
                event.action = log.decision.action;
                event.fromShards = runner.shardCount();
                event.toShards = log.decision.shards;
                event.reason = log.decision.reason;
                HGPCN_TRACE_EVENT(Tracer::global().instant(
                    TraceClock::Virtual, end,
                    (event.action == ScaleAction::Up
                         ? std::string("scale:up:")
                         : std::string("scale:down:")) +
                        std::to_string(event.fromShards) + "->" +
                        std::to_string(event.toShards),
                    "elastic", "serving/epochs"));
                out.events.push_back(std::move(event));
                runner.setShardCount(log.decision.shards);
            }
            out.epochs.push_back(std::move(log));
        }
    }

    std::vector<std::string> shard_backends(peak);
    for (std::size_t s = 0; s < peak; ++s)
        shard_backends[s] = runner.backendNameFor(s);
    out.serving =
        mergeEpochResults(stream, std::move(outcomes),
                          cfg.fleet.placement, shard_backends);
    return out;
}

} // namespace hgpcn
