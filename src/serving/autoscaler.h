/**
 * @file
 * Elastic serving: a deterministic autoscaler + control loop over
 * the ShardedRunner fleet.
 *
 * The serve is partitioned into fixed-length *control epochs* on
 * the virtual timeline. Each epoch:
 *
 *   1. applies the fleet resize decided at the end of the previous
 *      epoch (ShardedRunner::setShardCount — never during a serve);
 *   2. runs admission control (serving/admission.h) against the
 *      epoch's offered load and the active fleet's modeled
 *      capacity, shedding whole sensors lowest-priority first —
 *      or, under AdmissionConfig::degradeInsteadOfShed, serving
 *      the would-be-shed sensors at reduced fidelity instead;
 *   3. serves the admitted sub-stream as an ordinary fleet serve;
 *   4. derives EpochSignals from the epoch's ServingReport —
 *      offered vs sustained FPS, bottleneck-stage occupancy and
 *      modeled backlog — and feeds them to Autoscaler::step, whose
 *      decision takes effect at the next epoch boundary.
 *
 * Everything the loop consumes is modeled virtual-timeline
 * arithmetic, never wall-clock measurement, so the whole elastic
 * serve — scale events, shed sets, merged report — is bit-for-bit
 * reproducible from (trace seed, config) on any machine. Autoscaler
 * is a pure hand-computable state machine (hysteresis counters +
 * cooldown) and is unit-tested against pinned transition sequences
 * in tests/test_elastic.cc.
 *
 * The per-epoch results are merged by mergeEpochResults
 * (serving/serving_report.h): shard identities persist across
 * resizes (the ShardedRunner active-prefix pool), per-sensor
 * completions are clamped to in-order delivery across epoch
 * boundaries, and shed frames join the conservation identity
 * framesIn == processed + dropped + abandoned + shed.
 */

#ifndef HGPCN_SERVING_AUTOSCALER_H
#define HGPCN_SERVING_AUTOSCALER_H

#include <cstddef>
#include <string>
#include <vector>

#include "core/hgpcn_system.h"
#include "serving/admission.h"
#include "serving/serving_report.h"
#include "serving/sharded_runner.h"

namespace hgpcn
{

/** Autoscaler parameters: thresholds, hysteresis, cooldown. */
struct AutoscalerConfig
{
    std::size_t minShards = 1; //!< never scale below
    std::size_t maxShards = 8; //!< never scale above

    std::size_t upStep = 1;   //!< shards added per scale-up
    std::size_t downStep = 1; //!< shards removed per scale-down

    /** Consecutive overloaded epochs required before scaling up.
     * 1 = react on the first overloaded epoch. */
    std::size_t upHoldEpochs = 1;
    /** Consecutive underloaded epochs required before scaling
     * down; > upHoldEpochs makes shrinking deliberately lazier
     * than growing. */
    std::size_t downHoldEpochs = 2;
    /** Epochs after any scale action during which no further
     * action fires (hysteresis counters keep accumulating). */
    std::size_t cooldownEpochs = 1;

    /** Bottleneck occupancy above which an epoch is overloaded. */
    double upUtilization = 0.85;
    /** Bottleneck occupancy below which an epoch is underloaded
     * (only when not overloaded by any other signal). */
    double downUtilization = 0.35;
    /** Falling-behind tolerance: sustained < offered * (1 - tol)
     * marks the epoch overloaded even at modest occupancy. */
    double behindTolerance = 0.05;
};

/** What one control epoch measured (all modeled arithmetic). */
struct EpochSignals
{
    /** Admitted frames / epoch length. */
    double offeredFps = 0;
    /** Completed frames / epoch length. */
    double sustainedFps = 0;
    /** Fleet bottleneck occupancy: mean over active shards of the
     * busiest stage's busySec/units, normalized by epoch length. */
    double utilization = 0;
    /** Completions the virtual timeline placed beyond the epoch
     * end — modeled work the fleet did not retire in time (a
     * pipeline depth's worth, 4 frames per shard, is normal; see
     * Autoscaler). */
    std::size_t backlogFrames = 0;
    /** Fleet width during the epoch. */
    std::size_t activeShards = 0;
};

/** What the autoscaler decided at an epoch boundary. */
enum class ScaleAction
{
    Hold,
    Up,
    Down,
};

/** Stable display name ("hold", "up", "down"). */
const char *scaleActionName(ScaleAction action);

/** A step's outcome: the target width for the next epoch. */
struct ScaleDecision
{
    ScaleAction action = ScaleAction::Hold;
    /** Fleet width for the next epoch (== current on Hold). */
    std::size_t shards = 0;
    /** Deterministic human-readable rationale. */
    std::string reason;
};

/**
 * The scaling state machine. Pure arithmetic over EpochSignals:
 * an epoch is *overloaded* when its modeled backlog exceeds 4
 * frames per active shard (about a pipeline depth), bottleneck
 * occupancy is above upUtilization, or sustained throughput is
 * more than behindTolerance below offered; it is *underloaded*
 * when none of that holds and occupancy is below
 * downUtilization. Consecutive overloaded (underloaded) epochs
 * are counted; reaching upHoldEpochs (downHoldEpochs) fires a
 * scale action, clamped to [minShards, maxShards], after which
 * cooldownEpochs boundaries pass before another action may fire
 * (counters keep accumulating through the cooldown, so a
 * persistent overload acts the moment the cooldown expires).
 */
class Autoscaler
{
  public:
    explicit Autoscaler(const AutoscalerConfig &config);

    /** Consume one epoch's signals, decide the next epoch's width. */
    ScaleDecision step(const EpochSignals &signals);

    const AutoscalerConfig &config() const { return cfg; }

  private:
    AutoscalerConfig cfg;
    std::size_t overEpochs = 0;  //!< consecutive overloaded epochs
    std::size_t underEpochs = 0; //!< consecutive underloaded epochs
    std::size_t cooldown = 0;    //!< boundaries left before acting
};

/** One scale event in an elastic serve. */
struct ScaleEvent
{
    std::size_t epoch = 0; //!< decided at this epoch's end
    ScaleAction action = ScaleAction::Hold;
    std::size_t fromShards = 0;
    std::size_t toShards = 0;
    std::string reason;
};

/** One control epoch's log line worth of state. */
struct EpochLog
{
    std::size_t epoch = 0;
    double startSec = 0;
    double endSec = 0;
    std::size_t activeShards = 0;
    std::size_t framesOffered = 0;  //!< stamps in the window
    std::size_t framesAdmitted = 0; //!< dispatched to the fleet
    std::size_t framesShed = 0;     //!< refused by admission
    std::vector<std::size_t> shedSensors; //!< ascending ids
    /** Sensors served at reduced fidelity instead of refused
     * (AdmissionConfig::degradeInsteadOfShed), ascending ids;
     * disjoint from shedSensors (degrade mode empties it). */
    std::vector<std::size_t> degradedSensors;
    /** Frames this epoch completed at reduced fidelity (degraded
     * sensors + any half-open-breaker degradation). */
    std::size_t framesDegraded = 0;
    double capacityFps = 0; //!< modeled fleet capacity used
    EpochSignals signals;
    ScaleDecision decision;
};

/** Everything one elastic serve produced. */
struct ElasticResult
{
    /** The merged global view (mergeEpochResults). */
    ServingResult serving;
    /** Per-epoch logs, in epoch order. */
    std::vector<EpochLog> epochs;
    /** Scale events only (epochs whose decision changed the
     * width), in epoch order. */
    std::vector<ScaleEvent> events;
    /** Σ activeShards × epoch length — the provisioning cost an
     * elastic fleet pays, comparable against a static fleet's
     * shards × total duration. */
    double shardSeconds = 0;

    /** Canonical fixed-precision decision trace: one line per
     * epoch. Byte-identical across runs of the same (trace,
     * config) — the determinism oracle for tests and benches. */
    std::string decisionLog() const;
};

/** The elastic serving layer: autoscaler + admission control
 * driving a ShardedRunner fleet across control epochs. */
class ElasticRunner
{
  public:
    struct Config
    {
        /** Control epoch length on the virtual timeline (> 0). */
        double epochSec = 1.0;

        /** Fleet parameters; fleet.shards is the initial width.
         * The runner must be sensor-paced (elastic control needs a
         * timeline; fatal otherwise). */
        ShardedRunner::Config fleet;

        AutoscalerConfig autoscaler;
        AdmissionConfig admission;
    };

    /**
     * Build the elastic layer and its fleet.
     *
     * @param system Engine parameters (as ShardedRunner).
     * @param spec Network deployed on every shard.
     * @param config Elastic serving parameters.
     */
    ElasticRunner(const HgPcnSystem::Config &system,
                  const PointNet2Spec &spec, const Config &config);

    /**
     * Serve @p stream elastically (blocking). Reusable: every
     * serve resets the fleet to the initial width and the
     * autoscaler to its initial state, and starts with pristine
     * Closed circuit breakers, so identical inputs produce
     * identical results no matter what ran before. Within one
     * serve, one set of breakers is passed to every control epoch
     * (the epochs share one fleet history).
     *
     * @param stream Tagged multi-sensor stream, strictly
     *        increasing stamps (the pacing contract).
     * @param priority Per-sensor priorities for admission control
     *        (higher = more important); empty = all equal.
     */
    ElasticResult serve(const SensorStream &stream,
                        const std::vector<int> &priority = {});

    /** @return the underlying fleet (e.g. to inspect backends). */
    ShardedRunner &fleet() { return runner; }

    const Config &config() const { return cfg; }

  private:
    /** Modeled fleet throughput at the current width: Σ over
     * ShardedRunner::shardServiceSec() of 1 / service time. */
    double capacityFps() const;

    Config cfg;
    ShardedRunner runner;
};

} // namespace hgpcn

#endif // HGPCN_SERVING_AUTOSCALER_H
