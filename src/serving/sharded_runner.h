/**
 * @file
 * ShardedRunner: the multi-sensor serving layer.
 *
 * N independent shards — each with its own PreprocessingEngine,
 * execution backend (src/backends), model replica and StreamRunner
 * pipeline — behind a front-end dispatcher that demultiplexes a
 * tagged SensorStream across them under a pluggable placement
 * policy (serving/placement.h). Shard results merge into one
 * ServingReport: global sustained FPS, per-shard / per-sensor /
 * per-backend latency percentiles, drops, utilization and Section
 * VII-E verdicts with the tri-state semantics.
 *
 * Fleets may be heterogeneous: Config::backends names each shard's
 * execution backend (registry names — "hgpcn", "mesorasi",
 * "pointacc", "cpu-brute", or anything registered), so 2 HgPCN
 * shards + 2 Mesorasi shards is one config line. LeastLoaded
 * placement then retires each shard's modeled backlog at that
 * shard's backend cost-model estimate, not a global constant.
 *
 * Every shard replica is seeded identically, so within one backend
 * which shard serves a frame never changes its functional output —
 * placement is purely a performance decision, exactly as in a
 * replicated model-serving fleet. (Across backends the functional
 * outputs still agree whenever the backends execute the same
 * data-structuring workload.)
 *
 * Restart contract (same as StagePipeline/StreamRunner):
 * requestStop()/requestStopShard() abort the serve in progress; a
 * later serve() starts fresh. The runner keeps no circuit-breaker
 * history of its own: a serve starts with pristine breakers unless
 * its caller passes one set of breakers in and carries it to the
 * next serve (ElasticRunner does, across the epochs of one serve).
 *
 * Elastic fleets: setShardCount() grows or shrinks the fleet
 * between serves (never during one). Shrinking parks the trailing
 * replicas rather than destroying them; growing reactivates parked
 * replicas before constructing new ones, so shard s is always the
 * same identically-seeded replica no matter how often the fleet
 * resizes — scale events are placement decisions, not functional
 * ones. Config::shards is only the *initial* size; every serve/stop
 * path ranges over the currently active prefix, so no code may
 * assume the construction-time count.
 */

#ifndef HGPCN_SERVING_SHARDED_RUNNER_H
#define HGPCN_SERVING_SHARDED_RUNNER_H

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backends/backend_registry.h"
#include "core/hgpcn_system.h"
#include "datasets/sensor_stream.h"
#include "serving/failover.h"
#include "serving/placement.h"
#include "serving/serving_report.h"

namespace hgpcn
{

/** Per-frame serving hook: (shard, completed task), called on that
 * shard's collecting thread in the shard's admission order. */
using ServingFrameCallback =
    std::function<void(std::size_t shard, const FrameTask &task)>;

/** A fleet of StreamRunner shards behind one dispatcher. */
class ShardedRunner
{
  public:
    struct Config
    {
        /** Number of shards (>= 1). */
        std::size_t shards = 2;

        /** How the dispatcher places frames (serving/placement.h). */
        PlacementPolicy placement = PlacementPolicy::HashBySensor;

        /** Per-shard runner parameters. inputPoints 0 inherits the
         * system/spec K, as HgPcnSystem::runStream does. */
        StreamRunner::Config runner;

        /** Execution backend per shard (registry names). Empty:
         * every shard runs "hgpcn". One entry: a homogeneous fleet
         * of that backend. Otherwise the size must equal the
         * initial shard count — backends[s] is shard s's backend,
         * and shards added later by setShardCount() cycle through
         * the list (backends[s % size]), keeping the fleet's
         * backend mix stable as it scales. */
        std::vector<std::string> backends;

        /** Per-shard service-time override, read only by
         * shardServiceSec(); <= 0 = each backend's cost-model
         * estimate (ExecutionBackend::estimateServiceSec). */
        double assumedServiceSec = 0.0;

        /** Scripted fault schedule (borrowed; must outlive the
         * runner). Null or empty: every frame's directive is
         * clean, so no fault time is charged. */
        const FaultPlan *faultPlan = nullptr;

        /** Retry/backoff/deadline/degradation parameters, used only
         * when a non-empty faultPlan is set (or degraded sensors
         * are passed to serve()). */
        FaultToleranceConfig faultTolerance;
    };

    /**
     * Build the fleet: @p config.shards replicas of the system's
     * engines and network.
     *
     * @param system Engine parameters (as HgPcnSystem::Config).
     * @param spec Network deployed on every shard; its inputPoints
     *        overrides system.inputPoints when nonzero.
     * @param config Serving parameters.
     */
    ShardedRunner(const HgPcnSystem::Config &system,
                  const PointNet2Spec &spec, const Config &config);

    /**
     * Serve @p stream end to end (blocking): dispatch every tagged
     * frame to a shard, run all shard pipelines concurrently, merge
     * the shard reports.
     *
     * Reusable: serve() starts fresh even after a previous serve
     * was aborted by requestStop().
     *
     * @param stream Tagged multi-sensor stream, interleaved order.
     * @param on_frame Optional per-frame hook.
     * @param degrade_sensors Optional per-sensor degradation flags
     *        (size stream.sensorCount): flagged sensors' frames run
     *        at the reduced fidelity budget instead of full K —
     *        ElasticRunner's degrade-instead-of-shed admission.
     *        Composes with a fault plan; null changes nothing.
     * @param health Optional per-shard circuit breakers, read and
     *        updated by fault resolution so a caller can carry one
     *        history across serves. Null: the serve starts with
     *        pristine Closed breakers.
     */
    ServingResult serve(const SensorStream &stream,
                        const ServingFrameCallback &on_frame = {},
                        const std::vector<bool> *degrade_sensors =
                            nullptr,
                        std::vector<CircuitBreaker> *health = nullptr);

    /** Abort the serve in progress on every shard (safe from any
     * thread, including the on_frame hook). */
    void requestStop();

    /** Abort the serve in progress on one shard only; the other
     * shards keep draining their sub-streams. Sticky for the serve
     * in progress (a stop that races the shard's pipeline startup
     * still truncates it at its first emission); cleared, like
     * requestStop(), on the next serve(). */
    void requestStopShard(std::size_t shard);

    /**
     * Resize the fleet to @p shards active replicas (>= 1). Must
     * not race a serve in progress (fatal if it does). Shrinking
     * parks replicas [shards, current); growing reactivates parked
     * replicas (their stop latches cleared) and constructs new ones
     * beyond the high-water mark, with backend names cycling
     * through Config::backends.
     */
    void setShardCount(std::size_t shards);

    /** @return number of active shards (dynamic; Config::shards is
     * only the initial size). */
    std::size_t shardCount() const { return active; }

    /** @return shard @p shard's execution backend. */
    const ExecutionBackend &shardBackend(std::size_t shard) const;

    /**
     * @return per-shard modeled service seconds of the active
     * fleet, each > 0 (fatal otherwise): Config::assumedServiceSec
     * when set, else each shard's backend cost-model estimate
     * (ExecutionBackend::estimateServiceSec). The one source of
     * service times for LeastLoaded placement, fault deadlines and
     * ElasticRunner's admission capacity. Every shard is built from
     * the same engine config and spec, so same-named backends
     * estimate identically: each distinct name is probed once.
     */
    std::vector<double> shardServiceSec() const;

    /** @return backend registry name of shard @p s, active, parked
     * or not yet built: Config::backends cycled, "hgpcn" when
     * empty. */
    std::string backendNameFor(std::size_t s) const;

    /** @return serving parameters. */
    const Config &config() const { return cfg; }

  private:
    /** One shard: a full replica of the single-runner stack, on
     * its named execution backend. */
    struct Shard
    {
        PreprocessingEngine preprocess;
        PointNet2 model;
        std::unique_ptr<ExecutionBackend> backend;
        StreamRunner runner;
        /** Per-shard stop latch for the serve in progress — the
         * runner's own stop flag resets on run() entry, so a stop
         * racing that entry must be re-asserted from the per-frame
         * hook. */
        std::atomic<bool> stopRequested{false};

        Shard(const HgPcnSystem::Config &system,
              const PointNet2Spec &spec,
              const std::string &backend_name,
              const StreamRunner::Config &runner_cfg);
    };

    Config cfg;
    HgPcnSystem::Config system;     //!< for deferred shard builds
    PointNet2Spec spec;             //!< for deferred shard builds
    StreamRunner::Config runnerCfg; //!< resolved (nonzero K)
    std::atomic<bool> stopped{false};
    std::atomic<bool> serving{false};
    /** Every replica ever built; fleet[0, active) is the live
     * fleet, the rest are parked by setShardCount(). */
    std::vector<std::unique_ptr<Shard>> fleet;
    std::size_t active = 0;
};

} // namespace hgpcn

#endif // HGPCN_SERVING_SHARDED_RUNNER_H
