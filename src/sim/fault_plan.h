/**
 * @file
 * FaultPlan: seeded, virtual-timeline-driven fault injection.
 *
 * A production fleet sees faults a cycle model never emits: a shard
 * crashes for a while, a device degrades, an inference pass returns
 * a transient error. A FaultPlan scripts exactly those events on the
 * *virtual* timeline — crash windows, slowdown (hang) windows and
 * per-backend transient infer-error probabilities — as a pure
 * function of (config, seed), so a faulted run replays bit for bit
 * on any machine, the same property every other modeled quantity in
 * this repo has.
 *
 * The plan is consulted at dispatch time by the serving layer
 * (serving/failover.h): every fault outcome — which attempt errors,
 * how much backoff a frame pays, whether a shard is down when a
 * frame arrives — is decided from the frame's arrival stamp and a
 * keyed splitmix64 draw, *before* the functional pipeline runs.
 * The resolved per-frame FrameFaultDirective is then charged as
 * virtual time by the runtime stages. A default-constructed (empty)
 * plan is inert: every directive is clean, and a clean directive
 * charges no time and changes no output.
 */

#ifndef HGPCN_SIM_FAULT_PLAN_H
#define HGPCN_SIM_FAULT_PLAN_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace hgpcn
{

/**
 * Resolved fault outcome for one frame, produced by the serving
 * layer's dispatch-time resolution (serving/failover.h) and charged
 * by the runtime stages as virtual time. The default value is the
 * clean directive: one attempt, no backoff, full fidelity — a
 * runner fed clean directives schedules byte-identically to one fed
 * none at all.
 */
struct FrameFaultDirective
{
    /** Inference attempts charged to the device (1 = clean; each
     * failed attempt re-occupies the device for a full service). */
    std::uint32_t attempts = 1;

    /** Total deterministic exponential backoff charged between
     * attempts, virtual seconds. */
    double backoffSec = 0.0;

    /** Service-time multiplier from hang/slowdown windows (>= 1). */
    double slowdownMult = 1.0;

    /** true: the frame exhausted its retries or deadline — it still
     * occupies the device for the modeled attempts but delivers no
     * output (counted framesFailed, excluded from completions). */
    bool failed = false;

    /** true: served at reduced fidelity (graceful degradation). */
    bool degraded = false;

    /** Reduced sample budget for degraded frames (points after
     * down-sampling); 0 = the configured full budget. */
    std::size_t samplePoints = 0;

    /** @return true when the directive changes nothing. */
    bool
    clean() const
    {
        return attempts == 1 && backoffSec == 0.0 &&
               slowdownMult == 1.0 && !failed && !degraded &&
               samplePoints == 0;
    }
};

/** A shard is down for [startSec, endSec) of the virtual timeline:
 * frames arriving in the window cannot be served there and fail
 * over to surviving shards. */
struct ShardCrashWindow
{
    std::size_t shard = 0;
    double startSec = 0.0;
    double endSec = 0.0;
};

/** A shard serves, but slower, for [startSec, endSec): every frame
 * dispatched to it in the window is charged multiplier x its
 * modeled inference service time (a hang / thermal-throttle /
 * contention episode). */
struct ShardSlowdownWindow
{
    std::size_t shard = 0;
    double startSec = 0.0;
    double endSec = 0.0;
    double multiplier = 1.0;
};

/** Transient infer-error probability for one backend family over
 * [startSec, endSec) — an error storm. Empty backend name matches
 * every backend. */
struct TransientErrorWindow
{
    /** Registry name ("hgpcn", ...); empty = all backends. */
    std::string backend;
    /** Per-attempt error probability in [0, 1]. */
    double rate = 0.0;
    double startSec = 0.0;
    double endSec = std::numeric_limits<double>::infinity();
};

/** The scripted fault schedule (see file header). */
class FaultPlan
{
  public:
    struct Config
    {
        /** Seed of the keyed transient-error draws; same (config,
         * seed) => bit-identical fault outcomes. */
        std::uint64_t seed = 0;

        std::vector<ShardCrashWindow> crashes;
        std::vector<ShardSlowdownWindow> slowdowns;
        std::vector<TransientErrorWindow> errors;
    };

    /** The empty (inert) plan. */
    FaultPlan() = default;

    explicit FaultPlan(const Config &config);

    /** @return true when the plan injects nothing — the serving
     * layer then skips fault resolution and every frame keeps the
     * clean directive. */
    bool empty() const;

    /** @return true when @p shard is crashed at virtual time @p t
     * (half-open windows: start <= t < end). */
    bool shardCrashed(std::size_t shard, double t) const;

    /** @return product of the slowdown multipliers active on
     * @p shard at @p t (1.0 when none). */
    double slowdown(std::size_t shard, double t) const;

    /** @return per-attempt transient-error probability for
     * @p backend at @p t: the max over matching windows. */
    double errorRate(const std::string &backend, double t) const;

    /**
     * Keyed deterministic draw: does attempt @p attempt of frame
     * @p frame (global stream index) on (@p backend, @p shard)
     * suffer a transient infer error at virtual time @p t?
     *
     * Pure: splitmix64 over (seed, backend hash, shard, frame,
     * attempt) against errorRate(backend, t). Independent of
     * execution order, thread count and platform.
     */
    bool transientError(const std::string &backend,
                        std::size_t shard, std::size_t frame,
                        std::uint32_t attempt, double t) const;

    const Config &config() const { return cfg; }

  private:
    Config cfg;
};

} // namespace hgpcn

#endif // HGPCN_SIM_FAULT_PLAN_H
