#include "serving/failover.h"

#include <cmath>

#include "common/logging.h"

namespace hgpcn
{
namespace
{

/** Shard availability at virtual time @p t: outside every crash
 * window and breaker not reading Open. */
bool
shardAvailable(std::size_t shard, double t, const FaultPlan &plan,
               const std::vector<CircuitBreaker> &health)
{
    return !plan.shardCrashed(shard, t) &&
           health[shard].state(t) != BreakerState::Open;
}

} // namespace

FaultResolution
resolveFaultSchedule(const SensorStream &stream,
                     const std::vector<std::size_t> &assignment,
                     const std::vector<std::string> &backend_names,
                     const std::vector<double> &service_sec,
                     const FaultPlan &plan,
                     const FaultToleranceConfig &cfg,
                     std::vector<CircuitBreaker> &health)
{
    const std::size_t n_shards = backend_names.size();
    HGPCN_ASSERT(n_shards >= 1, "need at least one shard");
    HGPCN_ASSERT(assignment.size() == stream.size(),
                 "assignment/stream out of sync: ", assignment.size(),
                 " vs ", stream.size());
    HGPCN_ASSERT(service_sec.size() == n_shards,
                 "service_sec must hold one entry per shard");
    HGPCN_ASSERT(cfg.maxAttempts >= 1, "need at least one attempt");
    HGPCN_ASSERT(cfg.degradedSampleFraction > 0.0 &&
                     cfg.degradedSampleFraction <= 1.0,
                 "degradedSampleFraction (",
                 cfg.degradedSampleFraction, ") must be in (0, 1]");

    health.resize(n_shards, CircuitBreaker(cfg.breaker));

    FaultResolution res;
    res.assignment = assignment;
    res.directives.assign(stream.size(), FrameFaultDirective{});

    // Observable breaker state per shard, for transition records.
    std::vector<BreakerState> last(n_shards, BreakerState::Closed);
    for (std::size_t s = 0; s < n_shards; ++s)
        last[s] = health[s].state(0.0);

    const auto note = [&](std::size_t s, double t) {
        const BreakerState now = health[s].state(t);
        if (now != last[s]) {
            res.transitions.push_back({t, s, last[s], now});
            last[s] = now;
        }
    };

    // Current redirect target per sensor (-1 = serving at home).
    std::vector<std::ptrdiff_t> redirect(stream.sensorCount, -1);

    for (std::size_t i = 0; i < stream.size(); ++i) {
        const double t = stream.frames[i].timestamp;
        const std::size_t sensor = stream.sensors[i];
        const std::size_t home = assignment[i];
        HGPCN_ASSERT(home < n_shards, "frame ", i,
                     " assigned to shard ", home, " of ", n_shards);
        FrameFaultDirective &d = res.directives[i];

        note(home, t);

        // --- Placement: home when available, else fail over. ---
        std::size_t serving = home;
        if (shardAvailable(home, t, plan, health)) {
            if (redirect[sensor] >= 0) {
                res.failovers.push_back(
                    {t, sensor,
                     static_cast<std::size_t>(redirect[sensor]),
                     home});
                redirect[sensor] = -1;
            }
        } else {
            std::vector<std::size_t> survivors;
            for (std::size_t s = 0; s < n_shards; ++s) {
                if (shardAvailable(s, t, plan, health))
                    survivors.push_back(s);
            }
            if (survivors.empty()) {
                // Whole fleet down: the frame still flows through
                // its home pipeline (charged one service) but
                // delivers nothing.
                d.failed = true;
                d.slowdownMult = plan.slowdown(home, t);
                continue;
            }
            serving = survivors[sensor % survivors.size()];
            const std::size_t prev =
                redirect[sensor] >= 0
                    ? static_cast<std::size_t>(redirect[sensor])
                    : home;
            if (prev != serving) {
                res.failovers.push_back({t, sensor, prev, serving});
                redirect[sensor] =
                    static_cast<std::ptrdiff_t>(serving);
            }
            note(serving, t);
        }
        res.assignment[i] = serving;
        if (serving != home)
            ++res.framesRedirected;

        // --- Degradation: Half-Open probes run at reduced
        // fidelity (the caller fills the concrete budget). ---
        if (cfg.degradeOnHalfOpen &&
            health[serving].state(t) == BreakerState::HalfOpen)
            d.degraded = true;

        d.slowdownMult = plan.slowdown(serving, t);

        // --- Retry loop with deterministic backoff/deadline. ---
        const std::string &backend = backend_names[serving];
        const double svc = service_sec[serving] * d.slowdownMult;
        double backoff_next = cfg.backoffBaseSec;
        for (std::uint32_t a = 1;; ++a) {
            d.attempts = a;
            if (!plan.transientError(backend, serving, i, a, t)) {
                health[serving].onSuccess(t);
                break;
            }
            health[serving].onFailure(t);
            if (a >= cfg.maxAttempts) {
                d.failed = true;
                break;
            }
            if (cfg.deadlineSec > 0.0 &&
                static_cast<double>(a + 1) * svc + d.backoffSec +
                        backoff_next >
                    cfg.deadlineSec) {
                // The retry would blow the budget; fail now
                // without charging it.
                d.failed = true;
                break;
            }
            d.backoffSec += backoff_next;
            backoff_next *= cfg.backoffMultiplier;
        }
        note(serving, t);
    }
    return res;
}

} // namespace hgpcn
