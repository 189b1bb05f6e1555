#include "datasets/traffic_gen.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace hgpcn
{
namespace
{

/** SplitMix64 finalizer: decorrelates (seed, sensor, salt) keys so
 * every sensor draws from an independent deterministic stream,
 * regardless of generation order. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

Rng
keyedRng(std::uint64_t seed, std::uint64_t sensor, std::uint64_t salt)
{
    return Rng(mix(seed ^ mix(sensor * 0x632be59bd9b4e019ull ^
                              salt * 0x2545f4914f6cdd1dull)));
}

/** Salts naming the independent per-sensor decision streams. */
enum : std::uint64_t
{
    kSaltChurn = 1,
    kSaltPriority = 2,
    kSaltBurstPhase = 3,
    kSaltArrivals = 4,
    kSaltCloud = 5,
};

} // namespace

TrafficGen::TrafficGen(const Config &config) : cfg(config)
{
    HGPCN_ASSERT(cfg.sensors >= 1, "need at least one sensor");
    HGPCN_ASSERT(cfg.durationSec > 0.0, "duration must be positive");
    HGPCN_ASSERT(cfg.baseRateHz > 0.0, "base rate must be positive");
    HGPCN_ASSERT(cfg.rateJitter >= 0.0 && cfg.rateJitter < 1.0,
                 "rate jitter must be in [0, 1)");
    HGPCN_ASSERT(cfg.burstFactor >= 1.0,
                 "burst factor must be >= 1 (1 = no bursts)");
    HGPCN_ASSERT(cfg.burstDuty >= 0.0 && cfg.burstDuty < 1.0,
                 "burst duty must be in [0, 1)");
    HGPCN_ASSERT(cfg.burstPeriodSec > 0.0,
                 "burst period must be positive");
    HGPCN_ASSERT(cfg.diurnalAmplitude >= 0.0 &&
                     cfg.diurnalAmplitude < 1.0,
                 "diurnal amplitude must be in [0, 1)");
    HGPCN_ASSERT(cfg.diurnalPeriodSec > 0.0,
                 "diurnal period must be positive");
    HGPCN_ASSERT(cfg.hotPlugFraction >= 0.0 &&
                     cfg.hotPlugFraction <= 1.0,
                 "hot-plug fraction must be in [0, 1]");
    HGPCN_ASSERT(cfg.dropFraction >= 0.0 && cfg.dropFraction <= 1.0,
                 "drop fraction must be in [0, 1]");
    HGPCN_ASSERT(cfg.priorityTiers >= 1,
                 "need at least one priority tier");
    HGPCN_ASSERT(cfg.cloudPoints >= 1,
                 "frames need at least one point");
}

double
TrafficGen::burstPhaseOf(std::size_t sensor) const
{
    Rng rng = keyedRng(cfg.seed, sensor, kSaltBurstPhase);
    return rng.uniform() * cfg.burstPeriodSec;
}

double
TrafficGen::joinSecOf(std::size_t sensor) const
{
    Rng rng = keyedRng(cfg.seed, sensor, kSaltChurn);
    const bool plugs = rng.uniform() < cfg.hotPlugFraction;
    const double at =
        cfg.durationSec * (0.10 + 0.40 * rng.uniform());
    return plugs ? at : 0.0;
}

double
TrafficGen::leaveSecOf(std::size_t sensor) const
{
    Rng rng = keyedRng(cfg.seed, sensor, kSaltChurn);
    (void)rng.uniform(); // hot-plug decision draw
    (void)rng.uniform(); // hot-plug time draw
    const bool drops = rng.uniform() < cfg.dropFraction;
    const double at =
        cfg.durationSec * (0.50 + 0.40 * rng.uniform());
    return drops ? at : cfg.durationSec;
}

int
TrafficGen::priorityOf(std::size_t sensor) const
{
    Rng rng = keyedRng(cfg.seed, sensor, kSaltPriority);
    return static_cast<int>(rng.below(cfg.priorityTiers));
}

double
TrafficGen::rateAt(std::size_t sensor, double t) const
{
    HGPCN_ASSERT(sensor < cfg.sensors, "sensor ", sensor,
                 " out of range (", cfg.sensors, ")");
    if (t < joinSecOf(sensor) || t >= leaveSecOf(sensor))
        return 0.0;
    const double diurnal =
        1.0 + cfg.diurnalAmplitude *
                  std::sin(2.0 * 3.14159265358979323846 * t /
                           cfg.diurnalPeriodSec);
    const double x = std::fmod(t + burstPhaseOf(sensor),
                               cfg.burstPeriodSec) /
                     cfg.burstPeriodSec;
    const double burst = x < cfg.burstDuty ? cfg.burstFactor : 1.0;
    return cfg.baseRateHz * diurnal * burst;
}

double
TrafficGen::minRateHz() const
{
    return cfg.baseRateHz * (1.0 - cfg.diurnalAmplitude);
}

double
TrafficGen::maxRateHz() const
{
    return cfg.baseRateHz * (1.0 + cfg.diurnalAmplitude) *
           cfg.burstFactor;
}

TrafficTrace
TrafficGen::generate() const
{
    TrafficTrace trace;
    trace.priority.reserve(cfg.sensors);
    trace.joinSec.reserve(cfg.sensors);
    trace.leaveSec.reserve(cfg.sensors);

    std::vector<std::vector<Frame>> per_sensor(cfg.sensors);
    for (std::size_t s = 0; s < cfg.sensors; ++s) {
        trace.priority.push_back(priorityOf(s));
        trace.joinSec.push_back(joinSecOf(s));
        trace.leaveSec.push_back(leaveSecOf(s));

        const double join = trace.joinSec.back();
        const double leave = trace.leaveSec.back();
        Rng arrivals = keyedRng(cfg.seed, s, kSaltArrivals);
        // Start within the first nominal gap after joining so
        // same-rate sensors arrive phase-offset, not in lockstep.
        double t = join;
        {
            const double r0 = rateAt(s, join);
            if (r0 > 0.0)
                t += arrivals.uniform() / r0;
        }
        std::size_t index = 0;
        while (t < leave && t < cfg.durationSec) {
            Frame frame;
            frame.timestamp = t;
            frame.name = std::string("t")
                             .append(std::to_string(s))
                             .append(".")
                             .append(std::to_string(index));
            Rng cloud_rng = keyedRng(
                cfg.seed, s * 0x100000001b3ull + index, kSaltCloud);
            frame.cloud.reserve(cfg.cloudPoints);
            // 3:1 mix of box-uniform and clustered points: enough
            // spatial structure for the octree/sampling path while
            // staying cheap at city-scale sensor counts.
            const float cx = cloud_rng.uniform(2.0f, 8.0f);
            const float cy = cloud_rng.uniform(2.0f, 8.0f);
            const float cz = cloud_rng.uniform(0.5f, 2.0f);
            for (std::size_t p = 0; p < cfg.cloudPoints; ++p) {
                if (p % 4 == 0) {
                    frame.cloud.add(
                        {cx + cloud_rng.uniform(-0.5f, 0.5f),
                         cy + cloud_rng.uniform(-0.5f, 0.5f),
                         cz + cloud_rng.uniform(-0.5f, 0.5f)});
                } else {
                    frame.cloud.add(
                        {cloud_rng.uniform(0.0f, 10.0f),
                         cloud_rng.uniform(0.0f, 10.0f),
                         cloud_rng.uniform(0.0f, 3.0f)});
                }
            }
            per_sensor[s].push_back(std::move(frame));
            ++index;

            const double rate = rateAt(s, t);
            HGPCN_ASSERT(rate > 0.0, "active sensor with zero rate");
            double gap = 1.0 / rate;
            if (cfg.rateJitter > 0.0) {
                gap *= 1.0 + cfg.rateJitter *
                                 (2.0 * arrivals.uniform() - 1.0);
            }
            t += gap;
        }
    }

    // Distinct-stamp pass: cross-sensor stamp collisions are
    // measure-zero but fatal in the merge, so nudge any tie forward
    // by 0.1 us in global stamp order. The walk visits frames in
    // (stamp, sensor) order and only ever moves stamps forward, so
    // per-sensor capture order is preserved and the interleave
    // becomes strictly increasing — deterministically.
    std::vector<std::pair<double, std::pair<std::size_t,
                                            std::size_t>>> order;
    for (std::size_t s = 0; s < per_sensor.size(); ++s) {
        for (std::size_t f = 0; f < per_sensor[s].size(); ++f)
            order.push_back({per_sensor[s][f].timestamp, {s, f}});
    }
    std::sort(order.begin(), order.end());
    double prev = -1.0;
    for (auto &entry : order) {
        Frame &frame =
            per_sensor[entry.second.first][entry.second.second];
        if (frame.timestamp <= prev)
            frame.timestamp = prev + 1e-7;
        prev = frame.timestamp;
    }

    trace.stream = mergeSensorStreams(std::move(per_sensor));
    return trace;
}

} // namespace hgpcn
