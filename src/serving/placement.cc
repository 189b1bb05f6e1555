#include "serving/placement.h"

#include <algorithm>
#include <deque>

#include "common/logging.h"

namespace hgpcn
{

const char *
placementPolicyName(PlacementPolicy policy)
{
    switch (policy) {
      case PlacementPolicy::RoundRobin:
        return "round-robin";
      case PlacementPolicy::HashBySensor:
        return "hash-by-sensor";
      case PlacementPolicy::LeastLoaded:
        return "least-loaded";
    }
    return "?";
}

std::uint64_t
placementHash(std::size_t sensor)
{
    std::uint64_t x =
        static_cast<std::uint64_t>(sensor) + 0x9e3779b97f4a7c15ULL;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

namespace
{

std::vector<std::size_t>
assignLeastLoaded(const SensorStream &stream,
                  std::size_t shard_count,
                  const std::vector<double> &service_sec)
{
    // Each shard is modeled as one serial server: an assigned frame
    // starts when the shard's previous frame retires (or at its own
    // arrival) and occupies the shard for that shard's service
    // time. Backlog at time t = assigned frames not yet retired;
    // join the shortest.
    std::vector<std::deque<double>> retire_at(shard_count);
    std::vector<std::size_t> assignment(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const double t = stream.frames[i].timestamp;
        std::size_t best = 0;
        for (std::size_t s = 0; s < shard_count; ++s) {
            while (!retire_at[s].empty() && retire_at[s].front() <= t)
                retire_at[s].pop_front();
            if (retire_at[s].size() < retire_at[best].size())
                best = s;
        }
        const double start =
            retire_at[best].empty()
                ? t
                : std::max(t, retire_at[best].back());
        retire_at[best].push_back(start + service_sec[best]);
        assignment[i] = best;
    }
    return assignment;
}

} // namespace

std::vector<std::size_t>
assignShards(const SensorStream &stream, std::size_t shard_count,
             PlacementPolicy policy,
             const std::vector<double> &service_sec_per_shard)
{
    HGPCN_ASSERT(shard_count >= 1, "need at least one shard");
    HGPCN_ASSERT(stream.frames.size() == stream.sensors.size(),
                 "frames/sensors tags out of sync: ",
                 stream.frames.size(), " vs ",
                 stream.sensors.size());
    HGPCN_ASSERT(service_sec_per_shard.empty() ||
                     service_sec_per_shard.size() == shard_count,
                 "per-shard service times (",
                 service_sec_per_shard.size(),
                 ") must match the shard count (", shard_count, ")");
    for (const std::size_t sensor : stream.sensors) {
        HGPCN_ASSERT(sensor < stream.sensorCount,
                     "sensor tag ", sensor, " out of range (",
                     stream.sensorCount, " sensors)");
    }

    std::vector<std::size_t> assignment(stream.size());
    switch (policy) {
      case PlacementPolicy::RoundRobin:
        for (std::size_t i = 0; i < stream.size(); ++i)
            assignment[i] = i % shard_count;
        break;
      case PlacementPolicy::HashBySensor:
        for (std::size_t i = 0; i < stream.size(); ++i)
            assignment[i] = static_cast<std::size_t>(
                placementHash(stream.sensors[i]) % shard_count);
        break;
      case PlacementPolicy::LeastLoaded:
        HGPCN_ASSERT(service_sec_per_shard.size() == shard_count,
                     "LeastLoaded needs one service time per shard");
        for (const double svc : service_sec_per_shard) {
            HGPCN_ASSERT(svc > 0.0, "LeastLoaded service time (",
                         svc, ") must be positive");
        }
        assignment = assignLeastLoaded(stream, shard_count,
                                       service_sec_per_shard);
        break;
    }
    return assignment;
}

} // namespace hgpcn
