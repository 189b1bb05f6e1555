/**
 * @file
 * Placement policies of the sharded serving layer: which shard a
 * tagged frame is dispatched to.
 *
 * All three policies are deterministic functions of the stream, so
 * serving reports stay exactly reproducible:
 *
 *  - RoundRobin spreads frames evenly, ignoring sensors: best raw
 *    balance, but a sensor's frames land on many shards, so its
 *    completion order is not preserved.
 *  - HashBySensor pins each sensor to one shard (affinity): a
 *    sensor's frames flow through a single FIFO pipeline, so its
 *    per-frame order is preserved end to end.
 *  - LeastLoaded joins the shortest queue: shard load is modeled at
 *    dispatch time as the outstanding assigned frames, each retiring
 *    after that shard's service time on its virtual clock (true
 *    queue depths live on the runtime's virtual timeline, which is
 *    only known after execution — the dispatch-time model is the
 *    deterministic stand-in a front-end would track). Service times
 *    are per shard, so a heterogeneous fleet (serving/sharded_runner.h)
 *    is modeled faithfully: a shard running a slower backend drains
 *    its backlog slower and is joined less often. The caller
 *    supplies the service times; ShardedRunner passes
 *    ShardedRunner::shardServiceSec(), each backend's cost-model
 *    estimate unless explicitly overridden.
 */

#ifndef HGPCN_SERVING_PLACEMENT_H
#define HGPCN_SERVING_PLACEMENT_H

#include <cstdint>
#include <vector>

#include "datasets/sensor_stream.h"

namespace hgpcn
{

/** How the dispatcher demultiplexes frames across shards. */
enum class PlacementPolicy
{
    RoundRobin,   //!< frame i -> shard i mod N
    HashBySensor, //!< sensor affinity; preserves per-sensor order
    LeastLoaded,  //!< join-shortest-queue on modeled backlog
};

/** @return human-readable policy name. */
const char *placementPolicyName(PlacementPolicy policy);

/** Stable sensor-id mix (splitmix64) behind HashBySensor. */
std::uint64_t placementHash(std::size_t sensor);

/**
 * Compute the shard of every frame in @p stream.
 *
 * @param stream Tagged multi-sensor stream (interleaved order).
 * @param shard_count Number of shards (>= 1).
 * @param policy Dispatch policy.
 * @param service_sec_per_shard LeastLoaded only (fatal unless it
 *        holds one entry > 0 per shard): modeled per-frame service
 *        time of each shard, after which an assigned frame retires
 *        from that shard's backlog — heterogeneous fleets pass
 *        each backend's cost-model estimate here. The other
 *        policies ignore it; when non-empty, its size must equal
 *        @p shard_count.
 * @return shard index per frame, parallel to stream.frames.
 */
std::vector<std::size_t>
assignShards(const SensorStream &stream, std::size_t shard_count,
             PlacementPolicy policy,
             const std::vector<double> &service_sec_per_shard = {});

} // namespace hgpcn

#endif // HGPCN_SERVING_PLACEMENT_H
