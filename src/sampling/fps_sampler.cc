#include "sampling/fps_sampler.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "core/frame_workspace.h"

namespace hgpcn
{

StatSet
FpsSampler::predictStats(std::uint64_t n, std::uint64_t k)
{
    HGPCN_ASSERT(k >= 1 && k <= n, "k=", k, " n=", n);
    StatSet stats;
    stats.set("sample.host_reads", 1 + (k - 1) * n);
    stats.set("sample.intermediate_reads", (k - 1) * n);
    // k = 1 only initializes the n minimum distances (exact).
    const double updates =
        static_cast<double>(n) *
        (1.0 + std::log(static_cast<double>(k)));
    stats.set("sample.intermediate_writes",
              k == 1 ? n : static_cast<std::uint64_t>(updates) + k);
    stats.set("sample.distance_computations", (k - 1) * n);
    return stats;
}

SampleResult
FpsSampler::sample(const PointCloud &cloud, std::size_t k)
{
    return sample(cloud, k, nullptr);
}

SampleResult
FpsSampler::sample(const PointCloud &cloud, std::size_t k,
                   FrameWorkspace *workspace)
{
    const std::size_t n = cloud.size();
    HGPCN_ASSERT(k >= 1 && k <= n, "k=", k, " n=", n);

    SampleResult result;
    result.indices.reserve(k);

    // Initialize the per-point minimum-distance array (intermediate
    // data written to memory, re-read every iteration).
    std::vector<float> own_min_dist;
    std::vector<float> &min_dist =
        workspace != nullptr ? workspace->sampling.minDist
                             : own_min_dist;
    if (workspace != nullptr)
        workspace->ensure(min_dist, n);
    min_dist.assign(n, std::numeric_limits<float>::max());

    // Workload counters, accumulated locally so the accounting does
    // not distort wall-clock measurements of the algorithm itself.
    std::uint64_t host_reads = 1; // seed point
    std::uint64_t inter_reads = 0;
    std::uint64_t inter_writes = n; // min_dist initialization
    std::uint64_t dist_computes = 0;

    Rng rng(rng_seed);
    PointIndex last = static_cast<PointIndex>(rng.below(n));
    result.indices.push_back(last);

    const Vec3 *pos = cloud.positions().data();
    for (std::size_t pick = 1; pick < k; ++pick) {
        const Vec3 anchor = pos[last];
        PointIndex best = 0;
        float best_dist = -1.0f;
        for (std::size_t i = 0; i < n; ++i) {
            // Read the candidate point and its cached distance.
            const float d = pos[i].distSq(anchor);
            if (d < min_dist[i]) {
                min_dist[i] = d;
                ++inter_writes;
            }
            if (min_dist[i] > best_dist) {
                best_dist = min_dist[i];
                best = static_cast<PointIndex>(i);
            }
        }
        host_reads += n;
        inter_reads += n;
        dist_computes += n;
        last = best;
        min_dist[best] = -2.0f; // never picked again
        ++inter_writes;
        result.indices.push_back(last);
    }

    result.stats.set("sample.host_reads", host_reads);
    result.stats.set("sample.intermediate_reads", inter_reads);
    result.stats.set("sample.intermediate_writes", inter_writes);
    result.stats.set("sample.distance_computations", dist_computes);
    return result;
}

SampleResult
NaiveFpsSampler::sample(const PointCloud &cloud, std::size_t k)
{
    const std::size_t n = cloud.size();
    HGPCN_ASSERT(k >= 1 && k <= n, "k=", k, " n=", n);

    SampleResult result;
    result.indices.reserve(k);

    std::vector<float> dist(n);
    std::vector<std::uint8_t> picked(n, 0);

    std::uint64_t host_reads = 1;
    std::uint64_t inter_reads = 0;
    std::uint64_t inter_writes = 0;
    std::uint64_t dist_computes = 0;

    Rng rng(rng_seed);
    const PointIndex seed = static_cast<PointIndex>(rng.below(n));
    result.indices.push_back(seed);
    picked[seed] = 1;

    const Vec3 *pos = cloud.positions().data();
    for (std::size_t pick = 1; pick < k; ++pick) {
        // Recompute min-distance-to-S for every point, writing the
        // whole distance array back to memory.
        for (std::size_t i = 0; i < n; ++i) {
            float best = std::numeric_limits<float>::max();
            for (const PointIndex s : result.indices) {
                const float d = pos[i].distSq(pos[s]);
                if (d < best)
                    best = d;
            }
            dist[i] = best;
        }
        host_reads += n * result.indices.size();
        dist_computes += n * result.indices.size();
        inter_writes += n;

        // Read the array back and rank for the farthest point.
        PointIndex best_idx = 0;
        float best_dist = -1.0f;
        for (std::size_t i = 0; i < n; ++i) {
            if (!picked[i] && dist[i] > best_dist) {
                best_dist = dist[i];
                best_idx = static_cast<PointIndex>(i);
            }
        }
        inter_reads += n;

        picked[best_idx] = 1;
        result.indices.push_back(best_idx);
    }

    result.stats.set("sample.host_reads", host_reads);
    result.stats.set("sample.intermediate_reads", inter_reads);
    result.stats.set("sample.intermediate_writes", inter_writes);
    result.stats.set("sample.distance_computations", dist_computes);
    return result;
}

} // namespace hgpcn
