/**
 * @file
 * Tests for the spatial-hash KNN index (src/knn) and the frame
 * workspace arena (core/frame_workspace.h).
 *
 * The load-bearing pin: SpatialHashKnn returns *exactly* the
 * neighbor lists of the brute-force oracle — same indices, same
 * order, under the deterministic (distSq, index) tie-break — across
 * uniform, clustered (LiDAR-like), degenerate and KITTI-scale
 * clouds. Figure reproductions lean on this: the fast host path
 * must never change a functional result or a modeled workload.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/frame_workspace.h"
#include "gather/brute_gatherers.h"
#include "knn/spatial_hash_knn.h"
#include "knn/top_k.h"
#include "nn/pointnet2.h"

namespace hgpcn
{
namespace
{

PointCloud
randomCloud(std::size_t n, std::uint64_t seed)
{
    PointCloud cloud;
    cloud.reserve(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                   rng.uniform(0.0f, 1.0f)});
    }
    return cloud;
}

/** LiDAR-ish pathology: dense clusters + sparse background (what
 * blows up naive ring expansion — docs/PERFORMANCE.md). */
PointCloud
clusteredCloud(std::size_t n, std::uint64_t seed)
{
    PointCloud cloud;
    cloud.reserve(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 4 == 0) {
            cloud.add({rng.uniform(0.0f, 1.0f),
                       rng.uniform(0.0f, 1.0f),
                       rng.uniform(0.0f, 1.0f)});
        } else {
            // tight cluster near one of two anchors
            const bool a = i % 8 < 4;
            const float cx = a ? 0.1f : 0.9f;
            cloud.add({cx + rng.uniform(-0.005f, 0.005f),
                       cx + rng.uniform(-0.005f, 0.005f),
                       cx + rng.uniform(-0.005f, 0.005f)});
        }
    }
    return cloud;
}

std::vector<PointIndex>
someCentrals(std::size_t n, std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<PointIndex> centrals(count);
    for (auto &c : centrals)
        c = static_cast<PointIndex>(rng.below(n));
    return centrals;
}

/** Oracle for arbitrary-position queries: full scan + selectTopK
 * (identical tie-break). */
std::vector<PointIndex>
bruteAt(const PointCloud &cloud, std::span<const Vec3> queries,
        std::size_t k)
{
    std::vector<PointIndex> out;
    std::vector<ScoredNeighbor> scored(cloud.size());
    for (const Vec3 &q : queries) {
        for (std::size_t i = 0; i < cloud.size(); ++i) {
            scored[i] = {
                cloud.position(static_cast<PointIndex>(i)).distSq(q),
                static_cast<PointIndex>(i)};
        }
        selectTopK(scored, k);
        for (std::size_t j = 0; j < std::min(k, scored.size()); ++j)
            out.push_back(scored[j].second);
    }
    return out;
}

void
expectMatchesBrute(const PointCloud &cloud, std::size_t centrals_n,
                   std::size_t k, std::uint64_t seed)
{
    const auto centrals =
        someCentrals(cloud.size(), centrals_n, seed);
    BruteKnn oracle(cloud);
    const GatherResult expect = oracle.gather(centrals, k);
    SpatialHashKnn index(cloud.positions());
    const GatherResult got = index.gather(centrals, k);
    ASSERT_EQ(got.k, expect.k);
    ASSERT_EQ(got.neighbors, expect.neighbors)
        << "n=" << cloud.size() << " k=" << k << " seed=" << seed;
}

// ------------------------------------------------ equality pins

TEST(SpatialHashKnn, MatchesBruteOnRandomClouds)
{
    for (const std::size_t n : {200u, 1024u, 4096u}) {
        for (const std::size_t k : {1u, 3u, 32u}) {
            expectMatchesBrute(randomCloud(n, n + k), 64, k, n * k);
        }
    }
}

TEST(SpatialHashKnn, MatchesBruteOnClusteredClouds)
{
    for (const std::size_t k : {3u, 32u, 64u})
        expectMatchesBrute(clusteredCloud(2048, 11), 128, k, k);
}

TEST(SpatialHashKnn, MatchesBruteAtKittiScale)
{
    expectMatchesBrute(randomCloud(16384, 5), 256, 32, 7);
}

TEST(SpatialHashKnn, MatchesBruteOnCoincidentPoints)
{
    // All points identical: every distance ties, so the ordering is
    // purely the index tie-break.
    PointCloud cloud;
    for (int i = 0; i < 300; ++i)
        cloud.add({0.5f, 0.5f, 0.5f});
    expectMatchesBrute(cloud, 16, 7, 3);
}

TEST(SpatialHashKnn, SinglePointCloud)
{
    PointCloud cloud;
    cloud.add({0.25f, 0.5f, 0.75f});
    SpatialHashKnn index(cloud.positions());
    const std::vector<Vec3> q{{0.9f, 0.9f, 0.9f}};
    const GatherResult got = index.gatherAt(q, 1);
    ASSERT_EQ(got.k, 1u);
    EXPECT_EQ(got.neighbors, std::vector<PointIndex>{0});
}

TEST(SpatialHashKnn, KClampsToCloudSize)
{
    const PointCloud cloud = randomCloud(5, 2);
    SpatialHashKnn index(cloud.positions());
    const std::vector<Vec3> q{{0.1f, 0.2f, 0.3f}};
    // k == n and k > n both return all 5 points, closest first.
    for (const std::size_t k : {5u, 9u}) {
        const GatherResult got = index.gatherAt(q, k);
        EXPECT_EQ(got.k, 5u);
        EXPECT_EQ(got.neighbors.size(), 5u);
        EXPECT_EQ(got.neighbors, bruteAt(cloud, q, 5));
    }
}

TEST(SpatialHashKnn, ArbitraryQueriesMatchOracle)
{
    const PointCloud cloud = clusteredCloud(1500, 23);
    Rng rng(31);
    std::vector<Vec3> queries(200);
    for (auto &q : queries) {
        // include queries outside the indexed bounds
        q = {rng.uniform(-0.5f, 1.5f), rng.uniform(-0.5f, 1.5f),
             rng.uniform(-0.5f, 1.5f)};
    }
    SpatialHashKnn index(cloud.positions());
    const GatherResult got = index.gatherAt(queries, 3);
    EXPECT_EQ(got.neighbors, bruteAt(cloud, queries, 3));
}

TEST(SpatialHashKnn, WorkspaceBackedMatchesOwnedBuffers)
{
    const PointCloud cloud = randomCloud(3000, 17);
    const auto centrals = someCentrals(3000, 128, 19);
    FrameWorkspace ws;
    ws.beginFrame();
    SpatialHashKnn pooled(cloud.positions(), &ws);
    SpatialHashKnn owned(cloud.positions());
    EXPECT_EQ(pooled.gather(centrals, 16).neighbors,
              owned.gather(centrals, 16).neighbors);
}

// ------------------------------------------------ accounting

TEST(SpatialHashKnn, ModeledBruteAccountingEqualsBruteCounters)
{
    const PointCloud cloud = randomCloud(2048, 3);
    const auto centrals = someCentrals(2048, 100, 4);
    BruteKnn oracle(cloud);
    const GatherResult expect = oracle.gather(centrals, 8);
    SpatialHashKnn index(cloud.positions());
    const GatherResult got = index.gather(
        centrals, 8, SpatialHashKnn::Accounting::ModeledBrute);
    // The modeled device still runs its data-independent full scan:
    // identical workload counters, so every cycle model is blind to
    // the host-side shortcut.
    EXPECT_EQ(got.stats.get("gather.distance_computations"),
              expect.stats.get("gather.distance_computations"));
    EXPECT_EQ(got.stats.get("gather.sort_candidates"),
              expect.stats.get("gather.sort_candidates"));
}

TEST(SpatialHashKnn, NativeAccountingShowsTheReduction)
{
    const PointCloud cloud = randomCloud(8192, 13);
    const auto centrals = someCentrals(8192, 256, 14);
    SpatialHashKnn index(cloud.positions());
    ASSERT_TRUE(index.usesGrid());
    const GatherResult got = index.gather(
        centrals, 16, SpatialHashKnn::Accounting::Native);
    const std::uint64_t brute_dists =
        static_cast<std::uint64_t>(centrals.size()) * 8192;
    EXPECT_LT(got.stats.get("gather.distance_computations"),
              brute_dists / 4);
    EXPECT_GT(got.stats.get("gather.cells_visited"), 0u);
}

TEST(SpatialHashKnn, TinyCloudsFallBackToBruteScan)
{
    const PointCloud cloud = randomCloud(64, 9);
    SpatialHashKnn index(cloud.positions());
    EXPECT_FALSE(index.usesGrid());
    expectMatchesBrute(cloud, 16, 3, 21);
}

// ------------------------------------------------ E2E pin

TEST(SpatialHashKnn, PointNet2FastPathMatchesOracleBitForBit)
{
    // The whole reason the index may serve DsMethod::BruteKnn:
    // logits, labels and the recorded trace must be exactly those
    // of the oracle kernel.
    const PointNet2Spec spec = PointNet2Spec::classification(10);
    PointNet2 tiny(spec, 42);
    const PointCloud input = randomCloud(1024, 77);

    RunOptions fast;
    fast.ds = DsMethod::BruteKnn;
    fast.fastKnn = true;
    RunOptions oracle = fast;
    oracle.fastKnn = false;

    const RunOutput a = tiny.run(input, fast);
    const RunOutput b = tiny.run(input, oracle);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.logits.data(), b.logits.data());
    ASSERT_EQ(a.trace.gathers.size(), b.trace.gathers.size());
    EXPECT_EQ(a.trace.totalGatherDistances(),
              b.trace.totalGatherDistances());
    EXPECT_EQ(a.trace.totalSortCandidates(),
              b.trace.totalSortCandidates());
}

TEST(SpatialHashKnn, SegmentationFpLookupsMatchOracleBitForBit)
{
    // The segmentation twin: the Feature-Propagation 3-NN lookups
    // go through the index too, so the per-point logits pin them
    // against the oracle's full scan. The 1024- and 256-point
    // coarse levels are above the brute threshold, so the grid
    // path serves them.
    PointNet2Spec spec = PointNet2Spec::semanticSegmentation(6);
    spec.inputPoints = 2048;
    PointNet2 net(spec, 42);
    const PointCloud input = randomCloud(2048, 78);

    RunOptions fast;
    fast.ds = DsMethod::BruteKnn;
    fast.fastKnn = true;
    RunOptions oracle = fast;
    oracle.fastKnn = false;

    const RunOutput a = net.run(input, fast);
    const RunOutput b = net.run(input, oracle);
    ASSERT_EQ(a.logits.rows(), 2048u);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.logits.data(), b.logits.data());
    // 4 SA gathers + 4 FP 3-NN gathers.
    ASSERT_EQ(a.trace.gathers.size(), 8u);
    ASSERT_EQ(b.trace.gathers.size(), 8u);
    EXPECT_EQ(a.trace.totalGatherDistances(),
              b.trace.totalGatherDistances());
    EXPECT_EQ(a.trace.totalSortCandidates(),
              b.trace.totalSortCandidates());
}

// ------------------------------------------------ workspace arena

TEST(FrameWorkspace, ArenaReusesBuffersAcrossFrames)
{
    FrameWorkspace ws;
    const std::uint64_t before = FrameWorkspace::backingGrowths();
    ws.beginFrame();
    ws.tensor(128, 16);
    ws.positions(64);
    ws.indices(32);
    const std::uint64_t after_first =
        FrameWorkspace::backingGrowths();
    EXPECT_GT(after_first, before);
    // Same shapes next frame: no new backing allocations.
    for (int frame = 0; frame < 5; ++frame) {
        ws.beginFrame();
        ws.tensor(128, 16);
        ws.positions(64);
        ws.indices(32);
    }
    EXPECT_EQ(FrameWorkspace::backingGrowths(), after_first);
}

TEST(FrameWorkspace, PoolLeasesAreExclusiveAndReturn)
{
    WorkspacePool pool;
    FrameWorkspace *first = nullptr;
    {
        WorkspacePool::Lease a = pool.acquire();
        WorkspacePool::Lease b = pool.acquire();
        EXPECT_NE(a.get(), b.get());
        first = a.get();
    }
    EXPECT_EQ(pool.size(), 2u);
    // Released workspaces are reused, not re-created.
    WorkspacePool::Lease c = pool.acquire();
    WorkspacePool::Lease d = pool.acquire();
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_TRUE(c.get() == first || d.get() == first);
}

} // namespace
} // namespace hgpcn
