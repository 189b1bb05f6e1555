/**
 * @file
 * Tests for the down-sampling library: FPS (Alg. 1), RS, OIS-FPS
 * (Alg. 2), approximate OIS and the quality metrics. Includes the
 * paper's key claims as properties: OIS quality ~ FPS quality >> RS
 * quality, and OIS memory accesses << FPS memory accesses.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "sampling/approx_ois_sampler.h"
#include "sampling/fps_sampler.h"
#include "sampling/metrics.h"
#include "sampling/ois_fps_sampler.h"
#include "sampling/random_sampler.h"

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

void
expectValidSample(const SampleResult &result, std::size_t n,
                  std::size_t k)
{
    ASSERT_EQ(result.indices.size(), k);
    std::set<PointIndex> unique(result.indices.begin(),
                                result.indices.end());
    EXPECT_EQ(unique.size(), k) << "duplicate picks";
    for (PointIndex i : result.indices)
        EXPECT_LT(i, n);
}

// ------------------------------------------------------------- FPS

TEST(Fps, ProducesKDistinctPoints)
{
    const PointCloud cloud = randomCloud(500, 1);
    FpsSampler fps(1);
    expectValidSample(fps.sample(cloud, 50), 500, 50);
}

TEST(Fps, Deterministic)
{
    const PointCloud cloud = randomCloud(300, 2);
    FpsSampler a(7), b(7);
    EXPECT_EQ(a.sample(cloud, 40).indices, b.sample(cloud, 40).indices);
}

TEST(Fps, SecondPickIsGlobalFarthest)
{
    PointCloud cloud;
    cloud.add({0, 0, 0});
    cloud.add({0.1f, 0, 0});
    cloud.add({1, 1, 1}); // farthest from everything else
    cloud.add({0.2f, 0.1f, 0});
    const auto result = FpsSampler(1).sample(cloud, 2);
    // Whatever the seed, the second pick must be the far corner
    // unless the seed itself was the corner.
    const bool corner_in = result.indices[0] == 2 ||
                           result.indices[1] == 2;
    EXPECT_TRUE(corner_in);
}

TEST(Fps, KEqualsNSelectsEverything)
{
    const PointCloud cloud = randomCloud(30, 3);
    const auto result = FpsSampler(1).sample(cloud, 30);
    expectValidSample(result, 30, 30);
}

TEST(Fps, MemoryAccessCountersScaleWithNK)
{
    const PointCloud cloud = randomCloud(400, 4);
    const auto result = FpsSampler(1).sample(cloud, 20);
    // (k-1) iterations re-read all n points.
    EXPECT_EQ(result.stats.get("sample.host_reads"),
              1u + 19u * 400u);
    EXPECT_EQ(result.stats.get("sample.intermediate_reads"),
              19u * 400u);
    EXPECT_GE(result.stats.get("sample.intermediate_writes"), 400u);
}

// predictStats() stands in for sample() in the benches that cannot
// afford the O(n * k) scan: its exact counters must equal a real
// run's, and its expected update count must stay near the real one.
TEST(Fps, PredictStatsMatchesARealRun)
{
    const PointCloud cloud = randomCloud(2000, 12);
    for (const std::size_t k : {1u, 2u, 64u}) {
        SCOPED_TRACE(testing::Message() << "k " << k);
        const StatSet real = FpsSampler(1).sample(cloud, k).stats;
        const StatSet predicted = FpsSampler::predictStats(cloud.size(), k);
        for (const char *exact :
             {"sample.host_reads", "sample.intermediate_reads",
              "sample.distance_computations"})
            EXPECT_EQ(predicted.get(exact), real.get(exact)) << exact;
        // k = 1 only initializes, so its writes are exact. Measured
        // predicted/real on this cloud: 0.85 (k = 2), 0.98 (k = 64).
        if (k == 1) {
            EXPECT_EQ(predicted.get("sample.intermediate_writes"),
                      real.get("sample.intermediate_writes"));
            continue;
        }
        const double ratio =
            static_cast<double>(
                predicted.get("sample.intermediate_writes")) /
            static_cast<double>(real.get("sample.intermediate_writes"));
        EXPECT_GE(ratio, 0.8);
        EXPECT_LE(ratio, 1.1);
    }
}

TEST(Fps, CoverageShrinksWithMoreSamples)
{
    const PointCloud cloud = randomCloud(600, 5);
    FpsSampler fps(1);
    const auto small = fps.sample(cloud, 8);
    const auto large = fps.sample(cloud, 64);
    EXPECT_LT(coverageRadius(cloud, large.indices),
              coverageRadius(cloud, small.indices));
}

// -------------------------------------------------------------- RS

TEST(RandomSampler, ProducesKDistinctPoints)
{
    const PointCloud cloud = randomCloud(500, 6);
    RandomSampler rs(3);
    expectValidSample(rs.sample(cloud, 100), 500, 100);
}

TEST(RandomSampler, Deterministic)
{
    const PointCloud cloud = randomCloud(200, 7);
    RandomSampler a(9), b(9);
    EXPECT_EQ(a.sample(cloud, 50).indices, b.sample(cloud, 50).indices);
}

TEST(RandomSampler, CheapCounters)
{
    const PointCloud cloud = randomCloud(1000, 8);
    const auto result = RandomSampler(1).sample(cloud, 64);
    EXPECT_EQ(result.stats.get("sample.host_reads"), 64u);
    EXPECT_EQ(result.stats.get("sample.distance_computations"), 0u);
}

TEST(ReinforcedRandomSampler, AddsEncoderCost)
{
    const PointCloud cloud = randomCloud(1000, 9);
    const auto result = ReinforcedRandomSampler(1).sample(cloud, 64);
    expectValidSample(result, 1000, 64);
    EXPECT_EQ(result.stats.get("sample.encoder_macs"),
              1000u * ReinforcedRandomSampler::kEncoderMacsPerPoint);
}

// ------------------------------------------------------------- OIS

TEST(Ois, ProducesKDistinctPoints)
{
    const PointCloud cloud = randomCloud(800, 10);
    OisFpsSampler ois;
    expectValidSample(ois.sample(cloud, 100), 800, 100);
}

TEST(Ois, Deterministic)
{
    const PointCloud cloud = randomCloud(400, 11);
    OisFpsSampler::Config cfg;
    cfg.seed = 5;
    OisFpsSampler a(cfg), b(cfg);
    EXPECT_EQ(a.sample(cloud, 64).indices, b.sample(cloud, 64).indices);
}

TEST(Ois, SptAddressesMatchIndices)
{
    const PointCloud cloud = randomCloud(300, 12);
    Octree::Config tree_cfg;
    tree_cfg.maxDepth = 8;
    Octree tree = Octree::build(cloud, tree_cfg);
    OisFpsSampler ois;
    const auto result = ois.sampleWithTree(tree, 50);
    ASSERT_EQ(result.spt.size(), 50u);
    for (std::size_t i = 0; i < result.spt.size(); ++i) {
        EXPECT_EQ(tree.permutation()[result.spt[i]],
                  result.indices[i]);
    }
}

TEST(Ois, HostAccessesAreOnePerPick)
{
    const PointCloud cloud = randomCloud(1000, 13);
    Octree::Config tree_cfg;
    tree_cfg.maxDepth = 10;
    Octree tree = Octree::build(cloud, tree_cfg);
    OisFpsSampler ois;
    const auto result = ois.sampleWithTree(tree, 128);
    EXPECT_EQ(result.stats.get("sample.host_reads"), 128u);
}

TEST(Ois, DescentBoundedByDepth)
{
    const PointCloud cloud = randomCloud(1000, 14);
    Octree::Config tree_cfg;
    tree_cfg.maxDepth = 8;
    Octree tree = Octree::build(cloud, tree_cfg);
    OisFpsSampler ois;
    const auto result = ois.sampleWithTree(tree, 64);
    // Average levels per pick can never exceed the octree depth.
    const double avg_levels =
        static_cast<double>(
            result.stats.get("sample.levels_visited")) /
        63.0;
    EXPECT_LE(avg_levels, static_cast<double>(tree.depth()) + 1e-9);
}

TEST(Ois, MassivelyFewerMemoryAccessesThanFps)
{
    // The paper's Fig. 9 claim, scaled down: OIS total memory
    // traffic (build + sampling) is orders of magnitude below FPS.
    const PointCloud cloud = randomCloud(20000, 15);
    const std::size_t k = 512;

    const auto fps = FpsSampler(1).sample(cloud, k);
    const std::uint64_t fps_accesses =
        fps.stats.get("sample.host_reads") +
        fps.stats.get("sample.intermediate_reads") +
        fps.stats.get("sample.intermediate_writes");

    const auto ois = OisFpsSampler().sample(cloud, k);
    const std::uint64_t ois_accesses =
        ois.stats.get("sample.host_reads") +
        ois.stats.get("sample.host_writes") +
        ois.stats.get("octree.host_reads") +
        ois.stats.get("octree.host_writes");

    EXPECT_GT(fps_accesses / ois_accesses, 100u);
}

TEST(Ois, QualityComparableToFpsAndBetterThanRs)
{
    // Paper Section VII-C: OIS achieves the same accuracy as FPS;
    // RS has the highest information loss. Coverage radius is the
    // geometric proxy: OIS within 2x of FPS, RS clearly worse.
    const PointCloud cloud = randomCloud(3000, 16);
    const std::size_t k = 96;

    const auto fps = FpsSampler(1).sample(cloud, k);
    const auto ois = OisFpsSampler().sample(cloud, k);
    const auto rs = RandomSampler(1).sample(cloud, k);

    const double cov_fps = coverageRadius(cloud, fps.indices);
    const double cov_ois = coverageRadius(cloud, ois.indices);
    const double cov_rs = coverageRadius(cloud, rs.indices);

    EXPECT_LT(cov_ois, 2.0 * cov_fps);
    EXPECT_LT(cov_ois, cov_rs);
}

TEST(Ois, SpreadsSamplesLikeFps)
{
    const PointCloud cloud = randomCloud(2000, 17);
    const std::size_t k = 64;
    const auto ois = OisFpsSampler().sample(cloud, k);
    const auto rs = RandomSampler(1).sample(cloud, k);
    // FPS-like samplers keep picks apart; random picks collide.
    EXPECT_GT(minSampleSpacing(cloud, ois.indices),
              minSampleSpacing(cloud, rs.indices));
}

TEST(Ois, WorksOnClusteredClouds)
{
    PointCloud cloud;
    Rng rng(18);
    for (int c = 0; c < 5; ++c) {
        const Vec3 center{rng.uniform(0.0f, 1.0f),
                          rng.uniform(0.0f, 1.0f),
                          rng.uniform(0.0f, 1.0f)};
        for (int i = 0; i < 400; ++i) {
            cloud.add(
                {center.x + 0.01f * static_cast<float>(rng.normal()),
                 center.y + 0.01f * static_cast<float>(rng.normal()),
                 center.z + 0.01f * static_cast<float>(rng.normal())});
        }
    }
    const auto result = OisFpsSampler().sample(cloud, 50);
    expectValidSample(result, 2000, 50);
    // Every cluster must be represented (coverage property).
    EXPECT_LT(coverageRadius(cloud, result.indices), 0.5);
}

TEST(Ois, KEqualsNConsumesEverything)
{
    const PointCloud cloud = randomCloud(64, 19);
    const auto result = OisFpsSampler().sample(cloud, 64);
    expectValidSample(result, 64, 64);
}

class OisDepthTest : public ::testing::TestWithParam<int>
{
};

TEST_P(OisDepthTest, ValidAcrossOctreeDepths)
{
    const int depth = GetParam();
    const PointCloud cloud = randomCloud(1500, 20 + depth);
    OisFpsSampler::Config cfg;
    cfg.octree.maxDepth = depth;
    const auto result = OisFpsSampler(cfg).sample(cloud, 128);
    expectValidSample(result, 1500, 128);
}

INSTANTIATE_TEST_SUITE_P(Depths, OisDepthTest,
                         ::testing::Values(4, 6, 8, 10, 12));

// ------------------------------------------------------ approx OIS

TEST(ApproxOis, ProducesKDistinctPoints)
{
    const PointCloud cloud = randomCloud(800, 30);
    ApproxOisSampler approx;
    expectValidSample(approx.sample(cloud, 100), 800, 100);
}

TEST(ApproxOis, VisitsFewerLevelsThanExact)
{
    const PointCloud cloud = randomCloud(4000, 31);
    const std::size_t k = 256;

    Octree::Config tree_cfg;
    tree_cfg.maxDepth = 10;
    tree_cfg.leafCapacity = 4;

    Octree tree_a = Octree::build(cloud, tree_cfg);
    OisFpsSampler::Config exact_cfg;
    exact_cfg.octree = tree_cfg;
    const auto exact =
        OisFpsSampler(exact_cfg).sampleWithTree(tree_a, k);

    Octree tree_b = Octree::build(cloud, tree_cfg);
    ApproxOisSampler::Config approx_cfg;
    approx_cfg.octree = tree_cfg;
    approx_cfg.stopCount = 64;
    const auto approx =
        ApproxOisSampler(approx_cfg).sampleWithTree(tree_b, k);

    EXPECT_LT(approx.stats.get("sample.levels_visited"),
              exact.stats.get("sample.levels_visited"));
}

TEST(ApproxOis, QualityDegradesGracefully)
{
    const PointCloud cloud = randomCloud(3000, 32);
    const std::size_t k = 96;
    const auto exact = OisFpsSampler().sample(cloud, k);
    ApproxOisSampler::Config cfg;
    cfg.stopCount = 32;
    const auto approx = ApproxOisSampler(cfg).sample(cloud, k);
    // Bounded degradation: within 2.5x of the exact coverage.
    EXPECT_LT(coverageRadius(cloud, approx.indices),
              2.5 * coverageRadius(cloud, exact.indices));
}

// ---------------------------------------------------------- metrics

TEST(Metrics, CoverageZeroWhenSampleIsWholeCloud)
{
    const PointCloud cloud = randomCloud(50, 40);
    std::vector<PointIndex> all(50);
    for (PointIndex i = 0; i < 50; ++i)
        all[i] = i;
    EXPECT_DOUBLE_EQ(coverageRadius(cloud, all), 0.0);
}

TEST(Metrics, CoverageOfSinglePointIsMaxDistance)
{
    PointCloud cloud;
    cloud.add({0, 0, 0});
    cloud.add({3, 4, 0});
    const PointIndex one[] = {0};
    EXPECT_NEAR(coverageRadius(cloud, one), 5.0, 1e-5);
}

TEST(Metrics, MeanNearestBelowCoverage)
{
    const PointCloud cloud = randomCloud(400, 41);
    const auto sample = RandomSampler(2).sample(cloud, 20);
    EXPECT_LE(meanNearestSampleDistance(cloud, sample.indices),
              coverageRadius(cloud, sample.indices));
}

TEST(Metrics, MinSpacingOfCoincidentPointsIsZero)
{
    PointCloud cloud;
    cloud.add({1, 1, 1});
    cloud.add({1, 1, 1});
    const PointIndex idx[] = {0, 1};
    EXPECT_DOUBLE_EQ(minSampleSpacing(cloud, idx), 0.0);
}

} // namespace
} // namespace hgpcn
