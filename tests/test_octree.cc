/**
 * @file
 * Unit and property tests for the Octree spatial index: build
 * invariants, SFC organization, table lookups, farthest-voxel
 * descent and live-point bookkeeping.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "datasets/kitti_like.h"
#include "datasets/traffic_gen.h"
#include "octree/octree.h"
#include "octree/octree_table.h"
#include "octree/voxel_grid.h"
#include "oracles.h"
#include "report_digest.h"

namespace hgpcn
{
namespace
{

PointCloud
randomCloud(std::size_t n, std::uint64_t seed, float lo = 0.0f,
            float hi = 1.0f)
{
    PointCloud cloud;
    cloud.reserve(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        cloud.add({rng.uniform(lo, hi), rng.uniform(lo, hi),
                   rng.uniform(lo, hi)});
    }
    return cloud;
}

Octree::Config
config(int depth, std::uint32_t leaf_capacity)
{
    Octree::Config cfg;
    cfg.maxDepth = depth;
    cfg.leafCapacity = leaf_capacity;
    return cfg;
}

// ----------------------------------------------------- build invariants

TEST(OctreeBuild, RootCoversAllPoints)
{
    const PointCloud cloud = randomCloud(500, 1);
    const Octree tree = Octree::build(cloud, config(6, 8));
    EXPECT_EQ(tree.node(0).pointBegin, 0u);
    EXPECT_EQ(tree.node(0).pointEnd, 500u);
    EXPECT_EQ(tree.node(0).level, 0);
}

TEST(OctreeBuild, ReorderedCloudIsPermutationOfInput)
{
    const PointCloud cloud = randomCloud(300, 2);
    const Octree tree = Octree::build(cloud, config(6, 8));
    const auto &perm = tree.permutation();
    std::set<PointIndex> seen(perm.begin(), perm.end());
    EXPECT_EQ(seen.size(), cloud.size());
    for (std::size_t i = 0; i < perm.size(); ++i) {
        EXPECT_EQ(tree.reorderedCloud()
                      .position(static_cast<PointIndex>(i))
                      .x,
                  cloud.position(perm[i]).x);
    }
}

TEST(OctreeBuild, PointCodesAreSorted)
{
    const PointCloud cloud = randomCloud(1000, 3);
    const Octree tree = Octree::build(cloud, config(8, 4));
    const auto &codes = tree.pointCodes();
    for (std::size_t i = 1; i < codes.size(); ++i)
        EXPECT_LE(codes[i - 1], codes[i]);
}

TEST(OctreeBuild, EveryPointInExactlyOneLeaf)
{
    const PointCloud cloud = randomCloud(800, 4);
    const Octree tree = Octree::build(cloud, config(7, 8));
    std::vector<int> covered(cloud.size(), 0);
    for (const OctreeNode &node : tree.nodes()) {
        if (!node.isLeaf())
            continue;
        for (PointIndex i = node.pointBegin; i < node.pointEnd; ++i)
            ++covered[i];
    }
    for (int c : covered)
        EXPECT_EQ(c, 1);
}

TEST(OctreeBuild, ChildrenPartitionParentRange)
{
    const PointCloud cloud = randomCloud(600, 5);
    const Octree tree = Octree::build(cloud, config(6, 4));
    for (NodeIndex n = 0;
         n < static_cast<NodeIndex>(tree.nodes().size()); ++n) {
        const OctreeNode &node = tree.node(n);
        if (node.isLeaf())
            continue;
        PointIndex cursor = node.pointBegin;
        for (unsigned oct = 0; oct < 8; ++oct) {
            const NodeIndex child = tree.childAt(n, oct);
            if (child == kNoNode)
                continue;
            EXPECT_EQ(tree.node(child).pointBegin, cursor);
            cursor = tree.node(child).pointEnd;
        }
        EXPECT_EQ(cursor, node.pointEnd);
    }
}

TEST(OctreeBuild, ChildCodesExtendParentCode)
{
    const PointCloud cloud = randomCloud(400, 6);
    const Octree tree = Octree::build(cloud, config(6, 4));
    for (NodeIndex n = 0;
         n < static_cast<NodeIndex>(tree.nodes().size()); ++n) {
        const OctreeNode &node = tree.node(n);
        for (unsigned oct = 0; oct < 8; ++oct) {
            const NodeIndex child = tree.childAt(n, oct);
            if (child == kNoNode)
                continue;
            EXPECT_EQ(tree.node(child).code,
                      morton::child3(node.code, oct));
            EXPECT_EQ(tree.node(child).level, node.level + 1);
            EXPECT_EQ(tree.node(child).parent, n);
        }
    }
}

TEST(OctreeBuild, LeafCapacityRespectedAboveMaxDepth)
{
    const PointCloud cloud = randomCloud(2000, 7);
    const auto cfg = config(10, 16);
    const Octree tree = Octree::build(cloud, cfg);
    for (const OctreeNode &node : tree.nodes()) {
        if (node.isLeaf() && node.level < cfg.maxDepth) {
            EXPECT_LE(node.count(), cfg.leafCapacity);
        }
    }
}

TEST(OctreeBuild, DepthLimitedByMaxDepth)
{
    const PointCloud cloud = randomCloud(5000, 8);
    const Octree tree = Octree::build(cloud, config(4, 1));
    EXPECT_LE(tree.depth(), 4);
}

TEST(OctreeBuild, NonUniformCloudGrowsDeeperTree)
{
    // Paper Fig. 11: non-uniform clouds (MN.piano) build deeper
    // octrees than uniform ones (MN.plant).
    PointCloud uniform = randomCloud(4000, 9);
    PointCloud clustered = randomCloud(2000, 10);
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        clustered.add({0.5f + 0.001f * static_cast<float>(rng.normal()),
                       0.5f + 0.001f * static_cast<float>(rng.normal()),
                       0.5f +
                           0.001f * static_cast<float>(rng.normal())});
    }
    const auto cfg = config(12, 8);
    const Octree t_uniform = Octree::build(uniform, cfg);
    const Octree t_clustered = Octree::build(clustered, cfg);
    EXPECT_GT(t_clustered.depth(), t_uniform.depth());
}

TEST(OctreeBuild, BuildStatsRecordSinglePass)
{
    const PointCloud cloud = randomCloud(1234, 12);
    const Octree tree = Octree::build(cloud, config(8, 8));
    EXPECT_EQ(tree.buildStats().get("octree.host_reads"), 1234u);
    EXPECT_EQ(tree.buildStats().get("octree.host_writes"), 1234u);
    EXPECT_EQ(tree.buildStats().get("octree.leaves"),
              tree.leafCount());
}

TEST(OctreeBuild, DuplicatePointsHandled)
{
    PointCloud cloud;
    for (int i = 0; i < 100; ++i)
        cloud.add({0.5f, 0.5f, 0.5f});
    const Octree tree = Octree::build(cloud, config(5, 4));
    // All duplicates land in one max-depth leaf.
    EXPECT_EQ(tree.depth(), 5);
    std::size_t leaf_points = 0;
    for (const OctreeNode &node : tree.nodes())
        if (node.isLeaf())
            leaf_points += node.count();
    EXPECT_EQ(leaf_points, 100u);
}

class OctreeParamTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(OctreeParamTest, FindLeafLocatesContainingVoxel)
{
    const auto [depth, leaf_cap] = GetParam();
    const PointCloud cloud = randomCloud(700, 13 + depth);
    const Octree tree = Octree::build(
        cloud, config(depth, static_cast<std::uint32_t>(leaf_cap)));
    for (std::size_t i = 0; i < 50; ++i) {
        const Vec3 &p = tree.reorderedCloud().position(
            static_cast<PointIndex>(i * 7 % cloud.size()));
        const NodeIndex leaf = tree.findLeaf(p);
        ASSERT_NE(leaf, kNoNode);
        const Aabb bounds = morton::voxelBounds(
            tree.node(leaf).code, tree.node(leaf).level,
            tree.rootBounds());
        EXPECT_TRUE(bounds.contains(p));
    }
}

TEST_P(OctreeParamTest, VoxelRangeMatchesLeafRanges)
{
    const auto [depth, leaf_cap] = GetParam();
    const PointCloud cloud = randomCloud(900, 17 + depth);
    const Octree tree = Octree::build(
        cloud, config(depth, static_cast<std::uint32_t>(leaf_cap)));
    for (const OctreeNode &node : tree.nodes()) {
        const auto [first, last] =
            oracle::voxelRange(tree, node.code, node.level);
        EXPECT_EQ(first, node.pointBegin);
        EXPECT_EQ(last, node.pointEnd);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, OctreeParamTest,
    ::testing::Values(std::make_tuple(4, 1), std::make_tuple(6, 8),
                      std::make_tuple(8, 16), std::make_tuple(10, 64)));

// -------------------------------------------------------- voxelRange

TEST(OctreeQuery, VoxelRangeOfRootIsWholeCloud)
{
    const PointCloud cloud = randomCloud(200, 21);
    const Octree tree = Octree::build(cloud, config(6, 8));
    const auto [first, last] = oracle::voxelRange(tree, 0, 0);
    EXPECT_EQ(first, 0u);
    EXPECT_EQ(last, 200u);
}

TEST(OctreeQuery, VoxelRangeMatchesBruteForceCellCounts)
{
    const PointCloud cloud = randomCloud(400, 22);
    const Octree tree = Octree::build(cloud, config(6, 8));
    const int level = 2;
    // Count per cell by direct classification, then compare against
    // the binary-search ranges (empty cells included).
    std::map<morton::Code, std::uint32_t> expected;
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        ++expected[morton::ancestorAt(
            tree.pointCode(static_cast<PointIndex>(i)),
            tree.config().maxDepth, level)];
    }
    for (morton::Code code = 0; code < (1u << (3 * level)); ++code) {
        const auto [first, last] =
            oracle::voxelRange(tree, code, level);
        const auto it = expected.find(code);
        const std::uint32_t want =
            it == expected.end() ? 0 : it->second;
        EXPECT_EQ(last - first, want) << "cell " << code;
    }
}

TEST(OctreeQuery, VoxelRangeAtIntermediateLevelsIsConsistent)
{
    const PointCloud cloud = randomCloud(1000, 23);
    const Octree tree = Octree::build(cloud, config(8, 4));
    // The 8 children of the root partition the root range.
    std::size_t total = 0;
    for (unsigned oct = 0; oct < 8; ++oct) {
        const auto [first, last] = oracle::voxelRange(tree, oct, 1);
        total += last - first;
    }
    EXPECT_EQ(total, cloud.size());
}

// ----------------------------------------------------- live counters

TEST(OctreeLive, InitiallyAllLive)
{
    const PointCloud cloud = randomCloud(100, 31);
    Octree tree = Octree::build(cloud, config(6, 8));
    EXPECT_EQ(tree.liveCount(0), 100u);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_TRUE(tree.isLive(static_cast<PointIndex>(i)));
}

TEST(OctreeLive, ConsumeDecrementsPath)
{
    const PointCloud cloud = randomCloud(100, 32);
    Octree tree = Octree::build(cloud, config(6, 8));
    const NodeIndex leaf = tree.leafOf(0);
    const std::uint32_t leaf_before = tree.liveCount(leaf);
    const int levels = tree.consumePoint(0);
    EXPECT_EQ(tree.liveCount(0), 99u);
    EXPECT_EQ(tree.liveCount(leaf), leaf_before - 1);
    EXPECT_EQ(levels, tree.node(leaf).level + 1);
    EXPECT_FALSE(tree.isLive(0));
}

TEST(OctreeLive, ResetRestoresCounts)
{
    const PointCloud cloud = randomCloud(50, 33);
    Octree tree = Octree::build(cloud, config(6, 8));
    tree.consumePoint(0);
    tree.consumePoint(1);
    tree.resetLive();
    EXPECT_EQ(tree.liveCount(0), 50u);
    EXPECT_TRUE(tree.isLive(0));
}

TEST(OctreeLive, ConsumeAllThenDescendReturnsNoNode)
{
    const PointCloud cloud = randomCloud(20, 34);
    Octree tree = Octree::build(cloud, config(5, 2));
    for (PointIndex i = 0; i < 20; ++i)
        tree.consumePoint(i);
    EXPECT_EQ(tree.liveCount(0), 0u);
    EXPECT_EQ(tree.descendFarthest(0), kNoNode);
}

// ------------------------------------------------- farthest descent

TEST(OctreeDescent, ReachesALeafWithLivePoints)
{
    const PointCloud cloud = randomCloud(500, 41);
    Octree tree = Octree::build(cloud, config(7, 8));
    int levels = 0;
    const NodeIndex leaf = tree.descendFarthest(
        0, DescentMetric::Balanced, 0, &levels);
    ASSERT_NE(leaf, kNoNode);
    EXPECT_TRUE(tree.node(leaf).isLeaf());
    EXPECT_GT(tree.liveCount(leaf), 0u);
    EXPECT_EQ(levels, tree.node(leaf).level);
}

TEST(OctreeDescent, PrefersOppositeOctant)
{
    // Two tight clusters at opposite corners: descending from the
    // low-corner seed must land in the high-corner cluster.
    PointCloud cloud;
    Rng rng(42);
    for (int i = 0; i < 100; ++i) {
        cloud.add({rng.uniform(0.0f, 0.1f), rng.uniform(0.0f, 0.1f),
                   rng.uniform(0.0f, 0.1f)});
        cloud.add({rng.uniform(0.9f, 1.0f), rng.uniform(0.9f, 1.0f),
                   rng.uniform(0.9f, 1.0f)});
    }
    Octree tree = Octree::build(cloud, config(6, 8));
    const morton::Code seed = morton::pointCode3(
        {0.05f, 0.05f, 0.05f}, tree.rootBounds(), 6);
    const NodeIndex leaf = tree.descendFarthest(seed);
    ASSERT_NE(leaf, kNoNode);
    const Vec3 center = morton::voxelCenter(
        tree.node(leaf).code, tree.node(leaf).level, tree.rootBounds());
    EXPECT_GT(center.x, 0.5f);
    EXPECT_GT(center.y, 0.5f);
    EXPECT_GT(center.z, 0.5f);
}

TEST(OctreeDescent, SkipsExhaustedSubtrees)
{
    PointCloud cloud;
    Rng rng(43);
    // Cluster A (far corner) has 4 points; cluster B mid-way.
    for (int i = 0; i < 4; ++i)
        cloud.add({0.95f + 0.01f * i, 0.95f, 0.95f});
    for (int i = 0; i < 50; ++i) {
        cloud.add({rng.uniform(0.4f, 0.6f), rng.uniform(0.4f, 0.6f),
                   rng.uniform(0.4f, 0.6f)});
    }
    Octree tree = Octree::build(cloud, config(6, 2));
    const morton::Code seed =
        morton::pointCode3({0.0f, 0.0f, 0.0f}, tree.rootBounds(), 6);

    // Exhaust the far cluster.
    std::set<NodeIndex> first_leaves;
    for (int pick = 0; pick < 4; ++pick) {
        const NodeIndex leaf = tree.descendFarthest(seed);
        ASSERT_NE(leaf, kNoNode);
        first_leaves.insert(leaf);
        tree.consumePoint(tree.farthestLivePointInLeaf(leaf, seed));
    }
    // Subsequent picks must come from elsewhere and still succeed.
    const NodeIndex next = tree.descendFarthest(seed);
    ASSERT_NE(next, kNoNode);
    EXPECT_GT(tree.liveCount(next), 0u);
}

TEST(OctreeDescent, FarthestLivePointSkipsConsumed)
{
    PointCloud cloud;
    for (int i = 0; i < 8; ++i)
        cloud.add({0.9f + 0.01f * static_cast<float>(i), 0.9f, 0.9f});
    Octree tree = Octree::build(cloud, config(3, 16));
    const NodeIndex leaf = tree.descendFarthest(0);
    const PointIndex first = tree.farthestLivePointInLeaf(leaf, 0);
    tree.consumePoint(first);
    const PointIndex second = tree.farthestLivePointInLeaf(leaf, 0);
    EXPECT_NE(first, second);
}

// ----------------------------------------------------- OctreeTable

TEST(OctreeTable, MirrorsNodes)
{
    const PointCloud cloud = randomCloud(400, 51);
    const Octree tree = Octree::build(cloud, config(6, 8));
    const OctreeTable table = OctreeTable::fromOctree(tree);
    ASSERT_EQ(table.entryCount(), tree.nodes().size());
    for (std::size_t i = 0; i < table.entryCount(); ++i) {
        const OctreeTableEntry &row = table.entry(i);
        const OctreeNode &node = tree.nodes()[i];
        EXPECT_EQ(row.code, node.code);
        EXPECT_EQ(row.level, node.level);
        EXPECT_EQ(row.childMask, node.childMask);
        EXPECT_EQ(row.pointBegin, node.pointBegin);
        EXPECT_EQ(row.pointEnd, node.pointEnd);
    }
}

TEST(OctreeTable, SizeBytesScalesWithEntries)
{
    const PointCloud cloud = randomCloud(400, 52);
    const Octree tree = Octree::build(cloud, config(6, 8));
    const OctreeTable table = OctreeTable::fromOctree(tree);
    EXPECT_EQ(table.sizeBytes(),
              table.entryCount() * OctreeTable::kEntryBytes);
}

TEST(OctreeValidate, PassesOnFreshTree)
{
    const PointCloud cloud = randomCloud(700, 61);
    const Octree tree = Octree::build(cloud, config(8, 8));
    EXPECT_EQ(tree.validate(), tree.nodes().size());
}

TEST(OctreeValidate, PassesMidSampling)
{
    const PointCloud cloud = randomCloud(500, 62);
    Octree tree = Octree::build(cloud, config(8, 8));
    for (PointIndex i = 0; i < 100; ++i)
        tree.consumePoint(i * 3);
    EXPECT_EQ(tree.validate(), tree.nodes().size());
}

TEST(OctreeTable, LargerLeafCapacityShrinksTable)
{
    const PointCloud cloud = randomCloud(5000, 53);
    const OctreeTable small_leaves = OctreeTable::fromOctree(
        Octree::build(cloud, config(10, 4)));
    const OctreeTable big_leaves = OctreeTable::fromOctree(
        Octree::build(cloud, config(10, 64)));
    EXPECT_LT(big_leaves.sizeBytes(), small_leaves.sizeBytes());
}

// ------------------------------------------------ scratch-build digests

/**
 * FNV-1a of a scratch build of @p cloud: the point codes, the
 * permutation, every node field and the occupied cells of every
 * level 1..maxDepth. The sort and cell-list kernels behind it may be
 * rewritten for speed; these digests pin that they move no bit.
 */
std::uint64_t
scratchDigest(const PointCloud &cloud, const Octree::Config &cfg)
{
    const Octree tree = Octree::build(cloud, cfg);
    digest::Fnv1a fnv;
    const auto &codes = tree.pointCodes();
    fnv.value(codes.size());
    fnv.bytes(codes.data(), codes.size() * sizeof(morton::Code));
    const auto &perm = tree.permutation();
    fnv.bytes(perm.data(), perm.size() * sizeof(PointIndex));
    fnv.value(tree.nodes().size());
    for (const OctreeNode &n : tree.nodes()) {
        fnv.value(n.code);
        fnv.value(n.level);
        fnv.value(n.childMask);
        fnv.value(n.firstChild);
        fnv.value(n.parent);
        fnv.value(n.pointBegin);
        fnv.value(n.pointEnd);
    }
    std::vector<OccupiedCell> occ, scratch;
    for (int level = 1; level <= cfg.maxDepth; ++level) {
        buildOccupiedCells(tree, level, occ, scratch);
        fnv.value(occ.size());
        for (const OccupiedCell &c : occ) {
            fnv.value(c.cell.x);
            fnv.value(c.cell.y);
            fnv.value(c.cell.z);
            fnv.value(c.first);
            fnv.value(c.last);
        }
    }
    return fnv.h;
}

/** Digest of @p cloud under @p cfg, checked with the radix sort on
 * and off: both sorts must give the same build. */
void
expectScratchDigest(const PointCloud &cloud, Octree::Config cfg,
                    std::uint64_t expected, const char *what)
{
    for (const bool radix : {true, false}) {
        cfg.useRadixSort = radix;
        EXPECT_EQ(scratchDigest(cloud, cfg), expected)
            << what << " radix=" << radix << std::hex << " got 0x"
            << scratchDigest(cloud, cfg);
    }
}

// Digests recorded from the comparison-sorted cell lists and the
// byte-wise radix sort of the original scratch build.
TEST(ScratchDigest, KittiLikeFrames)
{
    const KittiLike lidar(KittiLike::Config{});
    const std::uint64_t expected[2] = {0xfb5460a528237599ull,
                                       0x7b6b4705ec8259e4ull};
    for (std::size_t f = 0; f < 2; ++f) {
        const PointCloud cloud = lidar.generate(f).cloud;
        expectScratchDigest(cloud, config(12, 64), expected[f], "kitti");
    }
}

TEST(ScratchDigest, TrafficGenClouds)
{
    TrafficGen::Config tc;
    tc.sensors = 4;
    tc.durationSec = 2.0;
    tc.cloudPoints = 4096;
    tc.seed = 7;
    const SensorStream stream = TrafficGen(tc).generate().stream;
    ASSERT_GE(stream.size(), 3u);
    const std::uint64_t expected[3][2] = {
        {0xb977a17a0943a434ull, 0xcbe1004e803d207bull},
        {0xf19cc18bac707c0dull, 0xc56dd884720f33a7ull},
        {0x5bf042c94c791b16ull, 0x53e8043695fbdae7ull}};
    for (std::size_t f = 0; f < 3; ++f) {
        const PointCloud &cloud = stream.frames[f].cloud;
        ASSERT_EQ(cloud.size(), 4096u);
        expectScratchDigest(cloud, config(12, 64), expected[f][0],
                            "traffic 12/64");
        expectScratchDigest(cloud, config(21, 8), expected[f][1],
                            "traffic 21/8");
    }
}

TEST(ScratchDigest, CoincidentAndSinglePointClouds)
{
    PointCloud coincident;
    for (int i = 0; i < 300; ++i)
        coincident.add({0.25f, -1.5f, 3.0f});
    PointCloud pair_of_piles = coincident;
    for (int i = 0; i < 200; ++i)
        pair_of_piles.add({0.75f, -1.0f, 3.5f});
    PointCloud single;
    single.add({1.0f, 2.0f, 3.0f});
    expectScratchDigest(coincident, config(12, 64), 0xf32bc2ff07f2a482ull,
                        "coincident");
    expectScratchDigest(coincident, config(21, 8), 0xbd512caa004d9e25ull,
                        "coincident 21");
    expectScratchDigest(pair_of_piles, config(12, 64),
                        0x3ee69e823af04a42ull, "piles");
    expectScratchDigest(pair_of_piles, config(21, 8),
                        0x69e9d4a41cfe6dbeull, "piles 21");
    expectScratchDigest(single, config(12, 64), 0xe8ac36f9f05d8cb6ull,
                        "single");
    expectScratchDigest(single, config(21, 8), 0xb86486bb3ba3add3ull,
                        "single 21");
}

} // namespace
} // namespace hgpcn
