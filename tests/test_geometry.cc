/**
 * @file
 * Unit and property tests for the geometry substrate: Vec3, Aabb,
 * Morton m-codes and PointCloud.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "geometry/aabb.h"
#include "geometry/morton.h"
#include "geometry/point_cloud.h"
#include "geometry/vec3.h"

namespace hgpcn
{
namespace
{

// ----------------------------------------------------------------- Vec3

TEST(Vec3, ArithmeticComponents)
{
    const Vec3 a{1, 2, 3}, b{4, 5, 6};
    EXPECT_EQ(a + b, Vec3(5, 7, 9));
    EXPECT_EQ(b - a, Vec3(3, 3, 3));
    EXPECT_EQ(a * 2.0f, Vec3(2, 4, 6));
    EXPECT_EQ(b / 2.0f, Vec3(2, 2.5f, 3));
}

TEST(Vec3, DotAndNorm)
{
    const Vec3 a{3, 4, 0};
    EXPECT_FLOAT_EQ(a.dot(a), 25.0f);
    EXPECT_FLOAT_EQ(a.norm(), 5.0f);
    EXPECT_FLOAT_EQ(a.normSq(), 25.0f);
}

TEST(Vec3, DistanceIsSymmetric)
{
    const Vec3 a{1, 1, 1}, b{4, 5, 1};
    EXPECT_FLOAT_EQ(a.dist(b), 5.0f);
    EXPECT_FLOAT_EQ(b.dist(a), a.dist(b));
}

TEST(Vec3, MinMaxAreComponentwise)
{
    const Vec3 a{1, 5, 2}, b{3, 2, 4};
    EXPECT_EQ(Vec3::min(a, b), Vec3(1, 2, 2));
    EXPECT_EQ(Vec3::max(a, b), Vec3(3, 5, 4));
}

// ----------------------------------------------------------------- Aabb

TEST(Aabb, StartsEmpty)
{
    Aabb box;
    EXPECT_TRUE(box.empty());
}

TEST(Aabb, ExpandContainsPoints)
{
    Aabb box;
    box.expand({1, 2, 3});
    box.expand({-1, 0, 5});
    EXPECT_FALSE(box.empty());
    EXPECT_TRUE(box.contains({0, 1, 4}));
    EXPECT_FALSE(box.contains({2, 2, 3}));
    EXPECT_EQ(box.lo, Vec3(-1, 0, 3));
    EXPECT_EQ(box.hi, Vec3(1, 2, 5));
}

TEST(Aabb, CubifiedIsCubeContainingBox)
{
    Aabb box({0, 0, 0}, {4, 2, 1});
    const Aabb cube = box.cubified();
    const Vec3 e = cube.extent();
    EXPECT_NEAR(e.x, e.y, 1e-4f);
    EXPECT_NEAR(e.y, e.z, 1e-4f);
    EXPECT_GE(e.x, 4.0f);
    EXPECT_TRUE(cube.contains(box.lo));
    EXPECT_TRUE(cube.contains(box.hi));
}

TEST(Aabb, CubifiedOfPointIsNonDegenerate)
{
    Aabb box({1, 1, 1}, {1, 1, 1});
    const Aabb cube = box.cubified();
    EXPECT_GT(cube.extent().x, 0.0f);
}

// ----------------------------------------------------- Morton bit ops

TEST(Morton, ExpandCompact3RoundTrip)
{
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        const auto v =
            static_cast<std::uint32_t>(rng.below(1u << 21));
        EXPECT_EQ(morton::compactBits3(morton::expandBits3(v)), v);
    }
}

TEST(Morton, ExpandCompact2RoundTrip)
{
    Rng rng(4);
    for (int i = 0; i < 200; ++i) {
        const auto v =
            static_cast<std::uint32_t>(rng.below(1u << 31));
        EXPECT_EQ(morton::compactBits2(morton::expandBits2(v)), v);
    }
}

TEST(Morton, Encode3KnownValues)
{
    // Depth 1: code groups are (x,y,z).
    EXPECT_EQ(morton::encode3(0, 0, 0, 1), 0u);
    EXPECT_EQ(morton::encode3(1, 0, 0, 1), 4u); // X is the high bit
    EXPECT_EQ(morton::encode3(0, 1, 0, 1), 2u);
    EXPECT_EQ(morton::encode3(0, 0, 1, 1), 1u);
    EXPECT_EQ(morton::encode3(1, 1, 1, 1), 7u);
}

TEST(Morton, Encode2MatchesPaperConvention)
{
    // Fig. 5: bottom-left 00, top-left 01, bottom-right 10,
    // top-right 11 (first bit X, second Y).
    EXPECT_EQ(morton::encode2(0, 0, 1), 0b00u);
    EXPECT_EQ(morton::encode2(0, 1, 1), 0b01u);
    EXPECT_EQ(morton::encode2(1, 0, 1), 0b10u);
    EXPECT_EQ(morton::encode2(1, 1, 1), 0b11u);
}

class MortonDepthTest : public ::testing::TestWithParam<int>
{
};

TEST_P(MortonDepthTest, Encode3Decode3RoundTrip)
{
    const int depth = GetParam();
    Rng rng(100 + depth);
    const std::uint32_t cells = 1u << depth;
    for (int i = 0; i < 100; ++i) {
        const auto x = static_cast<std::uint32_t>(rng.below(cells));
        const auto y = static_cast<std::uint32_t>(rng.below(cells));
        const auto z = static_cast<std::uint32_t>(rng.below(cells));
        const morton::Code code = morton::encode3(x, y, z, depth);
        std::uint32_t rx, ry, rz;
        morton::decode3(code, depth, rx, ry, rz);
        EXPECT_EQ(rx, x);
        EXPECT_EQ(ry, y);
        EXPECT_EQ(rz, z);
    }
}

TEST_P(MortonDepthTest, CodeFitsBitBudget)
{
    const int depth = GetParam();
    const std::uint32_t max_cell = (1u << depth) - 1;
    const morton::Code code =
        morton::encode3(max_cell, max_cell, max_cell, depth);
    EXPECT_LT(code, 1ull << (3 * depth));
    EXPECT_EQ(code, (1ull << (3 * depth)) - 1);
}

TEST_P(MortonDepthTest, ParentChildInverse)
{
    const int depth = GetParam();
    Rng rng(200 + depth);
    const std::uint32_t cells = 1u << depth;
    for (int i = 0; i < 50; ++i) {
        const morton::Code code = morton::encode3(
            static_cast<std::uint32_t>(rng.below(cells)),
            static_cast<std::uint32_t>(rng.below(cells)),
            static_cast<std::uint32_t>(rng.below(cells)), depth);
        const unsigned oct = morton::octant3(code);
        EXPECT_EQ(morton::child3(morton::parent3(code), oct), code);
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, MortonDepthTest,
                         ::testing::Values(1, 2, 4, 8, 16, 21));

TEST(Morton, AncestorAtTruncatesGroups)
{
    const morton::Code code = morton::encode3(5, 3, 6, 3);
    EXPECT_EQ(morton::ancestorAt(code, 3, 3), code);
    EXPECT_EQ(morton::ancestorAt(code, 3, 2), code >> 3);
    EXPECT_EQ(morton::ancestorAt(code, 3, 1), code >> 6);
    EXPECT_EQ(morton::ancestorAt(code, 3, 0), 0u);
}

TEST(Morton, HammingDistanceViaXorPopcount)
{
    EXPECT_EQ(morton::hamming(0b000, 0b111), 3);
    EXPECT_EQ(morton::hamming(0b101, 0b101), 0);
    EXPECT_EQ(morton::hamming(0b100, 0b001), 2);
}

TEST(Morton, SfcOrderPreservesLocality)
{
    // Points in the same octant share the leading 3-bit group, so
    // their codes are closer than codes across octants.
    const morton::Code a = morton::encode3(0, 0, 0, 4);
    const morton::Code b = morton::encode3(1, 1, 1, 4);
    const morton::Code c = morton::encode3(15, 15, 15, 4);
    EXPECT_LT(a ^ b, a ^ c);
}

// ---------------------------------------------------- cell/voxel maps

TEST(Morton, CellOfClampsToGrid)
{
    const Aabb root({0, 0, 0}, {1, 1, 1});
    std::uint32_t x, y, z;
    morton::cellOf({1.0f, 1.0f, 1.0f}, root, 3, x, y, z);
    EXPECT_EQ(x, 7u);
    EXPECT_EQ(y, 7u);
    EXPECT_EQ(z, 7u);
    morton::cellOf({0.0f, 0.0f, 0.0f}, root, 3, x, y, z);
    EXPECT_EQ(x, 0u);
}

TEST(Morton, CellOfMapsNonFiniteAndFarCoordinatesIntoTheGrid)
{
    // Grid positions whose integer conversion would be undefined
    // clamp like their finite neighbours: NaN to cell 0, +Inf and
    // huge coordinates to the last cell, -Inf to cell 0.
    const Aabb root({0, 0, 0}, {1, 1, 1});
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float huge = std::numeric_limits<float>::max();
    const struct
    {
        float v;
        std::uint32_t cell;
    } cases[] = {{nan, 0u},    {-nan, 0u},   {inf, 7u},
                 {-inf, 0u},   {huge, 7u},   {-huge, 0u},
                 {1e30f, 7u},  {-1e30f, 0u}, {2.0f, 7u},
                 {-0.5f, 0u},  {-0.0f, 0u},  {0.999f, 7u},
                 {0.5f, 4u},   {0.1249f, 0u}};
    for (const auto &c : cases) {
        std::uint32_t x, y, z;
        morton::cellOf({c.v, c.v, c.v}, root, 3, x, y, z);
        EXPECT_EQ(x, c.cell) << c.v;
        EXPECT_EQ(y, c.cell) << c.v;
        EXPECT_EQ(z, c.cell) << c.v;
    }
    // A point past the deepest grid's end still lands in range.
    std::uint32_t x, y, z;
    morton::cellOf({huge, nan, -inf}, root, morton::kMaxDepth3d, x, y, z);
    EXPECT_EQ(x, (1u << morton::kMaxDepth3d) - 1);
    EXPECT_EQ(y, 0u);
    EXPECT_EQ(z, 0u);
    // A degenerate (zero-extent) root maps every point to cell 0.
    morton::cellOf({5.0f, nan, inf}, Aabb({1, 1, 1}, {1, 1, 1}), 4, x, y,
                   z);
    EXPECT_EQ(x, 0u);
    EXPECT_EQ(y, 0u);
    EXPECT_EQ(z, 0u);
}

TEST(Morton, CellOfKeepsEveryInRangeCell)
{
    // Cells of in-range coordinates are the truncated grid position,
    // clamped to the last cell — the mapping every pinned digest was
    // recorded with.
    const Aabb root({-3, 2, 0.5f}, {5, 10, 8.5f});
    Rng rng(37);
    for (int depth : {1, 4, 10, 21}) {
        const std::uint32_t cells = 1u << depth;
        for (int i = 0; i < 2000; ++i) {
            const Vec3 p{rng.uniform(-3.0f, 5.0f), rng.uniform(2.0f, 10.0f),
                         rng.uniform(0.5f, 8.5f)};
            const auto expect = [cells](float v, float lo) {
                const float f = (v - lo) / 8.0f * static_cast<float>(cells);
                const auto c = static_cast<std::int64_t>(f);
                return static_cast<std::uint32_t>(
                    std::clamp<std::int64_t>(c, 0, cells - 1));
            };
            std::uint32_t x, y, z;
            morton::cellOf(p, root, depth, x, y, z);
            EXPECT_EQ(x, expect(p.x, -3.0f));
            EXPECT_EQ(y, expect(p.y, 2.0f));
            EXPECT_EQ(z, expect(p.z, 0.5f));
        }
    }
}

TEST(Morton, PointCodeConsistentWithCellOf)
{
    const Aabb root({0, 0, 0}, {2, 2, 2});
    Rng rng(31);
    for (int i = 0; i < 100; ++i) {
        const Vec3 p{rng.uniform(0.0f, 2.0f), rng.uniform(0.0f, 2.0f),
                     rng.uniform(0.0f, 2.0f)};
        std::uint32_t x, y, z;
        morton::cellOf(p, root, 5, x, y, z);
        EXPECT_EQ(morton::pointCode3(p, root, 5),
                  morton::encode3(x, y, z, 5));
    }
}

TEST(Morton, VoxelCenterInsideVoxelBounds)
{
    const Aabb root({-1, -1, -1}, {1, 1, 1});
    Rng rng(37);
    for (int i = 0; i < 50; ++i) {
        const int level = 1 + static_cast<int>(rng.below(6));
        const std::uint32_t cells = 1u << level;
        const morton::Code code = morton::encode3(
            static_cast<std::uint32_t>(rng.below(cells)),
            static_cast<std::uint32_t>(rng.below(cells)),
            static_cast<std::uint32_t>(rng.below(cells)), level);
        const Aabb bounds = morton::voxelBounds(code, level, root);
        EXPECT_TRUE(bounds.contains(
            morton::voxelCenter(code, level, root)));
    }
}

TEST(Morton, VoxelSizeHalvesPerLevel)
{
    const Aabb root({0, 0, 0}, {8, 8, 8});
    EXPECT_FLOAT_EQ(morton::voxelSize(0, root), 8.0f);
    EXPECT_FLOAT_EQ(morton::voxelSize(1, root), 4.0f);
    EXPECT_FLOAT_EQ(morton::voxelSize(3, root), 1.0f);
}

TEST(Morton, PointRoundTripsThroughVoxelBounds)
{
    const Aabb root = Aabb({0, 0, 0}, {1, 1, 1}).cubified();
    Rng rng(41);
    const int depth = 6;
    for (int i = 0; i < 100; ++i) {
        const Vec3 p{rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                     rng.uniform(0.0f, 1.0f)};
        const morton::Code code = morton::pointCode3(p, root, depth);
        EXPECT_TRUE(morton::voxelBounds(code, depth, root).contains(p))
            << "point escaped its voxel";
    }
}

TEST(Morton, CodeBitsRendersBinaryDigits)
{
    EXPECT_EQ(morton::codeBits(0b1101, 2, 2), 1101u);
    EXPECT_EQ(morton::codeBits(0b000111, 2, 3), 111u);
}

// ------------------------------------------------------- PointCloud

TEST(PointCloud, AddAndQueryPoints)
{
    PointCloud cloud;
    cloud.add({1, 2, 3});
    cloud.add({4, 5, 6});
    EXPECT_EQ(cloud.size(), 2u);
    EXPECT_EQ(cloud.position(1), Vec3(4, 5, 6));
}

TEST(PointCloud, FeaturesStoredPerPoint)
{
    PointCloud cloud(2);
    const float f0[] = {0.5f, -1.0f};
    const float f1[] = {2.0f, 3.0f};
    cloud.add({0, 0, 0}, f0);
    cloud.add({1, 1, 1}, f1);
    EXPECT_EQ(cloud.featureDim(), 2u);
    EXPECT_FLOAT_EQ(cloud.feature(0)[1], -1.0f);
    EXPECT_FLOAT_EQ(cloud.feature(1)[0], 2.0f);
}

TEST(PointCloud, AddWithoutFeaturesZeroFills)
{
    PointCloud cloud(3);
    cloud.add({0, 0, 0});
    for (float v : cloud.feature(0))
        EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(PointCloud, BoundsCoverAllPoints)
{
    PointCloud cloud;
    Rng rng(51);
    for (int i = 0; i < 100; ++i) {
        cloud.add({rng.uniform(-5.0f, 5.0f), rng.uniform(-5.0f, 5.0f),
                   rng.uniform(-5.0f, 5.0f)});
    }
    const Aabb box = cloud.bounds();
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        EXPECT_TRUE(
            box.contains(cloud.position(static_cast<PointIndex>(i))));
    }
}

TEST(PointCloud, NormalizeToUnitCube)
{
    PointCloud cloud;
    cloud.add({10, 20, 30});
    cloud.add({14, 26, 30});
    cloud.add({12, 23, 33});
    cloud.normalizeToUnitCube();
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        const Vec3 &p = cloud.position(static_cast<PointIndex>(i));
        EXPECT_GE(p.x, 0.0f);
        EXPECT_LE(p.x, 1.0f);
        EXPECT_GE(p.y, 0.0f);
        EXPECT_LE(p.y, 1.0f);
        EXPECT_GE(p.z, 0.0f);
        EXPECT_LE(p.z, 1.0f);
    }
}

TEST(PointCloud, NormalizePreservesRelativeDistances)
{
    PointCloud cloud;
    cloud.add({0, 0, 0});
    cloud.add({2, 0, 0});
    cloud.add({4, 0, 0});
    cloud.normalizeToUnitCube();
    const float d01 = cloud.position(0).dist(cloud.position(1));
    const float d12 = cloud.position(1).dist(cloud.position(2));
    EXPECT_NEAR(d01, d12, 1e-5f);
}

TEST(PointCloud, GatherSelectsInOrder)
{
    PointCloud cloud(1);
    for (int i = 0; i < 5; ++i) {
        const float f = static_cast<float>(i);
        const float feat[] = {f * 10};
        cloud.add({f, 0, 0}, feat);
    }
    const PointIndex idx[] = {3, 1, 4};
    const PointCloud sub = cloud.gather(idx);
    EXPECT_EQ(sub.size(), 3u);
    EXPECT_FLOAT_EQ(sub.position(0).x, 3.0f);
    EXPECT_FLOAT_EQ(sub.position(1).x, 1.0f);
    EXPECT_FLOAT_EQ(sub.feature(2)[0], 40.0f);
}

TEST(PointCloud, ReorderedIsPermutation)
{
    PointCloud cloud;
    for (int i = 0; i < 8; ++i)
        cloud.add({static_cast<float>(i), 0, 0});
    const PointIndex perm[] = {7, 6, 5, 4, 3, 2, 1, 0};
    const PointCloud rev = cloud.reordered(perm);
    EXPECT_EQ(rev.size(), cloud.size());
    for (int i = 0; i < 8; ++i)
        EXPECT_FLOAT_EQ(rev.position(i).x, 7.0f - i);
}

} // namespace
} // namespace hgpcn
