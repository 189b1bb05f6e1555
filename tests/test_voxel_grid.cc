/**
 * @file
 * Tests for the VoxelGrid level view and its Chebyshev-shell (ring)
 * enumeration — the geometric machinery of VEG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "octree/voxel_grid.h"
#include "oracles.h"

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

/** 2 tight clusters over a sparse background (LiDAR-like). */
PointCloud
clusteredCloud(std::size_t n, std::uint64_t seed)
{
    PointCloud cloud;
    cloud.reserve(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 4 == 0) {
            cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                       rng.uniform(0.0f, 1.0f)});
        } else {
            const float c = i % 8 < 4 ? 0.1f : 0.9f;
            cloud.add({c + rng.uniform(-0.005f, 0.005f),
                       c + rng.uniform(-0.005f, 0.005f),
                       c + rng.uniform(-0.005f, 0.005f)});
        }
    }
    return cloud;
}

/** Every position repeated ~12 times (coincident sensor returns). */
PointCloud
duplicateCloud(std::size_t n, std::uint64_t seed)
{
    const PointCloud base = randomCloud(n / 12 + 1, seed);
    PointCloud cloud;
    cloud.reserve(n);
    Rng rng(seed + 1);
    for (std::size_t i = 0; i < n; ++i)
        cloud.add(base.position(rng.below(base.size())));
    return cloud;
}

/**
 * 90 % of the points on six vertical columns spanning the full z
 * range, four of them on the grid's x or y border, over a sparse
 * background: (x, y) rows holding many occupied cells, which ring
 * walks must read from the middle (z-skip) or only at the z-faces.
 */
PointCloud
columnCloud(std::size_t n, std::uint64_t seed)
{
    constexpr float columns[][2] = {{0.0f, 0.0f}, {0.0f, 0.5f},
                                    {1.0f, 1.0f}, {0.5f, 1.0f},
                                    {0.5f, 0.5f}, {0.52f, 0.5f}};
    PointCloud cloud;
    cloud.reserve(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 10 == 0) {
            cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                       rng.uniform(0.0f, 1.0f)});
            continue;
        }
        const float *c = columns[i % 6];
        const auto jitter = [&rng](float v) {
            return std::clamp(v + rng.uniform(-0.001f, 0.001f), 0.0f,
                              1.0f);
        };
        cloud.add({jitter(c[0]), jitter(c[1]), rng.uniform(0.0f, 1.0f)});
    }
    return cloud;
}

Octree
makeTree(const PointCloud &cloud, int depth = 8)
{
    Octree::Config cfg;
    cfg.maxDepth = depth;
    cfg.leafCapacity = 8;
    return Octree::build(cloud, cfg);
}

Octree
makeTree(std::size_t n, std::uint64_t seed, int depth = 8)
{
    return makeTree(randomCloud(n, seed), depth);
}

TEST(VoxelGrid, CellsPerAxisIsPowerOfTwo)
{
    const Octree tree = makeTree(200, 1);
    EXPECT_EQ(VoxelGrid(tree, 0).cellsPerAxis(), 1);
    EXPECT_EQ(VoxelGrid(tree, 3).cellsPerAxis(), 8);
    EXPECT_EQ(VoxelGrid(tree, 5).cellsPerAxis(), 32);
}

TEST(VoxelGrid, CellOfMatchesMortonCell)
{
    const Octree tree = makeTree(300, 2);
    const VoxelGrid grid(tree, 4);
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        const Vec3 p{rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                     rng.uniform(0.0f, 1.0f)};
        const GridCell c = grid.cellOf(p);
        std::uint32_t x, y, z;
        morton::cellOf(p, tree.rootBounds(), 4, x, y, z);
        EXPECT_EQ(c.x, static_cast<std::int32_t>(x));
        EXPECT_EQ(c.y, static_cast<std::int32_t>(y));
        EXPECT_EQ(c.z, static_cast<std::int32_t>(z));
    }
}

TEST(VoxelGrid, InGridRejectsOutside)
{
    const Octree tree = makeTree(100, 4);
    const VoxelGrid grid(tree, 3);
    EXPECT_TRUE(grid.inGrid({0, 0, 0}));
    EXPECT_TRUE(grid.inGrid({7, 7, 7}));
    EXPECT_FALSE(grid.inGrid({-1, 0, 0}));
    EXPECT_FALSE(grid.inGrid({8, 0, 0}));
}

TEST(VoxelGrid, CellRangesPartitionTheCloud)
{
    const Octree tree = makeTree(1000, 5);
    const VoxelGrid grid(tree, 3);
    std::size_t total = 0;
    for (std::int32_t x = 0; x < 8; ++x)
        for (std::int32_t y = 0; y < 8; ++y)
            for (std::int32_t z = 0; z < 8; ++z)
                total += grid.cellCount({x, y, z});
    EXPECT_EQ(total, 1000u);
}

TEST(VoxelGrid, CellPointsActuallyLieInCell)
{
    const Octree tree = makeTree(800, 6);
    const VoxelGrid grid(tree, 3);
    for (std::int32_t x = 0; x < 8; ++x) {
        for (std::int32_t y = 0; y < 8; ++y) {
            for (std::int32_t z = 0; z < 8; ++z) {
                const auto [first, last] = grid.cellRange({x, y, z});
                for (PointIndex i = first; i < last; ++i) {
                    const GridCell c = grid.cellOf(
                        tree.reorderedCloud().position(i));
                    EXPECT_EQ(c.x, x);
                    EXPECT_EQ(c.y, y);
                    EXPECT_EQ(c.z, z);
                }
            }
        }
    }
}

TEST(VoxelGrid, Ring0IsTheCenterCell)
{
    const Octree tree = makeTree(100, 7);
    const VoxelGrid grid(tree, 3);
    std::vector<GridCell> cells;
    oracle::forEachRingCell(grid, {3, 3, 3}, 0,
                            [&](const GridCell &c) { cells.push_back(c); });
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0], (GridCell{3, 3, 3}));
}

TEST(VoxelGrid, Ring1Has26CellsInInterior)
{
    const Octree tree = makeTree(100, 8);
    const VoxelGrid grid(tree, 3);
    const std::size_t visited = oracle::forEachRingCell(
        grid, {3, 3, 3}, 1, [](const GridCell &) {});
    EXPECT_EQ(visited, 26u);
}

TEST(VoxelGrid, RingCellCountMatchesShellFormula)
{
    // |shell(r)| = (2r+1)^3 - (2r-1)^3 for interior cells.
    const Octree tree = makeTree(100, 9, 6);
    const VoxelGrid grid(tree, 5); // 32 cells/axis: interior fits r<=3
    const GridCell center{16, 16, 16};
    for (int r = 1; r <= 3; ++r) {
        const std::size_t expected =
            static_cast<std::size_t>((2 * r + 1) * (2 * r + 1) *
                                     (2 * r + 1)) -
            static_cast<std::size_t>((2 * r - 1) * (2 * r - 1) *
                                     (2 * r - 1));
        EXPECT_EQ(oracle::forEachRingCell(grid, center, r,
                                          [](const GridCell &) {}),
                  expected);
    }
}

TEST(VoxelGrid, RingCellsHaveExactChebyshevDistance)
{
    const Octree tree = makeTree(100, 10, 6);
    const VoxelGrid grid(tree, 5);
    const GridCell center{10, 12, 14};
    for (int r = 0; r <= 3; ++r) {
        oracle::forEachRingCell(grid, center, r, [&](const GridCell &c) {
            const int dx = std::abs(c.x - center.x);
            const int dy = std::abs(c.y - center.y);
            const int dz = std::abs(c.z - center.z);
            EXPECT_EQ(std::max(dx, std::max(dy, dz)), r);
        });
    }
}

TEST(VoxelGrid, RingsClippedAtBorders)
{
    const Octree tree = makeTree(100, 11);
    const VoxelGrid grid(tree, 3); // 8 cells/axis
    // Corner cell: ring 1 has only 7 in-grid cells.
    EXPECT_EQ(oracle::forEachRingCell(grid, {0, 0, 0}, 1,
                                      [](const GridCell &) {}),
              7u);
}

TEST(VoxelGrid, RingsNeverOverlap)
{
    const Octree tree = makeTree(100, 12, 6);
    const VoxelGrid grid(tree, 4);
    const GridCell center{7, 7, 7};
    std::set<std::tuple<int, int, int>> seen;
    for (int r = 0; r <= 4; ++r) {
        oracle::forEachRingCell(grid, center, r, [&](const GridCell &c) {
            const auto key = std::make_tuple(c.x, c.y, c.z);
            EXPECT_EQ(seen.count(key), 0u)
                << "cell visited by two rings";
            seen.insert(key);
        });
    }
}

TEST(VoxelGrid, UnionOfAllRingsCoversGrid)
{
    const Octree tree = makeTree(500, 13);
    const VoxelGrid grid(tree, 3);
    const GridCell center{0, 0, 0};
    std::vector<PointIndex> pts;
    for (int r = 0; r <= grid.cellsPerAxis(); ++r)
        grid.gatherRingPoints(center, r, pts);
    EXPECT_EQ(pts.size(), 500u);
}

TEST(VoxelGrid, GatherRingPointsMatchesRingCount)
{
    const Octree tree = makeTree(600, 14);
    const VoxelGrid grid(tree, 3);
    const GridCell center{4, 4, 4};
    for (int r = 0; r <= 3; ++r) {
        std::vector<PointIndex> pts;
        grid.gatherRingPoints(center, r, pts);
        // The shell's point count, cell by cell over the walk.
        std::size_t walked = 0;
        oracle::forEachRingCell(grid, center, r, [&](const GridCell &c) {
            walked += grid.cellCount(c);
        });
        EXPECT_EQ(pts.size(), walked);
    }
}

TEST(VoxelGrid, AutoLevelTargetsSmallOccupancy)
{
    // ~1-2 points per voxel on average.
    const int level = VoxelGrid::autoLevel(4096, 10);
    const double cells = std::pow(8.0, level);
    const double occupancy = 4096.0 / cells;
    EXPECT_LE(occupancy, 1.6);
    EXPECT_GE(occupancy, 0.1);
}

TEST(VoxelGrid, AutoLevelClampedByMaxLevel)
{
    EXPECT_LE(VoxelGrid::autoLevel(1u << 30, 5), 5);
    EXPECT_GE(VoxelGrid::autoLevel(2, 5), 1);
}

TEST(VoxelGrid, LevelZeroSingleCellHoldsAll)
{
    const Octree tree = makeTree(250, 15);
    const VoxelGrid grid(tree, 0);
    EXPECT_EQ(grid.cellCount({0, 0, 0}), 250u);
}

// ------------------------------------- fast ring serving (src/knn PR)

TEST(VoxelGrid, ShellCellCountMatchesEnumeration)
{
    // shellCellCount is the O(1) closed form of the shell walk's
    // visit count — the DSU's modeled table-lookup cost. Pin them
    // equal across interior, edge and corner centers, clipped and
    // unclipped rings.
    const Octree tree = makeTree(500, 21);
    for (const int level : {1, 2, 4}) {
        const VoxelGrid grid(tree, level);
        const std::int32_t n = grid.cellsPerAxis();
        const GridCell centers[] = {
            {0, 0, 0},
            {n - 1, n - 1, n - 1},
            {n / 2, n / 2, n / 2},
            {0, n / 2, n - 1},
        };
        for (const GridCell &c : centers) {
            for (int r = 0; r <= n + 1; ++r) {
                EXPECT_EQ(grid.shellCellCount(c, r),
                          oracle::forEachRingCell(grid, c, r,
                                                  [](const GridCell &) {}))
                    << "level " << level << " ring " << r;
            }
        }
    }
}

// ------------------------------------------ binary-search ring oracle
//
// Independent of the occupied-row table, the occupied list and the
// shell walk: every cell is resolved by oracle::voxelRange (two binary
// searches over the point codes) and shells are enumerated from the
// full (2r+1)^3 box.

/** [first, last) of cell @p c by binary search; empty off-grid. */
std::pair<PointIndex, PointIndex>
searchRange(const Octree &tree, int level, const GridCell &c)
{
    const std::int32_t n = std::int32_t{1} << level;
    if (c.x < 0 || c.y < 0 || c.z < 0 || c.x >= n || c.y >= n ||
        c.z >= n)
        return {0, 0};
    const morton::Code code =
        level == 0 ? 0
                   : morton::encode3(static_cast<morton::CellCoord>(c.x),
                                     static_cast<morton::CellCoord>(c.y),
                                     static_cast<morton::CellCoord>(c.z),
                                     level);
    return oracle::voxelRange(tree, code, level);
}

int
chebyshev(const GridCell &a, const GridCell &b)
{
    return std::max({std::abs(a.x - b.x), std::abs(a.y - b.y),
                     std::abs(a.z - b.z)});
}

/**
 * Shell @p ring around @p center from the full box in (x, y, z)
 * order: appends its points to @p out, returns its in-grid cells.
 */
std::size_t
searchRingWalk(const Octree &tree, int level, const GridCell &center,
               int ring, std::vector<PointIndex> &out)
{
    const std::int32_t n = std::int32_t{1} << level;
    std::size_t cells = 0;
    for (std::int32_t x = center.x - ring; x <= center.x + ring; ++x) {
        for (std::int32_t y = center.y - ring; y <= center.y + ring;
             ++y) {
            for (std::int32_t z = center.z - ring;
                 z <= center.z + ring; ++z) {
                const GridCell c{x, y, z};
                if (chebyshev(c, center) != ring || x < 0 || y < 0 ||
                    z < 0 || x >= n || y >= n || z >= n)
                    continue;
                ++cells;
                const auto [first, last] = searchRange(tree, level, c);
                for (PointIndex i = first; i < last; ++i)
                    out.push_back(i);
            }
        }
    }
    return cells;
}

/** Occupied cells of @p level by jumping voxelRange runs. */
std::vector<OccupiedCell>
searchOccupied(const Octree &tree, int level)
{
    const std::vector<morton::Code> &codes = tree.pointCodes();
    const int shift = 3 * (tree.config().maxDepth - level);
    std::vector<OccupiedCell> cells;
    for (std::size_t i = 0; i < codes.size();) {
        const morton::Code prefix = codes[i] >> shift;
        const auto [first, last] =
            oracle::voxelRange(tree, prefix, level);
        morton::CellCoord x = 0, y = 0, z = 0;
        if (level > 0)
            morton::decode3(prefix, level, x, y, z);
        cells.push_back({GridCell{static_cast<std::int32_t>(x),
                                  static_cast<std::int32_t>(y),
                                  static_cast<std::int32_t>(z)},
                         first, last});
        i = last;
    }
    std::sort(cells.begin(), cells.end(),
              [](const OccupiedCell &a, const OccupiedCell &b) {
                  return std::tie(a.cell.x, a.cell.y, a.cell.z) <
                         std::tie(b.cell.x, b.cell.y, b.cell.z);
              });
    return cells;
}

/** Shell points from the searched occupied list, (x, y, z) order. */
std::vector<PointIndex>
searchRingPoints(const std::vector<OccupiedCell> &occ,
                 const GridCell &center, int ring)
{
    std::vector<PointIndex> out;
    for (const OccupiedCell &c : occ) {
        if (chebyshev(c.cell, center) == ring) {
            for (PointIndex i = c.first; i < c.last; ++i)
                out.push_back(i);
        }
    }
    return out;
}

struct OracleCloud
{
    const char *name;
    PointCloud cloud;
};

std::vector<OracleCloud>
oracleClouds()
{
    return {{"random", randomCloud(1500, 51)},
            {"clustered", clusteredCloud(1500, 52)},
            {"duplicates", duplicateCloud(1500, 53)},
            {"columns", columnCloud(1500, 54)}};
}

TEST(VoxelGridOracle, CellRangeMatchesBinarySearch)
{
    for (const OracleCloud &oc : oracleClouds()) {
        const Octree tree = makeTree(oc.cloud);
        for (int level = 0; level <= tree.config().maxDepth; ++level) {
            const VoxelGrid grid(tree, level);
            const std::int32_t n = grid.cellsPerAxis();
            const auto check = [&](const GridCell &c) {
                // An empty cell's searched range sits at its code's
                // insertion point; the table reports {0, 0}.
                auto want = searchRange(tree, level, c);
                if (want.first == want.second)
                    want = {0, 0};
                ASSERT_EQ(grid.cellRange(c), want)
                    << oc.name << " level " << level << " cell (" << c.x
                    << ", " << c.y << ", " << c.z << ")";
                ASSERT_EQ(grid.cellCount(c), want.second - want.first);
            };
            if (n <= 32) {
                // Every cell, one layer of off-grid cells included.
                for (std::int32_t x = -1; x <= n; ++x)
                    for (std::int32_t y = -1; y <= n; ++y)
                        for (std::int32_t z = -1; z <= n; ++z)
                            check({x, y, z});
                continue;
            }
            // Deep levels: each point's cell and its 26 neighbours
            // (occupied and empty cells, grid borders), plus cells
            // drawn uniformly (almost all empty).
            for (std::size_t i = 0; i < tree.reorderedCloud().size();
                 i += 7) {
                const GridCell p =
                    grid.cellOf(tree.reorderedCloud().position(i));
                for (int d = 0; d < 27; ++d)
                    check({p.x + d % 3 - 1, p.y + d / 3 % 3 - 1,
                           p.z + d / 9 - 1});
            }
            Rng rng(static_cast<std::uint64_t>(level));
            for (int i = 0; i < 2000; ++i) {
                check({static_cast<std::int32_t>(rng.below(n)),
                       static_cast<std::int32_t>(rng.below(n)),
                       static_cast<std::int32_t>(rng.below(n))});
            }
        }
    }
}

TEST(VoxelGridOracle, RingsMatchBinarySearchAtEveryLevel)
{
    // Every level, centres on corners, faces and edges of the grid
    // and at points, every ring up to cellsPerAxis(). Both serving
    // paths engage: per-cell probes for small shells, the occupied
    // scan for shells larger than half the occupied list.
    for (const OracleCloud &oc : oracleClouds()) {
        const Octree tree = makeTree(oc.cloud);
        const std::size_t points = tree.reorderedCloud().size();
        for (int level = 0; level <= tree.config().maxDepth; ++level) {
            const VoxelGrid grid(tree, level);
            const std::vector<OccupiedCell> occ =
                searchOccupied(tree, level);
            ASSERT_EQ(grid.occupiedCells().size(), occ.size());
            const std::int32_t n = grid.cellsPerAxis();
            const std::int32_t m = n - 1;
            std::vector<GridCell> centers = {
                {0, 0, 0}, {m, m, m}, {0, m, 0}, {m, 0, m / 2},
                {0, n / 2, m}, {n / 2, n / 2, n / 2}};
            for (const PointIndex i : {PointIndex{0}, PointIndex{777}})
                centers.push_back(
                    grid.cellOf(tree.reorderedCloud().position(i)));
            for (const GridCell &center : centers) {
                std::size_t covered = 0;
                for (int r = 0; r <= n; ++r) {
                    const std::vector<PointIndex> want =
                        searchRingPoints(occ, center, r);
                    std::vector<PointIndex> got;
                    const std::size_t lookups =
                        grid.gatherRingPoints(center, r, got);
                    ASSERT_EQ(got, want) << oc.name << " level "
                                         << level << " ring " << r;
                    ASSERT_EQ(lookups, grid.shellCellCount(center, r));
                    covered += want.size();
                    // Small shells: the full-box walk fixes the cell
                    // count and the per-cell order independently.
                    if (r <= 6) {
                        std::vector<PointIndex> walked;
                        ASSERT_EQ(searchRingWalk(tree, level, center, r,
                                                 walked),
                                  lookups);
                        ASSERT_EQ(walked, want);
                    }
                }
                EXPECT_EQ(covered, points) << oc.name << " level "
                                           << level;
            }
        }
    }
}

TEST(VoxelGridOracle, ShellWalkVisitsTheBoxShellInOrder)
{
    // The oracle's shell walk against the (2r+1)^3 box filtered to
    // the shell, clipped at every border, off-grid centres included.
    const Octree tree = makeTree(300, 61, /*depth=*/4);
    const VoxelGrid grid(tree, 3); // 8 cells/axis
    const std::int32_t n = grid.cellsPerAxis();
    for (std::int32_t cx = -2; cx <= n + 1; cx += 3) {
        for (std::int32_t cy = -1; cy <= n; cy += 2) {
            for (std::int32_t cz = 0; cz < n; cz += 3) {
                const GridCell center{cx, cy, cz};
                for (int r = 0; r <= n + 2; ++r) {
                    std::vector<GridCell> want;
                    for (std::int32_t x = cx - r; x <= cx + r; ++x)
                        for (std::int32_t y = cy - r; y <= cy + r; ++y)
                            for (std::int32_t z = cz - r; z <= cz + r;
                                 ++z) {
                                const GridCell c{x, y, z};
                                if (grid.inGrid(c) &&
                                    chebyshev(c, center) == r)
                                    want.push_back(c);
                            }
                    std::vector<GridCell> got;
                    const std::size_t visited = oracle::forEachRingCell(
                        grid, center, r,
                        [&](const GridCell &c) { got.push_back(c); });
                    ASSERT_EQ(got, want)
                        << "center (" << cx << ", " << cy << ", " << cz
                        << ") ring " << r;
                    ASSERT_EQ(visited, want.size());
                }
            }
        }
    }
}

TEST(VoxelGrid, OccupiedScanMatchesPerCellWalk)
{
    // gatherRingPoints switches between walking the shell's rows and
    // scanning the occupied-cell list. Both paths
    // must yield identical points in identical order and identical
    // lookup counts; compare against the binary-search walk at deep
    // levels where the fast path engages.
    const Octree tree = makeTree(400, 33, /*depth=*/10);
    const VoxelGrid grid(tree, 7); // deep: shells >> occupied cells
    const GridCell center = grid.cellOf({0.4f, 0.6f, 0.5f});
    for (int r = 0; r < 24; ++r) {
        std::vector<PointIndex> naive;
        const std::size_t visited =
            searchRingWalk(tree, grid.level(), center, r, naive);
        std::vector<PointIndex> fast;
        const std::size_t lookups =
            grid.gatherRingPoints(center, r, fast);
        EXPECT_EQ(fast, naive) << "ring " << r;
        EXPECT_EQ(lookups, visited) << "ring " << r;
    }
}

TEST(VoxelGrid, OccupiedCellsCoverEveryPoint)
{
    const Octree tree = makeTree(600, 41);
    const VoxelGrid grid(tree, 3);
    const auto &occ = grid.occupiedCells();
    std::size_t covered = 0;
    for (std::size_t i = 0; i < occ.size(); ++i) {
        EXPECT_LT(occ[i].first, occ[i].last);
        EXPECT_EQ(grid.cellCount(occ[i].cell),
                  occ[i].last - occ[i].first);
        covered += occ[i].last - occ[i].first;
        if (i > 0) {
            const GridCell &a = occ[i - 1].cell;
            const GridCell &b = occ[i].cell;
            const bool lex_ordered =
                a.x != b.x ? a.x < b.x
                           : (a.y != b.y ? a.y < b.y : a.z < b.z);
            EXPECT_TRUE(lex_ordered) << "occupied list unsorted";
        }
    }
    EXPECT_EQ(covered, 600u);
}

} // namespace
} // namespace hgpcn
