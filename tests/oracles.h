/**
 * @file
 * Independent references that tests hold the library's spatial
 * queries to. Neither shares code with the occupied-row table that
 * the library serves cells and rings from:
 *
 *  - forEachRingCell() is the modeled DSU's cell-by-cell walk of a
 *    Chebyshev shell, one table lookup per in-grid cell;
 *  - voxelRange() resolves a voxel's reordered point range by binary
 *    search over the octree's sorted point codes (two Octree-Table
 *    lookups in hardware).
 */

#ifndef HGPCN_TESTS_ORACLES_H
#define HGPCN_TESTS_ORACLES_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "octree/octree.h"
#include "octree/voxel_grid.h"

namespace hgpcn
{
namespace oracle
{

/**
 * Visit every in-grid cell of the Chebyshev shell at distance
 * @p ring from @p center (ring 0 = the center cell itself) of
 * @p grid, in (x, y, z) order. Rows where x or y lies on the shell
 * are visited whole; every other row contributes only its two
 * z-faces, so no cell of the enclosed box is tested and skipped.
 *
 * @return number of cells visited (VoxelGrid::shellCellCount()).
 */
template <typename Fn>
std::size_t
forEachRingCell(const VoxelGrid &grid, const GridCell &center, int ring,
                Fn &&fn)
{
    HGPCN_ASSERT(ring >= 0, "negative ring");
    const std::int32_t last = grid.cellsPerAxis() - 1;
    const std::int32_t x0 = std::max(center.x - ring, 0);
    const std::int32_t x1 = std::min(center.x + ring, last);
    const std::int32_t y0 = std::max(center.y - ring, 0);
    const std::int32_t y1 = std::min(center.y + ring, last);
    const std::int32_t z0 = std::max(center.z - ring, 0);
    const std::int32_t z1 = std::min(center.z + ring, last);
    if (x0 > x1 || y0 > y1 || z0 > z1)
        return 0;
    // With the z range non-empty, a z-face lies in the grid iff it
    // was not clipped. Ring 0 never reaches the face branch: its
    // only x is on the shell.
    const bool z_lo_face = center.z - ring == z0;
    const bool z_hi_face = center.z + ring == z1;
    std::size_t visited = 0;
    for (std::int32_t x = x0; x <= x1; ++x) {
        const bool x_on = x == center.x - ring || x == center.x + ring;
        for (std::int32_t y = y0; y <= y1; ++y) {
            if (x_on || y == center.y - ring || y == center.y + ring) {
                for (std::int32_t z = z0; z <= z1; ++z)
                    fn(GridCell{x, y, z});
                visited += static_cast<std::size_t>(z1 - z0 + 1);
                continue;
            }
            if (z_lo_face) {
                fn(GridCell{x, y, z0});
                ++visited;
            }
            if (z_hi_face) {
                fn(GridCell{x, y, z1});
                ++visited;
            }
        }
    }
    return visited;
}

/**
 * @return range [first, last) of reordered point indices of @p tree
 * lying in the voxel (@p code, @p level), whether or not a node
 * exists at exactly that level: two binary searches over the sorted
 * point codes. An empty voxel's range sits at its code's insertion
 * point.
 */
inline std::pair<PointIndex, PointIndex>
voxelRange(const Octree &tree, morton::Code code, int level)
{
    const int depth = tree.config().maxDepth;
    HGPCN_ASSERT(level >= 0 && level <= depth, "level=", level);
    const std::vector<morton::Code> &codes = tree.pointCodes();
    const int shift = 3 * (depth - level);
    const morton::Code lo = code << shift;
    const morton::Code hi = (code + 1) << shift;
    const auto first = std::lower_bound(codes.begin(), codes.end(), lo);
    const auto last = std::lower_bound(first, codes.end(), hi);
    return {static_cast<PointIndex>(first - codes.begin()),
            static_cast<PointIndex>(last - codes.begin())};
}

} // namespace oracle
} // namespace hgpcn

#endif // HGPCN_TESTS_ORACLES_H
