/**
 * @file
 * Uniform voxel-grid view of an octree level.
 *
 * The Voxel-Expanded Gathering method (Section VI) expands voxel
 * shells around a central point's voxel: ring 1 is the 26 voxels
 * touching the seed voxel, ring 2 the next shell, and so on (Fig. 8).
 * Because the reordered point array is sorted by full-depth m-code,
 * the points of *any* voxel at *any* level form a contiguous range,
 * so each ring cell costs one Octree-Table range lookup. On the host
 * that lookup is one probe of a hash table over the level's occupied
 * cells.
 */

#ifndef HGPCN_OCTREE_VOXEL_GRID_H
#define HGPCN_OCTREE_VOXEL_GRID_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "geometry/point_delta.h"
#include "octree/octree.h"

namespace hgpcn
{

/** Integer cell address at a fixed octree level. */
struct GridCell
{
    std::int32_t x = 0;
    std::int32_t y = 0;
    std::int32_t z = 0;

    bool
    operator==(const GridCell &o) const
    {
        return x == o.x && y == o.y && z == o.z;
    }
};

/** One occupied cell of a level: coordinates + reordered range. */
struct OccupiedCell
{
    GridCell cell;
    PointIndex first = 0; //!< reordered range start
    PointIndex last = 0;  //!< reordered range end (exclusive)
};

/**
 * A read-only uniform-grid view over one level of an octree.
 */
class VoxelGrid
{
  public:
    /**
     * Create a view at @p level (0..tree.config().maxDepth).
     * The Octree must outlive the view.
     */
    VoxelGrid(const Octree &tree, int level);

    /**
     * Create a view whose occupied-cell list is borrowed from
     * @p external (must equal what buildOccupiedCells() would
     * produce for this tree/level, and must outlive the view).
     * The temporal-coherence cache path: the list is maintained
     * incrementally across frames instead of rebuilt per view.
     */
    VoxelGrid(const Octree &tree, int level,
              const std::vector<OccupiedCell> *external);

    /**
     * View @p level of @p tree instead, as if constructed afresh,
     * keeping the lazy tables' storage (a reused view allocates
     * nothing for trees no larger than those it served before).
     */
    void rebind(const Octree &tree, int level);

    /** @return entries the lazy tables can hold (growth
     * accounting). */
    std::size_t
    capacity() const
    {
        return occ.capacity() + occ_scratch.capacity() + table.capacity();
    }

    /** @return level viewed. */
    int level() const { return lvl; }

    /** @return cells per axis (2^level). */
    std::int32_t cellsPerAxis() const { return axis_cells; }

    /** @return cell containing position @p p. */
    GridCell cellOf(const Vec3 &p) const;

    /** @return true when @p c lies inside the grid. */
    bool inGrid(const GridCell &c) const;

    /**
     * @return [first, last) of reordered point indices inside cell
     * @p c ({0, 0} for out-of-grid and unoccupied cells): one probe
     * of the occupied-cell table, built lazily from occupiedCells().
     */
    std::pair<PointIndex, PointIndex> cellRange(const GridCell &c) const;

    /** @return number of points in cell @p c. */
    std::uint32_t cellCount(const GridCell &c) const;

    /**
     * Visit every in-grid cell of the Chebyshev shell at distance
     * @p ring from @p center (ring 0 = the center cell itself), in
     * (x, y, z) order. Rows where x or y lies on the shell are
     * visited whole; every other row contributes only its two
     * z-faces, so no cell of the enclosed box is tested and skipped.
     *
     * @return number of cells visited.
     */
    template <typename Fn>
    std::size_t forEachRingCell(const GridCell &center, int ring,
                                Fn &&fn) const;

    /** @return total points in the Chebyshev shell at @p ring. */
    std::uint32_t ringPointCount(const GridCell &center, int ring) const;

    /**
     * Append the reordered point indices of the shell at @p ring to
     * @p out.
     * @return number of table lookups performed (hardware cost).
     */
    std::size_t gatherRingPoints(const GridCell &center, int ring,
                                 std::vector<PointIndex> &out) const;

    /**
     * @return in-grid cell count of the shell at @p ring — the
     * number forEachRingCell() would visit — in O(1) (clipped-box
     * difference). This is the table-lookup cost the DSU model
     * charges for the ring, independent of how the host computed
     * the ring's points.
     */
    std::size_t shellCellCount(const GridCell &center, int ring) const;

    /**
     * @return the level's occupied cells with their reordered
     * ranges, sorted by (x, y, z); built lazily in one O(n) pass
     * over the point codes. The host-side shortcut behind
     * ringPointCount()/gatherRingPoints(): sparse or deep levels
     * serve rings by scanning this list instead of visiting every
     * (mostly empty) shell cell — same points, same order, same
     * modeled lookup counts (docs/PERFORMANCE.md).
     */
    const std::vector<OccupiedCell> &occupiedCells() const;

    /**
     * Build the lazy occupied-cell list and lookup table now. After
     * it, every query is a pure read, so one view may serve several
     * threads at once (the lazy members are not synchronized).
     */
    void prepare() const;

    /**
     * Pick a gathering level such that the expected voxel occupancy
     * suits K-neighbor gathering: roughly one to two points per
     * voxel, clamped to the octree's built depth.
     */
    static int autoLevel(std::size_t n_points, int max_level);

  private:
    /** One slot of the occupied-cell table; empty when key == kFree. */
    struct Slot
    {
        std::uint64_t key;
        PointIndex first;
        PointIndex last;
    };
    static constexpr std::uint64_t kFree = ~std::uint64_t{0};

    /** @return in-grid cells within Chebyshev distance @p radius of
     * @p center (clipped box volume); 0 when radius < 0. */
    std::size_t boxCellCount(const GridCell &center,
                             std::int32_t radius) const;

    /** Fill the occupied-cell table from occupiedCells(). */
    void buildTable() const;

    const Octree *octree;
    int lvl;
    std::int32_t axis_cells;
    /** Borrowed occupied-cell list (nullptr = build occ lazily). */
    const std::vector<OccupiedCell> *ext_occ = nullptr;
    /** Lazy occupied-cell list (single-threaded use until
     * prepare()). */
    mutable std::vector<OccupiedCell> occ;
    mutable std::vector<OccupiedCell> occ_scratch; //!< occ's sort buffer
    mutable bool occ_built = false;
    /** Lazy open-addressed (linear probing) table: packed cell
     * x | y << 21 | z << 42 -> [first, last); power-of-two size at
     * most half full. */
    mutable std::vector<Slot> table;
    mutable int table_shift = 64; //!< 64 - log2(table.size())
};

template <typename Fn>
std::size_t
VoxelGrid::forEachRingCell(const GridCell &center, int ring,
                           Fn &&fn) const
{
    HGPCN_ASSERT(ring >= 0, "negative ring");
    const std::int32_t x0 = std::max(center.x - ring, 0);
    const std::int32_t x1 = std::min(center.x + ring, axis_cells - 1);
    const std::int32_t y0 = std::max(center.y - ring, 0);
    const std::int32_t y1 = std::min(center.y + ring, axis_cells - 1);
    const std::int32_t z0 = std::max(center.z - ring, 0);
    const std::int32_t z1 = std::min(center.z + ring, axis_cells - 1);
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
 * Compute the occupied cells of @p level over @p tree into @p out —
 * the list occupiedCells() builds lazily, as a free function so
 * cross-frame caches can own the storage. @p scratch is the cell
 * sort's ping-pong buffer (ends holding out.size() stale entries);
 * both keep their capacity.
 */
void buildOccupiedCells(const Octree &tree, int level,
                        std::vector<OccupiedCell> &out,
                        std::vector<OccupiedCell> &scratch);

/** buildOccupiedCells() with a throwaway scratch, for one-off lists. */
inline void
buildOccupiedCells(const Octree &tree, int level,
                   std::vector<OccupiedCell> &out)
{
    std::vector<OccupiedCell> scratch;
    buildOccupiedCells(tree, level, out, scratch);
}

/**
 * Incrementally produce the occupied-cell list of @p new_tree at
 * @p level by patching @p prev_occ (the previous frame's list at the
 * same level over @p prev_tree) with the cross-frame @p delta:
 * clean cells keep their entry with point ranges remapped through
 * the delta; cells touched by an insertion or eviction are re-read
 * from the new tree. The dirty cells come from one forward walk
 * over the sorted codes and are merged with @p prev_occ in one
 * linear pass. Output is bit-identical to buildOccupiedCells() on
 * @p new_tree.
 *
 * @param dirty Caller-owned scratch for the dirty cells; keeps its
 *   capacity across calls (at most inserted + evicted entries).
 *   @p out serves as their sort's ping-pong buffer before it is
 *   rewritten.
 * @return false when patching cannot engage (level 0, or the trees'
 * depths differ); @p out is then untouched.
 */
bool patchOccupiedCells(const Octree &new_tree, int level,
                        const Octree &prev_tree,
                        const std::vector<OccupiedCell> &prev_occ,
                        const PointDelta &delta,
                        std::vector<OccupiedCell> &out,
                        std::vector<OccupiedCell> &dirty);

} // namespace hgpcn

#endif // HGPCN_OCTREE_VOXEL_GRID_H
