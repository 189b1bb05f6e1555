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
 * the shell is served one (x, y) row at a time: one probe of a hash
 * table over the level's occupied rows yields the row's z-sorted run
 * of occupied cells, so empty cells are never probed.
 */

#ifndef HGPCN_OCTREE_VOXEL_GRID_H
#define HGPCN_OCTREE_VOXEL_GRID_H

#include <algorithm>
#include <cstdint>
#include <cstdlib>
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
     * of the occupied-row table (built lazily from occupiedCells()),
     * then a search of the row's run for z.
     */
    std::pair<PointIndex, PointIndex> cellRange(const GridCell &c) const;

    /** @return number of points in cell @p c. */
    std::uint32_t cellCount(const GridCell &c) const;

    /**
     * Call @p fn(first, last) with the reordered point range of each
     * occupied cell of the Chebyshev shell at distance @p ring from
     * @p center (ring 0 = the center cell itself), in (x, y, z) cell
     * order, touching no empty cell (the modeled DSU walks every
     * in-grid cell of the shell). Small shells probe the occupied-row
     * table once per (x, y) row of the shell and read the row's cells
     * with z in [z0, z1] (rows on the shell's x or y faces) or its two
     * z-face cells (other rows); shells over half the list scan it.
     *
     * @return shellCellCount(), the lookups the modeled walk costs
     * whatever the host read (docs/PERFORMANCE.md).
     */
    template <typename Fn>
    std::size_t forEachRingRange(const GridCell &center, int ring,
                                 Fn &&fn) const;

    /**
     * Append the reordered point indices of the shell at @p ring to
     * @p out, in (x, y, z) cell order.
     * @return number of table lookups the modeled walk performs
     * (shellCellCount(), the hardware cost).
     */
    std::size_t gatherRingPoints(const GridCell &center, int ring,
                                 std::vector<PointIndex> &out) const;

    /**
     * @return in-grid cell count of the shell at @p ring — the
     * cells the modeled walk visits — in O(1) (clipped-box
     * difference). This is the table-lookup cost the DSU model
     * charges for the ring, independent of how the host computed
     * the ring's points.
     */
    std::size_t shellCellCount(const GridCell &center, int ring) const;

    /**
     * @return the level's occupied cells with their reordered
     * ranges, sorted by (x, y, z); built lazily in one O(n) pass
     * over the point codes. Each (x, y) row's occupied cells form
     * one run of it, which the occupied-row table indexes; shells
     * larger than half the list are served by scanning it instead —
     * same points, same order, same modeled lookup counts
     * (docs/PERFORMANCE.md).
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
    /** One slot of the occupied-row table, empty when key ==
     * kFree: the row's run [begin, end) of occupiedCells(). */
    struct Slot
    {
        std::uint64_t key;
        std::uint32_t begin;
        std::uint32_t end;
    };
    static constexpr std::uint64_t kFree = ~std::uint64_t{0};

    /** @return in-grid cells within Chebyshev distance @p radius of
     * @p center (clipped box volume); 0 when radius < 0. */
    std::size_t boxCellCount(const GridCell &center,
                             std::int32_t radius) const;

    /** Fill the occupied-row table from occupiedCells(). */
    void buildTable() const;

    /** Table key of row (x, y): 21 bits per axis (levels <=
     * kMaxDepth3d). */
    static std::uint64_t
    packRow(std::int32_t x, std::int32_t y)
    {
        return static_cast<std::uint64_t>(x) |
               static_cast<std::uint64_t>(y) << 21;
    }

    /** @return Fibonacci hash of @p key onto the table's slots. */
    std::size_t
    slotOf(std::uint64_t key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                        table_shift);
    }

    /** @return first cell of the z-sorted run [first, last) with
     * z >= @p z. */
    static const OccupiedCell *
    lowerZ(const OccupiedCell *first, const OccupiedCell *last,
           std::int32_t z)
    {
        while (first != last && first->cell.z < z)
            ++first;
        return first;
    }

    /** @return [begin, end) of occupiedCells() holding in-grid row
     * (@p x, @p y); empty when the row is unoccupied. The table must
     * be built. */
    std::pair<std::uint32_t, std::uint32_t>
    rowRun(std::int32_t x, std::int32_t y) const;

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
    /** Lazy open-addressed (linear probing) table: packed row
     * x | y << 21 -> its run of occupiedCells(); power-of-two size
     * at most half full. */
    mutable std::vector<Slot> table;
    mutable int table_shift = 64; //!< 64 - log2(table.size())
};

inline std::pair<std::uint32_t, std::uint32_t>
VoxelGrid::rowRun(std::int32_t x, std::int32_t y) const
{
    const std::uint64_t key = packRow(x, y);
    const std::size_t mask = table.size() - 1;
    for (std::size_t i = slotOf(key);; i = (i + 1) & mask) {
        const Slot &s = table[i];
        if (s.key == key)
            return {s.begin, s.end};
        if (s.key == kFree)
            return {0, 0};
    }
}

template <typename Fn>
std::size_t
VoxelGrid::forEachRingRange(const GridCell &center, int ring,
                            Fn &&fn) const
{
    const std::size_t shell = shellCellCount(center, ring);
    const std::vector<OccupiedCell> &cells = occupiedCells();
    if (shell > cells.size() / 2) {
        for (const OccupiedCell &c : cells) {
            const std::int32_t dist = std::max(
                {std::abs(c.cell.x - center.x),
                 std::abs(c.cell.y - center.y),
                 std::abs(c.cell.z - center.z)});
            if (dist == ring)
                fn(c.first, c.last);
        }
        return shell;
    }
    const std::int32_t x0 = std::max(center.x - ring, 0);
    const std::int32_t x1 = std::min(center.x + ring, axis_cells - 1);
    const std::int32_t y0 = std::max(center.y - ring, 0);
    const std::int32_t y1 = std::min(center.y + ring, axis_cells - 1);
    const std::int32_t z0 = std::max(center.z - ring, 0);
    const std::int32_t z1 = std::min(center.z + ring, axis_cells - 1);
    if (x0 > x1 || y0 > y1 || z0 > z1)
        return shell;
    if (table.empty())
        buildTable();
    // A z-face lies in the grid iff it was not clipped; ring 0 never
    // reaches the face branch (its only x is on the shell).
    const bool z_lo_face = center.z - ring == z0;
    const bool z_hi_face = center.z + ring == z1;
    for (std::int32_t x = x0; x <= x1; ++x) {
        const bool x_on = x == center.x - ring || x == center.x + ring;
        for (std::int32_t y = y0; y <= y1; ++y) {
            const auto [begin, end] = rowRun(x, y);
            if (begin == end)
                continue;
            const OccupiedCell *last = cells.data() + end;
            const OccupiedCell *c = lowerZ(cells.data() + begin, last, z0);
            if (x_on || y == center.y - ring || y == center.y + ring) {
                for (; c != last && c->cell.z <= z1; ++c)
                    fn(c->first, c->last);
                continue;
            }
            if (z_lo_face && c != last && c->cell.z == z0)
                fn(c->first, c->last);
            if (z_hi_face) {
                c = lowerZ(c, last, z1);
                if (c != last && c->cell.z == z1)
                    fn(c->first, c->last);
            }
        }
    }
    return shell;
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
