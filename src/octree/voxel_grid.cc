#include "octree/voxel_grid.h"

#include <algorithm>
#include <cstddef>

#include "common/logging.h"
#include "common/radix_sort.h"

namespace hgpcn
{

VoxelGrid::VoxelGrid(const Octree &tree, int level)
{
    rebind(tree, level);
}

void
VoxelGrid::rebind(const Octree &tree, int level)
{
    HGPCN_ASSERT(level >= 0 && level <= tree.config().maxDepth,
                 "grid level ", level, " outside octree depth ",
                 tree.config().maxDepth);
    octree = &tree;
    lvl = level;
    axis_cells = static_cast<std::int32_t>(1) << level;
    ext_occ = nullptr;
    occ_built = false;
    table.clear();
}

VoxelGrid::VoxelGrid(const Octree &tree, int level,
                     const std::vector<OccupiedCell> *external)
    : VoxelGrid(tree, level)
{
    ext_occ = external;
}

GridCell
VoxelGrid::cellOf(const Vec3 &p) const
{
    morton::CellCoord x = 0, y = 0, z = 0;
    morton::cellOf(p, octree->rootBounds(), lvl, x, y, z);
    return {static_cast<std::int32_t>(x), static_cast<std::int32_t>(y),
            static_cast<std::int32_t>(z)};
}

bool
VoxelGrid::inGrid(const GridCell &c) const
{
    return c.x >= 0 && c.x < axis_cells && c.y >= 0 && c.y < axis_cells &&
           c.z >= 0 && c.z < axis_cells;
}

void
VoxelGrid::buildTable() const
{
    const std::vector<OccupiedCell> &cells = occupiedCells();
    // The list is (x, y, z) sorted, so each row is one run of it.
    const auto row_end = [&cells](std::size_t i) {
        const GridCell &row = cells[i].cell;
        std::size_t j = i + 1;
        while (j < cells.size() && cells[j].cell.x == row.x &&
               cells[j].cell.y == row.y)
            ++j;
        return j;
    };
    std::size_t rows = 0;
    for (std::size_t i = 0; i < cells.size(); i = row_end(i))
        ++rows;
    std::size_t size = 2;
    table_shift = 63;
    while (size < 2 * rows) {
        size *= 2;
        --table_shift;
    }
    table.assign(size, Slot{kFree, 0, 0});
    const std::size_t mask = size - 1;
    for (std::size_t i = 0; i < cells.size();) {
        const std::size_t j = row_end(i);
        const std::uint64_t key = packRow(cells[i].cell.x, cells[i].cell.y);
        std::size_t at = slotOf(key);
        while (table[at].key != kFree)
            at = (at + 1) & mask;
        table[at] = {key, static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(j)};
        i = j;
    }
}

std::pair<PointIndex, PointIndex>
VoxelGrid::cellRange(const GridCell &c) const
{
    if (!inGrid(c))
        return {0, 0};
    prepare();
    const OccupiedCell *cells = occupiedCells().data();
    const auto [begin, end] = rowRun(c.x, c.y);
    const OccupiedCell *last = cells + end;
    const OccupiedCell *hit = lowerZ(cells + begin, last, c.z);
    if (hit == last || hit->cell.z != c.z)
        return {0, 0};
    return {hit->first, hit->last};
}

void
VoxelGrid::prepare() const
{
    if (table.empty())
        buildTable();
}

std::uint32_t
VoxelGrid::cellCount(const GridCell &c) const
{
    const auto [first, last] = cellRange(c);
    return last - first;
}

std::size_t
VoxelGrid::boxCellCount(const GridCell &center,
                        std::int32_t radius) const
{
    if (radius < 0)
        return 0;
    const auto span = [radius](std::int32_t c, std::int32_t n) {
        const std::int32_t lo = std::max(c - radius, std::int32_t{0});
        const std::int32_t hi = std::min(c + radius, n - 1);
        return hi >= lo ? static_cast<std::size_t>(hi - lo + 1)
                        : std::size_t{0};
    };
    return span(center.x, axis_cells) * span(center.y, axis_cells) *
           span(center.z, axis_cells);
}

std::size_t
VoxelGrid::shellCellCount(const GridCell &center, int ring) const
{
    HGPCN_ASSERT(ring >= 0, "negative ring");
    if (ring == 0)
        return inGrid(center) ? 1 : 0;
    return boxCellCount(center, ring) -
           boxCellCount(center, ring - 1);
}

namespace
{

/** The (x, y, z) order ring scans and per-cell walks agree on. */
inline bool
cellLess(const GridCell &a, const GridCell &b)
{
    if (a.x != b.x)
        return a.x < b.x;
    if (a.y != b.y)
        return a.y < b.y;
    return a.z < b.z;
}

/**
 * Sort distinct @p cells of @p level into cellLess() order in place:
 * one radix sort on the packed key x | y | z (level bits each, x
 * most significant), @p scratch as its ping-pong buffer.
 */
void
sortCells(std::vector<OccupiedCell> &cells, int level,
          std::vector<OccupiedCell> &scratch)
{
    const auto key = [level](const OccupiedCell &c) {
        return static_cast<std::uint64_t>(c.cell.x) << (2 * level) |
               static_cast<std::uint64_t>(c.cell.y) << level |
               static_cast<std::uint64_t>(c.cell.z);
    };
    const std::vector<OccupiedCell> &sorted =
        radixSort(cells, scratch, 3 * level, key);
    if (&sorted != &cells)
        std::copy(sorted.begin(), sorted.end(), cells.begin());
}

} // namespace

void
buildOccupiedCells(const Octree &tree, int level,
                   std::vector<OccupiedCell> &out,
                   std::vector<OccupiedCell> &scratch)
{
    out.clear();
    const std::vector<morton::Code> &codes = tree.pointCodes();
    const std::size_t n = codes.size();
    if (level == 0) {
        if (n > 0) {
            out.push_back({GridCell{0, 0, 0}, 0,
                           static_cast<PointIndex>(n)});
        }
        return;
    }
    // Points are sorted by full-depth m-code, so every level-level
    // cell is one contiguous run of equal code prefixes.
    const int shift = 3 * (tree.config().maxDepth - level);
    std::size_t i = 0;
    while (i < n) {
        const morton::Code prefix = codes[i] >> shift;
        std::size_t j = i + 1;
        while (j < n && (codes[j] >> shift) == prefix)
            ++j;
        morton::CellCoord x = 0, y = 0, z = 0;
        morton::decode3(prefix, level, x, y, z);
        out.push_back({GridCell{static_cast<std::int32_t>(x),
                                static_cast<std::int32_t>(y),
                                static_cast<std::int32_t>(z)},
                       static_cast<PointIndex>(i),
                       static_cast<PointIndex>(j)});
        i = j;
    }
    // Ring scans must emit cells in the same (x, y, z) order the
    // per-cell walk visits them in.
    sortCells(out, level, scratch);
}

namespace
{

/**
 * First index in [from, codes.size()) whose level prefix
 * (code >> shift) is >= @p prefix. Gallops forward from @p from, so a
 * run of ascending queries walks the code array once.
 */
std::size_t
seekPrefix(const std::vector<morton::Code> &codes, std::size_t from,
           morton::Code prefix, int shift)
{
    const std::size_t n = codes.size();
    std::size_t lo = from;
    std::size_t step = 1;
    while (lo + step <= n && (codes[lo + step - 1] >> shift) < prefix) {
        lo += step;
        step *= 2;
    }
    const auto below = [shift](morton::Code c, morton::Code p) {
        return (c >> shift) < p;
    };
    return static_cast<std::size_t>(
        std::lower_bound(codes.begin() + static_cast<std::ptrdiff_t>(lo),
                         codes.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(lo + step, n)),
                         prefix, below) -
        codes.begin());
}

} // namespace

bool
patchOccupiedCells(const Octree &new_tree, int level,
                   const Octree &prev_tree,
                   const std::vector<OccupiedCell> &prev_occ,
                   const PointDelta &delta,
                   std::vector<OccupiedCell> &out,
                   std::vector<OccupiedCell> &dirty)
{
    if (level < 1 ||
        new_tree.config().maxDepth != prev_tree.config().maxDepth ||
        level > new_tree.config().maxDepth)
        return false;

    const int shift = 3 * (new_tree.config().maxDepth - level);
    const std::vector<morton::Code> &new_codes = new_tree.pointCodes();
    const std::vector<morton::Code> &old_codes = prev_tree.pointCodes();
    const std::vector<PointIndex> &ins = delta.insertedNew;
    const std::vector<PointIndex> &evs = delta.evictedOld;

    // Dirty cells: level prefixes of every inserted (new codes) and
    // evicted (old codes) point. Both slot lists ascend, so their
    // prefixes do too; merge them unique and read each cell's new
    // range off one forward walk over the new codes. Everything else
    // kept its point set, so its entry survives with remapped ranges.
    // A cell whose points were all evicted gets an empty range.
    dirty.clear();
    dirty.reserve(ins.size() + evs.size());
    std::size_t i = 0;
    std::size_t e = 0;
    std::size_t cursor = 0;
    while (i < ins.size() || e < evs.size()) {
        morton::Code prefix;
        if (e == evs.size())
            prefix = new_codes[ins[i]] >> shift;
        else if (i == ins.size())
            prefix = old_codes[evs[e]] >> shift;
        else
            prefix = std::min(new_codes[ins[i]] >> shift,
                              old_codes[evs[e]] >> shift);
        while (i < ins.size() && (new_codes[ins[i]] >> shift) == prefix)
            ++i;
        while (e < evs.size() && (old_codes[evs[e]] >> shift) == prefix)
            ++e;
        const std::size_t first =
            seekPrefix(new_codes, cursor, prefix, shift);
        cursor = seekPrefix(new_codes, first, prefix + 1, shift);
        morton::CellCoord x = 0, y = 0, z = 0;
        morton::decode3(prefix, level, x, y, z);
        dirty.push_back({GridCell{static_cast<std::int32_t>(x),
                                  static_cast<std::int32_t>(y),
                                  static_cast<std::int32_t>(z)},
                         static_cast<PointIndex>(first),
                         static_cast<PointIndex>(cursor)});
    }
    // out is rewritten below, so it lends its storage to the sort.
    sortCells(dirty, level, out);

    // Merge clean entries (prev list order, already (x, y, z)
    // sorted) with the dirty ones, dropping emptied cells. A clean
    // cell saw no insert or evict, so its points map to one
    // consecutive run of new slots: newFromOld of its first point
    // starts the run.
    out.clear();
    out.reserve(prev_occ.size() + dirty.size());
    std::size_t d = 0;
    const auto emit_dirty = [&out, &dirty, &d] {
        if (dirty[d].first != dirty[d].last)
            out.push_back(dirty[d]);
        ++d;
    };
    for (const OccupiedCell &c : prev_occ) {
        while (d < dirty.size() && cellLess(dirty[d].cell, c.cell))
            emit_dirty();
        if (d < dirty.size() && dirty[d].cell == c.cell) {
            emit_dirty();
            continue;
        }
        const PointIndex first = delta.newFromOld[c.first];
        HGPCN_ASSERT(first != kNoPoint,
                     "clean cell lost its first point");
        out.push_back(
            {c.cell, first,
             static_cast<PointIndex>(first + (c.last - c.first))});
    }
    while (d < dirty.size())
        emit_dirty();
    return true;
}

const std::vector<OccupiedCell> &
VoxelGrid::occupiedCells() const
{
    if (ext_occ != nullptr)
        return *ext_occ;
    if (occ_built)
        return occ;
    occ_built = true;
    buildOccupiedCells(*octree, lvl, occ, occ_scratch);
    return occ;
}

std::size_t
VoxelGrid::gatherRingPoints(const GridCell &center, int ring,
                            std::vector<PointIndex> &out) const
{
    return forEachRingRange(center, ring,
                            [&out](PointIndex first, PointIndex last) {
                                for (PointIndex i = first; i < last; ++i)
                                    out.push_back(i);
                            });
}

int
VoxelGrid::autoLevel(std::size_t n_points, int max_level)
{
    // Aim for ~1.5 points per occupied voxel so that the 27-cell
    // ring-0/ring-1 neighborhood covers a typical K of 16-64.
    int level = 1;
    double cells = 8.0;
    while (level < max_level &&
           static_cast<double>(n_points) / cells > 1.5) {
        ++level;
        cells *= 8.0;
    }
    return level;
}

} // namespace hgpcn
