#include "knn/spatial_hash_knn.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "core/frame_workspace.h"
#include "geometry/point_delta.h"
#include "knn/top_k.h"

namespace hgpcn
{

namespace
{

/**
 * Shrink factor applied to the ring lower bound before comparing it
 * to a float-computed squared distance. distSq() carries a few ULP
 * of rounding; the slack keeps the bound conservative (scan one ring
 * more rather than miss a boundary neighbor), preserving exactness.
 */
constexpr double kBoundSlack = 1.0 - 1e-4;

} // namespace

SpatialHashKnn::SpatialHashKnn(std::span<const Vec3> positions,
                               FrameWorkspace *ws)
    : SpatialHashKnn(positions, Config(), ws)
{
}

SpatialHashKnn::SpatialHashKnn(std::span<const Vec3> positions,
                               const Config &config, FrameWorkspace *ws)
{
    rebuild(positions, config, ws);
}

void
SpatialHashKnn::rebuild(std::span<const Vec3> positions,
                        const Config &config, FrameWorkspace *ws)
{
    pts = positions;
    cfg = config;
    workspace = ws;
    grid_built = false;
    origin = Vec3{};
    cell = 0.0f;
    nx = ny = nz = 1;

    HGPCN_ASSERT(!pts.empty(), "empty cloud");
    const std::size_t n = pts.size();

    cell_start = &own_start;
    order = &own_order;
    cell_of = &own_cell_of;
    scored_buf = &own_scored;
    if (workspace != nullptr) {
        cell_start = &workspace->knn.cellStart;
        order = &workspace->knn.order;
        cell_of = &workspace->knn.pointCell;
        scored_buf = &workspace->knn.scored;
    }

    if (n <= cfg.bruteThreshold)
        return; // query loop scans all points

    // --- Grid geometry: cubic cells sized for ~targetOccupancy
    // points per cell, per-axis counts following the bounds.
    Vec3 lo = pts[0];
    Vec3 hi = pts[0];
    for (const Vec3 &p : pts) {
        lo.x = std::min(lo.x, p.x);
        lo.y = std::min(lo.y, p.y);
        lo.z = std::min(lo.z, p.z);
        hi.x = std::max(hi.x, p.x);
        hi.y = std::max(hi.y, p.y);
        hi.z = std::max(hi.z, p.z);
    }
    const Vec3 extent = hi - lo;
    const float max_extent =
        std::max(extent.x, std::max(extent.y, extent.z));
    if (!(max_extent > 0.0f))
        return; // all points coincide: one implicit cell, scan all

    const double want_cells =
        static_cast<double>(n) / std::max(cfg.targetOccupancy, 1e-6);
    std::int32_t axis_cells =
        static_cast<std::int32_t>(std::lround(std::cbrt(want_cells)));
    axis_cells = std::clamp(axis_cells, std::int32_t{1},
                            cfg.maxCellsPerAxis);
    origin = lo;
    cell = max_extent / static_cast<float>(axis_cells);

    const auto cells_for = [&](float e) {
        const std::int32_t c = static_cast<std::int32_t>(
            std::floor(e / cell)) + 1;
        return std::clamp(c, std::int32_t{1}, axis_cells + 1);
    };
    nx = cells_for(extent.x);
    ny = cells_for(extent.y);
    nz = cells_for(extent.z);

    // --- Counting sort into CSR buckets.
    const std::size_t cells = static_cast<std::size_t>(nx) * ny * nz;
    if (workspace != nullptr) {
        workspace->ensure(*cell_start, cells + 1);
        workspace->ensure(*order, n);
        workspace->ensure(*cell_of, n);
    }
    cell_start->assign(cells + 1, 0);
    order->resize(n);
    cell_of->resize(n);

    std::vector<std::uint32_t> &cs = *cell_start;
    for (std::size_t i = 0; i < n; ++i) {
        const CellCoord c = cellOf(pts[i]);
        const std::uint32_t id = static_cast<std::uint32_t>(
            cellId(c.x, c.y, c.z));
        (*cell_of)[i] = id;
        ++cs[id + 1];
    }
    for (std::size_t c = 0; c < cells; ++c)
        cs[c + 1] += cs[c];
    // Scatter through cs[id] (start offsets), which turns each
    // cs[id] into its bucket's end; shift right afterwards to
    // restore the starts — no cursor array, no extra allocation.
    for (std::size_t i = 0; i < n; ++i)
        (*order)[cs[(*cell_of)[i]]++] = static_cast<PointIndex>(i);
    for (std::size_t c = cells; c > 0; --c)
        cs[c] = cs[c - 1];
    cs[0] = 0;

    grid_built = true;
}

bool
SpatialHashKnn::rebuildFrom(const SpatialHashKnn &prev,
                            std::span<const Vec3> positions,
                            const PointDelta &delta)
{
    // Incremental fill needs the previous bucket layout to be owned
    // (workspace buffers are shared and may have been overwritten)
    // and the grid path to have run on both sides.
    if (prev.workspace != nullptr || !prev.grid_built)
        return false;
    const std::size_t n = positions.size();
    const std::size_t n_old = prev.pts.size();
    if (n == 0 || prev.own_cell_of.size() != n_old ||
        delta.newFromOld.size() != n_old)
        return false;
    if (n <= prev.cfg.bruteThreshold)
        return false;

    // Derive the grid geometry exactly as rebuild() would and demand
    // bit-identity with the previous frame's: only then does every
    // retained point provably keep its cell id.
    Vec3 lo = positions[0];
    Vec3 hi = positions[0];
    for (const Vec3 &p : positions) {
        lo.x = std::min(lo.x, p.x);
        lo.y = std::min(lo.y, p.y);
        lo.z = std::min(lo.z, p.z);
        hi.x = std::max(hi.x, p.x);
        hi.y = std::max(hi.y, p.y);
        hi.z = std::max(hi.z, p.z);
    }
    const Vec3 extent = hi - lo;
    const float max_extent =
        std::max(extent.x, std::max(extent.y, extent.z));
    if (!(max_extent > 0.0f))
        return false;

    const double want_cells = static_cast<double>(n) /
                              std::max(prev.cfg.targetOccupancy, 1e-6);
    std::int32_t axis_cells =
        static_cast<std::int32_t>(std::lround(std::cbrt(want_cells)));
    axis_cells = std::clamp(axis_cells, std::int32_t{1},
                            prev.cfg.maxCellsPerAxis);
    const float new_cell =
        max_extent / static_cast<float>(axis_cells);
    const auto cells_for = [&](float e) {
        const std::int32_t c = static_cast<std::int32_t>(
            std::floor(e / new_cell)) + 1;
        return std::clamp(c, std::int32_t{1}, axis_cells + 1);
    };
    if (std::memcmp(&lo.x, &prev.origin.x, sizeof(float)) != 0 ||
        std::memcmp(&lo.y, &prev.origin.y, sizeof(float)) != 0 ||
        std::memcmp(&lo.z, &prev.origin.z, sizeof(float)) != 0 ||
        std::memcmp(&new_cell, &prev.cell, sizeof(float)) != 0 ||
        cells_for(extent.x) != prev.nx ||
        cells_for(extent.y) != prev.ny ||
        cells_for(extent.z) != prev.nz)
        return false;

    pts = positions;
    cfg = prev.cfg;
    workspace = nullptr;
    origin = prev.origin;
    cell = prev.cell;
    nx = prev.nx;
    ny = prev.ny;
    nz = prev.nz;
    cell_start = &own_start;
    order = &own_order;
    cell_of = &own_cell_of;
    scored_buf = &own_scored;

    const std::size_t cells = static_cast<std::size_t>(nx) * ny * nz;
    std::vector<std::uint32_t> &cs = own_start;
    cs.resize(cells + 1);
    own_order.resize(n);
    own_cell_of.resize(n);
    dirty_cells.assign(cells, 0);

    // Bucket counts: previous counts adjusted by the delta.
    cs[0] = 0;
    for (std::size_t c = 0; c < cells; ++c)
        cs[c + 1] = prev.own_start[c + 1] - prev.own_start[c];
    for (const PointIndex e : delta.evictedOld) {
        const std::uint32_t id = prev.own_cell_of[e];
        --cs[id + 1];
        dirty_cells[id] = 1;
    }
    cell_inserts.clear();
    for (const PointIndex i : delta.insertedNew) {
        const CellCoord c = cellOf(positions[i]);
        const std::uint32_t id =
            static_cast<std::uint32_t>(cellId(c.x, c.y, c.z));
        ++cs[id + 1];
        dirty_cells[id] = 1;
        cell_inserts.emplace_back(id, i);
    }
    // insertedNew ascends, so sorting by cell keeps slots ascending
    // within each cell — the stable counting-sort order.
    std::sort(cell_inserts.begin(), cell_inserts.end());
    for (std::size_t c = 0; c < cells; ++c)
        cs[c + 1] += cs[c];
    HGPCN_ASSERT(cs[cells] == n, "incremental bucket counts drifted");

    // Fill buckets in ascending cell order. Clean cells remap their
    // previous order through newFromOld (monotone, so the remapped
    // run is already in ascending new-index order — exactly what the
    // stable counting sort would emit). Dirty cells merge the
    // remapped survivors with their sorted insertions.
    std::size_t ins = 0;
    for (std::size_t id = 0; id < cells; ++id) {
        std::uint32_t w = cs[id];
        const std::uint32_t pf = prev.own_start[id];
        const std::uint32_t pl = prev.own_start[id + 1];
        if (!dirty_cells[id]) {
            for (std::uint32_t s = pf; s < pl; ++s) {
                const PointIndex np =
                    delta.newFromOld[prev.own_order[s]];
                own_order[w++] = np;
                own_cell_of[np] =
                    static_cast<std::uint32_t>(id);
            }
            continue;
        }
        std::uint32_t s = pf;
        PointIndex np = kNoPoint;
        while (s < pl &&
               (np = delta.newFromOld[prev.own_order[s]]) ==
                   kNoPoint)
            ++s;
        while (s < pl || (ins < cell_inserts.size() &&
                          cell_inserts[ins].first == id)) {
            const bool take_ins =
                s >= pl ||
                (ins < cell_inserts.size() &&
                 cell_inserts[ins].first == id &&
                 cell_inserts[ins].second < np);
            PointIndex take;
            if (take_ins) {
                take = cell_inserts[ins++].second;
            } else {
                take = np;
                ++s;
                while (s < pl &&
                       (np = delta.newFromOld[prev.own_order[s]]) ==
                           kNoPoint)
                    ++s;
            }
            own_order[w++] = take;
            own_cell_of[take] = static_cast<std::uint32_t>(id);
        }
        HGPCN_ASSERT(w == cs[id + 1],
                     "incremental bucket fill drifted at cell ", id);
    }
    HGPCN_ASSERT(ins == cell_inserts.size(),
                 "incremental fill dropped insertions");

    grid_built = true;
    return true;
}

SpatialHashKnn::CellCoord
SpatialHashKnn::cellOf(const Vec3 &p) const
{
    const auto coord = [this](float v, float o, std::int32_t limit) {
        const std::int32_t c =
            static_cast<std::int32_t>(std::floor((v - o) / cell));
        return std::clamp(c, std::int32_t{0}, limit - 1);
    };
    return {coord(p.x, origin.x, nx), coord(p.y, origin.y, ny),
            coord(p.z, origin.z, nz)};
}

std::size_t
SpatialHashKnn::cellId(std::int32_t x, std::int32_t y,
                       std::int32_t z) const
{
    return (static_cast<std::size_t>(z) * ny + y) * nx + x;
}

std::size_t
SpatialHashKnn::scanRing(
    const CellCoord &center, std::int32_t r, const Vec3 &q,
    std::vector<std::pair<float, PointIndex>> &scored) const
{
    std::size_t visited = 0;
    const auto scan_cell = [&](std::int32_t x, std::int32_t y,
                               std::int32_t z) {
        const std::size_t id = cellId(x, y, z);
        const std::uint32_t first = (*cell_start)[id];
        const std::uint32_t last = (*cell_start)[id + 1];
        for (std::uint32_t s = first; s < last; ++s) {
            const PointIndex p = (*order)[s];
            scored.emplace_back(pts[p].distSq(q), p);
        }
        ++visited;
    };

    const std::int32_t x0 = std::max(center.x - r, 0);
    const std::int32_t x1 = std::min(center.x + r, nx - 1);
    const std::int32_t y0 = std::max(center.y - r, 0);
    const std::int32_t y1 = std::min(center.y + r, ny - 1);
    const std::int32_t z0 = std::max(center.z - r, 0);
    const std::int32_t z1 = std::min(center.z + r, nz - 1);
    if (r == 0) {
        scan_cell(center.x, center.y, center.z);
        return visited;
    }
    for (std::int32_t z = z0; z <= z1; ++z) {
        const bool z_face =
            z == center.z - r || z == center.z + r;
        for (std::int32_t y = y0; y <= y1; ++y) {
            const bool y_face =
                y == center.y - r || y == center.y + r;
            if (z_face || y_face) {
                for (std::int32_t x = x0; x <= x1; ++x)
                    scan_cell(x, y, z);
            } else {
                // interior row: only the two x faces are on-shell
                if (center.x - r >= 0)
                    scan_cell(center.x - r, y, z);
                if (center.x + r <= nx - 1)
                    scan_cell(center.x + r, y, z);
            }
        }
    }
    return visited;
}

GatherResult
SpatialHashKnn::gatherAt(std::span<const Vec3> queries, std::size_t k,
                         Accounting acc) const
{
    const std::size_t n = pts.size();
    HGPCN_ASSERT(k >= 1, "k=", k);
    const std::size_t k_eff = std::min(k, n);

    GatherResult result;
    result.k = k_eff;
    result.neighbors.reserve(queries.size() * k_eff);

    std::uint64_t dist_computes = 0;
    std::uint64_t sort_candidates = 0;
    std::uint64_t cells_visited = 0;

    std::vector<std::pair<float, PointIndex>> &scored = *scored_buf;
    if (workspace != nullptr)
        workspace->ensure(scored, n);

    for (const Vec3 &q : queries) {
        scored.clear();
        if (!grid_built) {
            for (std::size_t i = 0; i < n; ++i) {
                scored.emplace_back(
                    pts[i].distSq(q), static_cast<PointIndex>(i));
            }
        } else {
            const CellCoord c0 = cellOf(q);
            // Rings needed to cover the whole grid from c0.
            const std::int32_t max_ring = std::max(
                {c0.x, nx - 1 - c0.x, c0.y, ny - 1 - c0.y, c0.z,
                 nz - 1 - c0.z});
            double kth = std::numeric_limits<double>::infinity();
            for (std::int32_t r = 0; r <= max_ring; ++r) {
                const std::size_t before = scored.size();
                cells_visited += scanRing(c0, r, q, scored);
                if (scored.size() >= k_eff) {
                    if (scored.size() != before) {
                        kth = static_cast<double>(
                            kthSmallest(scored, k_eff).first);
                    }
                    // Min distance of any unscanned (ring r+1)
                    // point is r*cell; stop once that provably
                    // exceeds the k-th best (slack: see above).
                    const double bound =
                        static_cast<double>(r) *
                        static_cast<double>(cell);
                    if (bound * bound * kBoundSlack > kth)
                        break;
                }
            }
        }
        dist_computes += scored.size();
        sort_candidates += scored.size();
        selectTopK(scored, k_eff);
        for (std::size_t j = 0; j < k_eff; ++j)
            result.neighbors.push_back(scored[j].second);
    }

    if (acc == Accounting::ModeledBrute) {
        // The modeled device's kernel is a data-independent full
        // scan per query: report its workload, not the index's, so
        // every cycle model sees an unchanged trace.
        result.stats.set("gather.distance_computations",
                         queries.size() * n);
        result.stats.set("gather.sort_candidates",
                         queries.size() * n);
    } else {
        result.stats.set("gather.distance_computations",
                         dist_computes);
        result.stats.set("gather.sort_candidates", sort_candidates);
        result.stats.set("gather.cells_visited", cells_visited);
    }
    return result;
}

GatherResult
SpatialHashKnn::gather(std::span<const PointIndex> centrals,
                       std::size_t k, Accounting acc) const
{
    std::vector<Vec3> anchors;
    std::vector<Vec3> *buf = &anchors;
    if (workspace != nullptr)
        buf = &workspace->positions(centrals.size());
    else
        anchors.resize(centrals.size());
    for (std::size_t i = 0; i < centrals.size(); ++i)
        (*buf)[i] = pts[centrals[i]];
    return gatherAt(*buf, k, acc);
}

std::vector<std::size_t>
SpatialHashKnn::capacities() const
{
    return {own_start.capacity(), own_order.capacity(),
            own_cell_of.capacity(), dirty_cells.capacity(),
            cell_inserts.capacity()};
}

bool
SpatialHashKnn::reserveCapacities(std::span<const std::size_t> caps)
{
    const std::vector<std::size_t> before = capacities();
    const auto grow = [&caps](auto &v, std::size_t i) {
        if (i < caps.size())
            v.reserve(caps[i]);
    };
    grow(own_start, 0);
    grow(own_order, 1);
    grow(own_cell_of, 2);
    grow(dirty_cells, 3);
    grow(cell_inserts, 4);
    return capacities() != before;
}

void
SpatialHashKnn::reserveFrom(const SpatialHashKnn &prev, std::size_t n,
                            const PointDelta &delta)
{
    // rebuildFrom() engages only on prev's grid, so it writes prev's
    // cell count.
    const std::size_t cells =
        prev.own_start.empty() ? 0 : prev.own_start.size() - 1;
    const std::size_t caps[] = {cells + 1, n, n, cells,
                                delta.insertedNew.size()};
    reserveCapacities(caps);
}

} // namespace hgpcn
