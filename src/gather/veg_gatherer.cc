#include "gather/veg_gatherer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/frame_workspace.h"
#include "knn/top_k.h"

namespace hgpcn
{

const char *
toString(VegMode mode)
{
    switch (mode) {
      case VegMode::Paper:
        return "VEG";
      case VegMode::Strict:
        return "VEG-strict";
      case VegMode::SemiApprox:
        return "VEG-semi";
    }
    return "VEG-?";
}

VegKnn::VegKnn(const Octree &tree) : VegKnn(tree, Config{}) {}

void
VegCounters::add(const VegCounters &other)
{
    distanceComputations += other.distanceComputations;
    sortCandidates += other.sortCandidates;
    tableLookups += other.tableLookups;
    ringsExpanded += other.ringsExpanded;
    innerPoints += other.innerPoints;
}

void
VegCounters::writeTo(StatSet &stats) const
{
    stats.set("gather.distance_computations", distanceComputations);
    stats.set("gather.sort_candidates", sortCandidates);
    stats.set("gather.table_lookups", tableLookups);
    stats.set("gather.rings_expanded", ringsExpanded);
    stats.set("gather.inner_points", innerPoints);
}

VegKnn::VegKnn(const Octree &tree, const Config &config,
               FrameWorkspace *ws)
    : workspace(ws)
{
    rebind(tree, config);
}

void
VegKnn::rebind(const Octree &tree, const Config &config)
{
    HGPCN_ASSERT(config.gridLevel <= tree.config().maxDepth,
                 "gridLevel ", config.gridLevel,
                 " exceeds octree depth");
    octree = &tree;
    cfg = config;
    const std::size_t levels =
        static_cast<std::size_t>(tree.config().maxDepth) + 1;
    if (grid_count < levels) {
        grids = std::make_unique<LevelGrid[]>(levels);
        grid_count = levels;
    }
    for (std::size_t l = 0; l < grid_count; ++l)
        grids[l].ready.store(false, std::memory_order_relaxed);
}

std::string
VegKnn::name() const
{
    return toString(cfg.mode);
}

const VoxelGrid &
VegKnn::gridAt(int level) const
{
    LevelGrid &slot = grids[static_cast<std::size_t>(level)];
    if (!slot.ready.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(slot.mu);
        if (!slot.ready.load(std::memory_order_relaxed)) {
            const std::size_t before =
                slot.grid ? slot.grid->capacity() : 0;
            if (slot.grid)
                slot.grid->rebind(*octree, level);
            else
                slot.grid = std::make_unique<VoxelGrid>(*octree, level);
            slot.grid->prepare();
            if (slot.grid->capacity() > before)
                FrameWorkspace::noteGrowth();
            slot.ready.store(true, std::memory_order_release);
        }
    }
    return *slot.grid;
}

int
VegKnn::levelFor(const Vec3 &anchor) const
{
    if (cfg.gridLevel >= 0)
        return cfg.gridLevel;
    // Locate Central Voxel (LV stage): the octree leaf containing
    // the centroid sets the expansion granularity, adapting ring
    // sizes to the local point density.
    const NodeIndex leaf = octree->findLeaf(anchor);
    const int level = octree->node(leaf).level;
    return level < 1 ? 1 : level;
}

GatherResult
VegKnn::gather(std::span<const PointIndex> centrals, std::size_t k)
{
    const PointCloud &cloud = octree->reorderedCloud();
    std::vector<Vec3> anchors;
    anchors.reserve(centrals.size());
    for (PointIndex c : centrals)
        anchors.push_back(cloud.position(c));
    return gatherAt(anchors, k);
}

GatherResult
VegKnn::gatherAt(std::span<const Vec3> anchors, std::size_t k)
{
    GatherResult result;
    result.k = k;
    result.neighbors.resize(anchors.size() * k);
    result.traces.resize(anchors.size());
    VegCounters counters;
    Rng rng(cfg.seed);
    gatherAtRange(anchors, k, 0, anchors.size(), result.neighbors,
                  result.traces, counters, workspace, &rng);
    counters.writeTo(result.stats);
    return result;
}

void
VegKnn::gatherAtRange(std::span<const Vec3> anchors, std::size_t k,
                      std::size_t begin, std::size_t end,
                      std::span<PointIndex> neighbors,
                      std::span<VegTrace> traces,
                      VegCounters &counters, FrameWorkspace *scratch,
                      Rng *rng) const
{
    const PointCloud &cloud = octree->reorderedCloud();
    const std::size_t n = cloud.size();
    HGPCN_ASSERT(k >= 1 && k <= n, "k=", k, " n=", n);
    HGPCN_ASSERT(begin <= end && end <= anchors.size() &&
                     neighbors.size() == (end - begin) * k &&
                     traces.size() == end - begin,
                 "VEG range outputs do not match the range");
    HGPCN_ASSERT(cfg.mode != VegMode::SemiApprox || rng != nullptr,
                 "semi-approximate VEG needs the caller's rng");

    std::vector<PointIndex> own_gathered;
    std::vector<ScoredNeighbor> own_scored;
    std::vector<PointIndex> &gathered =
        scratch != nullptr ? scratch->knn.ringPoints : own_gathered;
    std::vector<ScoredNeighbor> &scored =
        scratch != nullptr ? scratch->knn.scored : own_scored;

    PointIndex *out = neighbors.data();
    for (std::size_t a = begin; a < end; ++a) {
        const Vec3 &anchor = anchors[a];
        // Stage 1-2 (FP, LV): fetch the centroid, locate its voxel.
        const VoxelGrid &grid = gridAt(levelFor(anchor));
        const GridCell seed_cell = grid.cellOf(anchor);
        const int max_ring = grid.cellsPerAxis();
        const float cell =
            morton::voxelSize(grid.level(), octree->rootBounds());

        VegTrace trace;

        if (cfg.mode == VegMode::Strict) {
            // Expand until no unscanned ring can hold a closer point:
            // a ring-r point is at least (r-1)*cell away from the
            // centroid, so once (r-1)*cell exceeds the current K-th
            // best distance the candidate set is complete. Each
            // ring's points are scored as the walk reads them into
            // the k best so far, kept sorted in selectTopK()'s
            // (distance, index) order: best[k-1] is the K-th best.
            std::vector<ScoredNeighbor> &best = scored;
            best.clear();
            std::size_t candidates = 0;
            const auto score = [&](PointIndex first, PointIndex last) {
                candidates += last - first;
                for (PointIndex p = first; p < last; ++p) {
                    const ScoredNeighbor cand{
                        cloud.position(p).distSq(anchor), p};
                    if (best.size() == k) {
                        if (!(cand < best.back()))
                            continue;
                        best.pop_back();
                    }
                    best.insert(
                        std::upper_bound(best.begin(), best.end(), cand),
                        cand);
                }
            };
            int r = 0;
            while (r <= max_ring) {
                trace.tableLookups += static_cast<std::uint32_t>(
                    grid.forEachRingRange(seed_cell, r, score));
                if (best.size() == k) {
                    const float ring_min =
                        static_cast<float>(r) * cell; // next ring
                    if (ring_min * ring_min > best.back().first)
                        break;
                }
                ++r;
            }
            HGPCN_ASSERT(best.size() == k,
                         "strict VEG exhausted the grid below k");
            trace.rings = static_cast<std::uint32_t>(r);
            trace.lastRingPoints = static_cast<std::uint32_t>(candidates);
            counters.distanceComputations += candidates;
            counters.sortCandidates += candidates;
            for (const ScoredNeighbor &b : best)
                *out++ = b.second;
        } else {
            // Stage 3 (VE): expand rings until cumulative count >= K.
            // The host gathers each ring once, behind the rings
            // before it: the ring that reaches K is the last ring,
            // the ones before it are inner rings (Stage 4, GP:
            // gathered blind).
            gathered.clear();
            std::size_t inner = 0;
            int r = 0;
            for (;; ++r) {
                HGPCN_ASSERT(r <= max_ring,
                             "VEG expansion exhausted the grid below k");
                inner = gathered.size();
                // Counting touches each in-grid ring cell once.
                trace.tableLookups += static_cast<std::uint32_t>(
                    grid.gatherRingPoints(seed_cell, r, gathered));
                if (gathered.size() >= k)
                    break;
            }
            const std::span<PointIndex> last_ring(
                gathered.data() + inner, gathered.size() - inner);
            trace.rings = static_cast<std::uint32_t>(r);
            trace.innerPoints = static_cast<std::uint32_t>(inner);
            trace.lastRingPoints =
                static_cast<std::uint32_t>(last_ring.size());
            counters.innerPoints += inner;

            out = std::copy_n(gathered.begin(), inner, out);
            const std::size_t need = k - inner;

            if (cfg.mode == VegMode::SemiApprox) {
                // Future-work variant: random picks from the last
                // ring, no distance computation at all.
                for (std::size_t j = 0; j < need; ++j) {
                    const std::size_t pick =
                        j + static_cast<std::size_t>(
                                rng->below(last_ring.size() - j));
                    std::swap(last_ring[j], last_ring[pick]);
                    *out++ = last_ring[j];
                }
            } else {
                // Stage 5 (ST): score and sort only the last ring.
                scored.clear();
                scored.reserve(last_ring.size());
                for (PointIndex p : last_ring)
                    scored.emplace_back(
                        cloud.position(p).distSq(anchor), p);
                counters.distanceComputations += last_ring.size();
                counters.sortCandidates += last_ring.size();
                selectTopK(scored, need);
                for (std::size_t j = 0; j < need; ++j)
                    *out++ = scored[j].second;
            }
        }

        counters.ringsExpanded += trace.rings;
        counters.tableLookups += trace.tableLookups;
        traces[a - begin] = trace;
    }
}

namespace
{

/** Level whose cell edge best matches the query radius. */
int
radiusMatchedLevel(const Octree &tree, float radius)
{
    const float root_side =
        morton::voxelSize(0, tree.rootBounds());
    HGPCN_ASSERT(radius > 0.0f, "radius must be positive");
    const int level = static_cast<int>(
        std::floor(std::log2(root_side / radius)));
    return std::clamp(level, 1, tree.config().maxDepth);
}

} // namespace

VegBallQuery::VegBallQuery(const Octree &tree, const Config &config)
    : octree(tree), cfg(config),
      grid(tree, config.gridLevel >= 0
                     ? config.gridLevel
                     : radiusMatchedLevel(tree, config.radius))
{}

GatherResult
VegBallQuery::gather(std::span<const PointIndex> centrals, std::size_t k)
{
    const PointCloud &cloud = octree.reorderedCloud();
    HGPCN_ASSERT(k >= 1, "k=", k);

    GatherResult result;
    result.k = k;
    result.neighbors.reserve(centrals.size() * k);
    result.traces.reserve(centrals.size());

    std::uint64_t dist_computes = 0;
    std::uint64_t table_lookups = 0;

    const float cell = morton::voxelSize(grid.level(),
                                         octree.rootBounds());
    const float r_sq = cfg.radius * cfg.radius;
    // A ring-r point is at least (r-1)*cell from the centroid, so
    // rings beyond radius/cell + 1 cannot intersect the ball.
    const int rings_needed =
        static_cast<int>(std::ceil(cfg.radius / cell)) + 1;

    std::vector<PointIndex> candidates;

    for (PointIndex c : centrals) {
        const Vec3 anchor = cloud.position(c);
        const GridCell seed_cell = grid.cellOf(anchor);

        VegTrace trace;
        candidates.clear();
        for (int r = 0; r <= rings_needed; ++r) {
            const std::size_t lookups =
                grid.gatherRingPoints(seed_cell, r, candidates);
            trace.tableLookups += static_cast<std::uint32_t>(lookups);
        }
        trace.rings = static_cast<std::uint32_t>(rings_needed);
        trace.lastRingPoints =
            static_cast<std::uint32_t>(candidates.size());

        std::size_t found = 0;
        PointIndex pad = c;
        for (PointIndex p : candidates) {
            const float d = cloud.position(p).distSq(anchor);
            if (d <= r_sq && found < k) {
                if (found == 0)
                    pad = p;
                result.neighbors.push_back(p);
                ++found;
            }
        }
        dist_computes += candidates.size();
        for (std::size_t j = found; j < k; ++j)
            result.neighbors.push_back(pad);

        table_lookups += trace.tableLookups;
        result.traces.push_back(trace);
    }

    result.stats.set("gather.distance_computations", dist_computes);
    result.stats.set("gather.table_lookups", table_lookups);
    return result;
}

} // namespace hgpcn
