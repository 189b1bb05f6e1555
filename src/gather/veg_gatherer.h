/**
 * @file
 * Voxel-Expanded Gathering (paper Section VI).
 *
 * VEG narrows the nearest-neighbor search range through the octree's
 * adjacent-indexing before any sorting happens. For a central point:
 *
 *   ring 0 = its voxel Vseed, ring 1 = the 26 touching voxels (V1),
 *   ring 2 = the next shell (V2), ... Expansion stops at the first
 *   ring n where the cumulative point count reaches K. Rings 0..n-1
 *   ("inner" points, N0+...+N(n-1)) are gathered with *no* distance
 *   computation; only the Nn points of ring n are distance-scored and
 *   sorted to select the remaining K - inner neighbors.
 *
 * The paper calls this accurate. Strictly, a far-corner inner-ring
 * point can lose to a near-face last-ring point, so we provide three
 * modes:
 *
 *  - Paper:      exactly the method above (default);
 *  - Strict:     keep expanding until no unscanned ring can contain a
 *                closer point, score every candidate — provably equal
 *                to brute KNN, still local;
 *  - SemiApprox: Section VIII future work — the last ring's
 *                contribution is picked randomly, no sort at all.
 *
 * Ball Query support (VegBallQuery) expands rings until the ring's
 * minimum possible distance exceeds the radius.
 */

#ifndef HGPCN_GATHER_VEG_GATHERER_H
#define HGPCN_GATHER_VEG_GATHERER_H

#include <atomic>
#include <memory>
#include <mutex>

#include "common/rng.h"
#include "gather/gatherer.h"
#include "octree/octree.h"
#include "octree/voxel_grid.h"

namespace hgpcn
{

class FrameWorkspace;

/** Gathering flavor; see file comment. */
enum class VegMode
{
    Paper,
    Strict,
    SemiApprox,
};

/** @return printable name of a VegMode. */
const char *toString(VegMode mode);

/**
 * Workload counters of a VEG gather, summed range by range. They are
 * integer sums, so the total does not depend on how the anchors were
 * split or in which order the ranges ran.
 */
struct VegCounters
{
    std::uint64_t distanceComputations = 0;
    std::uint64_t sortCandidates = 0;
    std::uint64_t tableLookups = 0;
    std::uint64_t ringsExpanded = 0;
    std::uint64_t innerPoints = 0;

    /** Add another range's counters. */
    void add(const VegCounters &other);

    /** Set the five "gather.*" counters of @p stats. */
    void writeTo(StatSet &stats) const;
};

/**
 * KNN data structuring by voxel expansion over an octree.
 *
 * Point indices (centroids and neighbors) refer to the octree's
 * SFC-reordered cloud.
 *
 * Thread safety: gatherAtRange() is const and may run concurrently
 * on disjoint anchor ranges, each caller with its own scratch; each
 * per-level grid view is built once, under its own lock, by
 * whichever range needs the level first. A gatherer held by a
 * FrameWorkspace is rebound to each frame's tree and keeps its grid
 * views' storage.
 */
class VegKnn : public Gatherer
{
  public:
    /** Parameters. */
    struct Config
    {
        /** Grid level used for ring expansion. -1 (default) selects
         * the level *per centroid* from the octree leaf containing
         * it — the paper's "locate the voxel that contains the
         * central point" — which adapts ring granularity to the
         * local density (crucial for LiDAR-style non-uniform
         * clouds). A non-negative value forces one global level. */
        int gridLevel = -1;
        /** Gathering flavor. */
        VegMode mode = VegMode::Paper;
        /** RNG seed (SemiApprox picks randomly). */
        std::uint64_t seed = 1;
    };

    /**
     * @param tree Octree over the down-sampled input cloud; must
     *             outlive the gatherer.
     */
    /** Create with default configuration. */
    explicit VegKnn(const Octree &tree);

    /**
     * @param workspace Optional scratch arena: ring/score buffers
     * come from the workspace instead of per-gather allocations
     * (core/frame_workspace.h).
     */
    VegKnn(const Octree &tree, const Config &config,
           FrameWorkspace *workspace = nullptr);

    GatherResult gather(std::span<const PointIndex> centrals,
                        std::size_t k) override;

    /**
     * Gather around arbitrary query coordinates (the DSU's Fetch
     * Central Point stage works on coordinates+m-codes, so queries
     * need not be cloud members — used by FP-layer interpolation).
     * Neighbor indices refer to the octree's reordered cloud.
     */
    GatherResult gatherAt(std::span<const Vec3> anchors, std::size_t k);

    /**
     * gatherAt() over anchors [begin, end) only: anchor i's k
     * neighbors go to neighbors[(i - begin) * k, ...) and its trace
     * to traces[i - begin]; workload is added to @p counters.
     * Per-anchor results are independent of the range, so any split
     * of [0, anchors.size()) reproduces gatherAt() exactly — except
     * VegMode::SemiApprox, whose picks draw on @p rng in anchor
     * order (required there; ranges must then run in order on one
     * rng seeded config().seed). Ring and score buffers come from
     * @p scratch (per-thread; null = local allocations).
     */
    void gatherAtRange(std::span<const Vec3> anchors, std::size_t k,
                       std::size_t begin, std::size_t end,
                       std::span<PointIndex> neighbors,
                       std::span<VegTrace> traces,
                       VegCounters &counters, FrameWorkspace *scratch,
                       Rng *rng) const;

    /** @return gathering configuration. */
    const Config &config() const { return cfg; }

    /** @return the octree gathered over. */
    const Octree &tree() const { return *octree; }

    /**
     * Gather over @p tree with @p config from now on, as if
     * constructed afresh, keeping the grid views' storage. Call
     * while no gather runs.
     */
    void rebind(const Octree &tree, const Config &config);

    std::string name() const override;

    /** @return the expansion level used for @p anchor. */
    int levelFor(const Vec3 &anchor) const;

  private:
    const Octree *octree;
    Config cfg;
    FrameWorkspace *workspace;
    /** One grid view per level, (re)built with its lookup tables on
     * first use after each rebind, once across threads. */
    struct LevelGrid
    {
        std::mutex mu;
        std::atomic<bool> ready{false};
        std::unique_ptr<VoxelGrid> grid;
    };
    std::unique_ptr<LevelGrid[]> grids;
    std::size_t grid_count = 0;

    const VoxelGrid &gridAt(int level) const;
};

/**
 * Ball-Query data structuring by voxel expansion.
 */
class VegBallQuery : public Gatherer
{
  public:
    /** Parameters. */
    struct Config
    {
        /** Ball radius in cloud units. */
        float radius = 0.2f;
        /** Grid level; -1 = auto (cell edge matched to radius so
         * one or two expansions cover the ball). */
        int gridLevel = -1;
    };

    /** @param tree Octree over the input cloud; must outlive this. */
    explicit VegBallQuery(const Octree &tree, const Config &config);

    GatherResult gather(std::span<const PointIndex> centrals,
                        std::size_t k) override;

    std::string name() const override { return "VEG-BQ"; }

  private:
    const Octree &octree;
    Config cfg;
    VoxelGrid grid;
};

} // namespace hgpcn

#endif // HGPCN_GATHER_VEG_GATHERER_H
