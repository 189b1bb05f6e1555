/**
 * @file
 * Octree spatial index over a point cloud.
 *
 * Implements the paper's Octree-build Unit (Section V-A): a single
 * pass over the raw points computes full-depth m-codes, sorts them
 * into Space-Filling-Curve order (this *is* the "Octree-based
 * organization in Host Memory" — the reordered copy lives in
 * reorderedCloud()), and erects the node hierarchy over the sorted
 * ranges. Every leaf maps to a contiguous range of the reordered
 * array, so "reading the points of a voxel" is a sequential host
 * memory burst.
 *
 * Subdivision stops at Config::maxDepth ("pre-defined depth") or when
 * a voxel holds at most Config::leafCapacity points; the second rule
 * reproduces the paper's observation (Fig. 11) that more non-uniform
 * clouds grow deeper octrees.
 */

#ifndef HGPCN_OCTREE_OCTREE_H
#define HGPCN_OCTREE_OCTREE_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/stats.h"
#include "geometry/morton.h"
#include "geometry/point_cloud.h"

namespace hgpcn
{

/** Index of a node inside an Octree. */
using NodeIndex = std::int32_t;

/** Sentinel for "no node". */
constexpr NodeIndex kNoNode = -1;

/**
 * One voxel of the octree.
 *
 * Children are stored contiguously; childMask records which octants
 * exist so the child for octant o sits at
 * firstChild + popcount(childMask & ((1 << o) - 1)).
 */
struct OctreeNode
{
    morton::Code code = 0;     //!< m-code, 3*level significant bits
    std::uint16_t level = 0;   //!< 0 = root
    std::uint8_t childMask = 0;
    NodeIndex firstChild = kNoNode;
    NodeIndex parent = kNoNode;
    PointIndex pointBegin = 0; //!< range into the reordered cloud
    PointIndex pointEnd = 0;

    /** @return true when this node has no children. */
    bool isLeaf() const { return childMask == 0; }

    /** @return number of points under this node. */
    std::uint32_t count() const { return pointEnd - pointBegin; }
};

/**
 * Scoring rule of the farthest-voxel descent (see docs/DESIGN.md §5).
 *
 * The paper's Sampling Modules compare m-codes by Hamming distance
 * (XOR + popcount). That metric degenerates for interior seed
 * points: cells adjacent across a mid-plane differ in every bit, so
 * a centroid seed drags every pick to the cube center. We therefore
 * default to a balanced descent that keeps the same table-lookup
 * structure and O(depth) cost while actually reproducing the
 * paper's FPS-equivalent sampling quality; the other metrics remain
 * selectable for the ablation bench.
 */
enum class DescentMetric
{
    /** Prefer the child with the fewest samples so far, breaking
     * ties by geometric distance from the seed (default). */
    Balanced,
    /** Maximize squared distance between voxel-center cells. */
    Euclid,
    /** Maximize per-level Hamming distance (paper-literal). */
    Hamming,
};

/**
 * Spatial index over a point cloud frame.
 */
class Octree
{
  public:
    /** Build parameters. */
    struct Config
    {
        /** Pre-defined maximum subdivision depth (paper Section V). */
        int maxDepth = 10;
        /** Stop subdividing voxels holding at most this many points. */
        std::uint32_t leafCapacity = 8;
        /** Sort the m-codes with an LSD radix sort (O(n) passes)
         * instead of comparison sorting; identical output, faster
         * builds on large frames. */
        bool useRadixSort = true;

        /** Erect the nodes bottom-up from the sorted codes
         * (NavVolume-style pointerless agglomeration: one linear
         * pass per level) instead of top-down recursion with
         * per-octant binary searches. Identical output — pinned by
         * tests/test_temporal.cc; the recursive builder remains the
         * oracle. */
        bool bottomUpBuild = true;
    };

    /**
     * Build the octree and the SFC-reordered point copy in a single
     * conceptual pass of @p cloud.
     *
     * Build-cost accounting (host reads/writes, code computations and
     * sort operations) is recorded in buildStats().
     */
    static Octree build(const PointCloud &cloud, const Config &config);

    /**
     * Rebuild this octree in place over @p cloud — identical output
     * to build(), but every backing store (codes, permutation, node
     * array, reordered copy, build scratch) reuses its capacity.
     * This is the pooled-octree path: once a tree has seen a frame
     * of the stream's size, later rebuilds allocate nothing
     * (growth is counted via FrameWorkspace::noteGrowth, so the
     * zero-alloc steady-state test covers it).
     */
    void rebuild(const PointCloud &cloud, const Config &config);

    /**
     * rebuild() with the root voxel already known: @p cube must be
     * cloud.bounds().cubified(), computed by a caller that needed it
     * anyway, so the frame's bounds are scanned once.
     */
    void rebuild(const PointCloud &cloud, const Config &config,
                 const Aabb &cube);

    /** @return build parameters used. */
    const Config &config() const { return cfg; }

    /**
     * @return every backing buffer's capacity, in a fixed order
     * (one entry per build-scratch level last). A pool of trees
     * keeps the element-wise maximum as its high water
     * (core/temporal_preprocess.h).
     */
    std::vector<std::size_t> capacities() const;

    /**
     * Grow every backing buffer to at least the matching entry of
     * @p caps (a capacities() vector, possibly another tree's), so
     * that no frame up to that size regrows this tree.
     * @return true when anything grew.
     */
    bool reserveCapacities(std::span<const std::size_t> caps);

    /** @return root voxel bounds (cubified frame AABB). */
    const Aabb &rootBounds() const { return root_bounds; }

    /** @return depth actually reached (max leaf level). */
    int depth() const { return max_level; }

    /** @return all nodes; index 0 is the root. */
    const std::vector<OctreeNode> &nodes() const { return node_store; }

    /** @return node @p i. */
    const OctreeNode &node(NodeIndex i) const { return node_store[i]; }

    /** @return number of leaves. */
    std::size_t leafCount() const { return leaf_total; }

    /**
     * @return the SFC-ordered copy of the input points (the paper's
     * pre-configured Host Memory image).
     */
    const PointCloud &reorderedCloud() const { return reordered; }

    /**
     * @return mapping from reordered position to original point
     * index: reorderedCloud() point i == input point permutation()[i].
     */
    const std::vector<PointIndex> &permutation() const { return perm; }

    /** @return full-depth m-code of reordered point @p i. */
    morton::Code pointCode(PointIndex i) const { return codes[i]; }

    /** @return all full-depth point codes, ascending (SFC order). */
    const std::vector<morton::Code> &pointCodes() const { return codes; }

    /** @return leaf node holding reordered point @p i. */
    NodeIndex leafOf(PointIndex i) const { return point_leaf[i]; }

    /** @return index of the child of @p n in octant @p o, or kNoNode. */
    NodeIndex childAt(NodeIndex n, unsigned octant) const;

    /** @return leaf node whose voxel contains position @p p. */
    NodeIndex findLeaf(const Vec3 &p) const;

    /** @return statistics recorded while building. */
    const StatSet &buildStats() const { return build_stats; }

    /**
     * Check every structural invariant (sorted codes, permutation
     * bijectivity, child ranges partitioning parents, code prefixes,
     * leaf coverage, live-counter consistency). Intended for tests
     * and debugging; panics with a description on the first
     * violation.
     * @return number of nodes checked.
     */
    std::size_t validate() const;

    // ------------------------------------------------------------------
    // Live-point bookkeeping for sampling (Section V-B). Picking a
    // point during OIS marks it consumed so the farthest-voxel descent
    // skips exhausted subtrees.
    // ------------------------------------------------------------------

    /** Reset all points to live. */
    void resetLive();

    /** @return live (not yet consumed) points under node @p n. */
    std::uint32_t liveCount(NodeIndex n) const { return live[n]; }

    /** @return points already sampled from under node @p n. */
    std::uint32_t sampledCount(NodeIndex n) const { return sampled[n]; }

    /** @return true when reordered point @p i is still live. */
    bool isLive(PointIndex i) const { return !consumed[i]; }

    /**
     * Mark reordered point @p i consumed, decrementing the live
     * counters along its leaf-to-root path.
     * @return number of levels updated (hardware cost proxy).
     */
    int consumePoint(PointIndex i);

    /**
     * Farthest-voxel descent of Algorithm 2 (Fig. 6): starting at
     * the root, repeatedly move to the live child scoring best under
     * @p metric against the seed voxel's m-code, until a leaf is
     * reached (or, for the approximate-OIS variant, until the node's
     * live population drops to @p stop_count or fewer).
     *
     * @param seed_code Full-depth m-code of the (virtual) seed point.
     * @param metric Child scoring rule.
     * @param stop_count Early-stop population (0 = descend to leaf).
     * @param[out] levels_visited Number of levels descended.
     * @return node index, or kNoNode when no live point remains.
     */
    NodeIndex descendFarthest(morton::Code seed_code,
                              DescentMetric metric =
                                  DescentMetric::Balanced,
                              std::uint32_t stop_count = 0,
                              int *levels_visited = nullptr) const;

    /**
     * Among the live points of leaf @p leaf, pick the farthest from
     * @p seed_code in SFC terms (max XOR magnitude of full-depth
     * codes).
     * @return reordered point index, or an assertion if none is live.
     */
    PointIndex farthestLivePointInLeaf(NodeIndex leaf,
                                       morton::Code seed_code) const;

  private:
    friend class IncrementalOctreeBuilder;

    /**
     * Build-time scratch retained across rebuild() calls so pooled
     * trees sort and agglomerate with zero steady-state allocation.
     * Copying a tree deliberately does not copy its scratch.
     */
    struct BuildScratch
    {
        /** One maximal run of equal level-prefix codes. */
        struct LevelRun
        {
            morton::Code code;      //!< code >> 3*(maxDepth-level)
            PointIndex begin;       //!< reordered point range
            PointIndex end;
            std::int32_t firstChild; //!< index into the child level
            std::uint8_t mask;      //!< occupied child octants
        };

        std::vector<std::pair<morton::Code, PointIndex>> keyed;
        std::vector<std::pair<morton::Code, PointIndex>> radix;
        std::vector<std::vector<LevelRun>> levels;

        BuildScratch() = default;
        BuildScratch(const BuildScratch &) {}
        BuildScratch &operator=(const BuildScratch &) { return *this; }
        BuildScratch(BuildScratch &&) = default;
        BuildScratch &operator=(BuildScratch &&) = default;
    };

    Config cfg;
    Aabb root_bounds;
    int max_level = 0;
    std::size_t leaf_total = 0;
    std::vector<OctreeNode> node_store;
    std::vector<morton::Code> codes;
    std::vector<PointIndex> perm;
    std::vector<NodeIndex> point_leaf;
    PointCloud reordered;
    StatSet build_stats;
    BuildScratch scratch;

    // Sampling state.
    std::vector<std::uint32_t> live;
    std::vector<std::uint32_t> sampled;
    std::vector<std::uint8_t> consumed;

    /** Charge build_stats a scratch build's modeled workload over
     * @p n points: a host read, an m-code and a host write each, and
     * @p config's sort. The incremental builder charges the same. */
    void chargeScratchBuild(std::size_t n, const Config &config);

    /** Recursively subdivide node @p self or finalize it as a leaf. */
    void processNode(NodeIndex self);

    /** Pointerless bottom-up erection over the sorted codes. */
    void erectBottomUp();

    /** Emit node @p self for @p run, recursing into its children. */
    void emitRun(NodeIndex self, int level,
                 const BuildScratch::LevelRun &run);

    /** Sum of backing capacities — growth detection for rebuild(). */
    std::size_t backingCapacity() const;

    /** Call fn(buffer) for every backing buffer, in capacities()
     * order; @p Self is Octree or const Octree. */
    template <class Self, class Fn>
    static void forEachBuffer(Self &self, Fn &&fn);
};

} // namespace hgpcn

#endif // HGPCN_OCTREE_OCTREE_H
