/**
 * @file
 * Incremental octree updates across temporally coherent frames.
 *
 * Consecutive LiDAR sweeps of a drive share most of their points:
 * the ego vehicle moves a little and a fraction of the returns churn.
 * Rebuilding the Morton index from scratch re-sorts and re-erects
 * everything; this builder instead diffs the new frame against the
 * previous frame's tree and
 *
 *  1. matches new points to previous reordered slots by coordinate
 *     bit pattern, classifying every point as retained, inserted or
 *     evicted (geometry/point_delta.h). The match walks the old
 *     slots in SFC order and pairs each with the new input at its
 *     old input index — retained returns of fixed-pattern scans
 *     keep their index — so it costs about one pass. When any point
 *     it leaves unpaired bit-equals an old one (duplicates, retained
 *     points that changed index), the frame is matched again by an
 *     exact hash join; both give the same delta;
 *  2. produces the new sorted code array by merging the retained
 *     run (already SFC-sorted in the old tree) with the freshly
 *     sorted insertions — O(n + k log k) instead of a full sort —
 *     and copies retained positions in order from the previous
 *     reordered cloud;
 *  3. re-erects only subtrees whose point ranges contain an
 *     insertion or eviction, block-copying every clean old subtree
 *     with an index offset.
 *
 * The output is bit-identical to Octree::rebuild() on the same
 * frame: whenever a precondition cannot be proven (bounds moved,
 * config changed, retained points re-ordered within an equal-code
 * run), the builder falls back to the from-scratch path, so callers
 * never observe a difference beyond wall-clock. Modeled build stats
 * (host reads/writes, sort ops) are charged by the same closed-form
 * formulas as the scratch build — the paper-model numbers do not
 * move, only host time does.
 */

#ifndef HGPCN_OCTREE_INCREMENTAL_OCTREE_H
#define HGPCN_OCTREE_INCREMENTAL_OCTREE_H

#include <cstdint>
#include <vector>

#include "geometry/point_delta.h"
#include "octree/octree.h"

namespace hgpcn
{

/**
 * Stateless-between-frames incremental builder; owns only reusable
 * scratch (match flags, hash table, chains, insert buffer), so one
 * instance per stream gives zero-alloc steady-state updates.
 */
class IncrementalOctreeBuilder
{
  public:
    /**
     * Build @p out over @p cloud, reusing structure from @p prev
     * when possible.
     *
     * @param cloud New frame (raw input order).
     * @param cube The frame's root voxel, cloud.bounds().cubified(),
     *   which the caller computes once for the alignment check and
     *   any fallback build.
     * @param prev Previous frame's tree, or nullptr for the first
     *   frame. Must not alias @p out.
     * @param config Build parameters; must equal prev->config() for
     *   the incremental path to engage.
     * @param out Rebuilt in place (capacity reused).
     * @return true when the incremental path ran; false when the
     *   builder fell back to Octree::rebuild(). delta() is only
     *   meaningful after a true return.
     */
    bool update(const PointCloud &cloud, const Aabb &cube,
                const Octree *prev, const Octree::Config &config,
                Octree &out);

    /**
     * @return true when a frame rooted at @p cube may update
     * incrementally from @p prev under @p config: @p prev is a
     * non-empty tree with bit-equal root bounds and the same depth
     * and leaf capacity. When false, update() certainly rebuilds
     * from scratch — so a caller can tell a miss before it starts.
     */
    static bool aligns(const Aabb &cube, const Octree *prev,
                       const Octree::Config &config);

    /** @return the cross-frame delta of the last incremental update. */
    const PointDelta &delta() const { return delta_; }

    /** @return nodes block-copied from the previous tree. */
    std::size_t nodesReused() const { return nodes_reused; }

    /** @return nodes re-erected around dirty ranges. */
    std::size_t nodesErected() const { return nodes_erected; }

  private:
    // Scratch reused across frames.
    std::vector<PointIndex> table;   //!< hash buckets (head slot)
    std::vector<PointIndex> chain;   //!< next old slot in bucket
    std::vector<std::uint8_t> matched_old;
    std::vector<std::uint8_t> claimed; //!< new input paired by slot
    std::vector<PointIndex> new_of_old; //!< new input idx per old slot
    std::vector<std::pair<morton::Code, PointIndex>> inserts;

    PointDelta delta_;
    std::size_t nodes_reused = 0;
    std::size_t nodes_erected = 0;

    const Octree *old_tree = nullptr;
    Octree *new_tree = nullptr;

    /** @return sum of scratch capacities (growth accounting). */
    std::size_t scratchCapacity() const;

    /**
     * Match @p cloud in old-SFC-slot order: old slot s pairs with new
     * input prev->perm[s] when their bits agree and no other old slot
     * has them; every other new point becomes an insertion.
     * @return false when that could differ from hashJoin() — a new
     *   point left unpaired bit-equals an old one, or an equal-code
     *   run is too long to check — and the frame must be joined.
     */
    bool matchBySlot(const PointCloud &cloud);

    /** Hash-join @p cloud against the previous reordered points. */
    void hashJoin(const PointCloud &cloud);

    /**
     * Merge retained and inserted points into the new sorted
     * (code, perm) arrays and reordered positions, filling delta_.
     * @return false when the retained run is not key-sorted (the
     *   incremental order precondition failed).
     */
    bool mergeOrder(const PointCloud &cloud);

    /** Erect node @p self, aligned with old node @p old_idx. */
    void erectNode(NodeIndex self, NodeIndex old_idx);

    /** Copy the clean old subtree @p old_idx as new node @p self. */
    void copySubtree(NodeIndex self, NodeIndex old_idx);
};

} // namespace hgpcn

#endif // HGPCN_OCTREE_INCREMENTAL_OCTREE_H
