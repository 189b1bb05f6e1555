#include "octree/incremental_octree.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"
#include "core/frame_workspace.h"

namespace hgpcn
{

namespace
{

/** Mix the coordinate bit patterns of @p p into a hash. */
std::uint64_t
hashPosition(const Vec3 &p)
{
    std::uint32_t b[3];
    std::memcpy(&b[0], &p.x, sizeof(float));
    std::memcpy(&b[1], &p.y, sizeof(float));
    std::memcpy(&b[2], &p.z, sizeof(float));
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t v : b) {
        h ^= v;
        h *= 0xbf58476d1ce4e5b9ull;
        h ^= h >> 27;
    }
    return h;
}

/**
 * Bit-pattern equality. Float == would also match -0.0 against +0.0,
 * whose m-codes agree but whose stored coordinates differ — the
 * incremental output must be byte-identical to the scratch build, so
 * matching is on representation, not value.
 */
bool
samePosition(const Vec3 &a, const Vec3 &b)
{
    return std::memcmp(&a.x, &b.x, sizeof(float)) == 0 &&
           std::memcmp(&a.y, &b.y, sizeof(float)) == 0 &&
           std::memcmp(&a.z, &b.z, sizeof(float)) == 0;
}

/**
 * Longest equal-code run the slot-order match checks pairwise for
 * bit twins; a longer one (a dense pile of points under one leaf
 * code) sends the frame to the hash join.
 */
constexpr std::size_t kMaxSlotRun = 32;

/** Prefetch distance of the slot-order match, in old slots. */
constexpr std::size_t kPrefetchSlots = 16;

/** Bit-pattern equality of two AABBs (root-voxel stability guard). */
bool
sameBounds(const Aabb &a, const Aabb &b)
{
    return samePosition(a.lo, b.lo) && samePosition(a.hi, b.hi);
}

} // namespace

std::size_t
IncrementalOctreeBuilder::scratchCapacity() const
{
    return table.capacity() + chain.capacity() +
           matched_old.capacity() + claimed.capacity() +
           new_of_old.capacity() +
           inserts.capacity() + delta_.newFromOld.capacity() +
           delta_.insertedNew.capacity() + delta_.evictedOld.capacity();
}

bool
IncrementalOctreeBuilder::matchBySlot(const PointCloud &cloud)
{
    const std::size_t n_old = old_tree->codes.size();
    const std::size_t n_new = cloud.size();
    const std::vector<morton::Code> &old_codes = old_tree->codes;
    const std::vector<PointIndex> &old_perm = old_tree->perm;
    const PointCloud &old_points = old_tree->reordered;

    matched_old.assign(n_old, 0);
    new_of_old.assign(n_old, kNoPoint);
    claimed.assign(n_new, 0);

    // Pair old slot s with the new input at s's old input index when
    // the bits agree and s's position is unique in the old frame
    // (bit-equal points share a code, so its equal-code run is where
    // a twin would be). The join pairs such an old point with the
    // first new input carrying its bits; the pass below proves no
    // other new input carries them.
    for (std::size_t run = 0; run < n_old;) {
        std::size_t end = run + 1;
        while (end < n_old && old_codes[end] == old_codes[run])
            ++end;
        if (end - run > kMaxSlotRun)
            return false;
        for (std::size_t s = run; s < end; ++s) {
            // The new frame arrives cold and is read in old SFC
            // order, i.e. at random: fetch a few slots ahead.
            if (s + kPrefetchSlots < n_old &&
                old_perm[s + kPrefetchSlots] < n_new) {
                __builtin_prefetch(
                    &cloud.position(old_perm[s + kPrefetchSlots]));
            }
            const PointIndex j = old_perm[s];
            const Vec3 &p = old_points.position(static_cast<PointIndex>(s));
            if (j >= n_new || !samePosition(cloud.position(j), p))
                continue;
            bool unique = true;
            for (std::size_t u = run; u < end && unique; ++u) {
                unique = u == s ||
                         !samePosition(old_points.position(
                                           static_cast<PointIndex>(u)),
                                       p);
            }
            if (!unique)
                continue;
            matched_old[s] = 1;
            new_of_old[s] = j;
            claimed[j] = 1;
        }
        run = end;
    }

    // Every other new point is an insertion — unless it bit-equals an
    // old point, which only the join pairs exactly (twins, retained
    // points that changed input index).
    inserts.clear();
    for (std::size_t i = 0; i < n_new; ++i) {
        if (claimed[i])
            continue;
        const Vec3 &p = cloud.position(static_cast<PointIndex>(i));
        const morton::Code code = morton::pointCode3(
            p, old_tree->root_bounds, old_tree->cfg.maxDepth);
        for (auto it = std::lower_bound(old_codes.begin(),
                                        old_codes.end(), code);
             it != old_codes.end() && *it == code; ++it) {
            if (samePosition(old_points.position(static_cast<PointIndex>(
                                 it - old_codes.begin())),
                             p))
                return false;
        }
        inserts.emplace_back(code, static_cast<PointIndex>(i));
    }

    std::sort(inserts.begin(), inserts.end());
    return true;
}

void
IncrementalOctreeBuilder::hashJoin(const PointCloud &cloud)
{
    const std::size_t n_old = old_tree->codes.size();
    const std::size_t n_new = cloud.size();
    const PointCloud &old_points = old_tree->reordered;

    std::size_t buckets = 16;
    while (buckets < 2 * n_old)
        buckets <<= 1;
    const std::uint64_t mask = buckets - 1;

    table.assign(buckets, kNoPoint);
    chain.resize(n_old);
    // Push-front while walking slots backwards leaves every bucket
    // chain in ascending slot order, so duplicate coordinates match
    // old slots and new inputs in the same relative order the scratch
    // build's stable sort would produce.
    for (std::size_t s = n_old; s-- > 0;) {
        const std::uint64_t h =
            hashPosition(old_points.position(
                static_cast<PointIndex>(s))) &
            mask;
        chain[s] = table[h];
        table[h] = static_cast<PointIndex>(s);
    }

    matched_old.assign(n_old, 0);
    new_of_old.assign(n_old, kNoPoint);
    inserts.clear();

    for (std::size_t i = 0; i < n_new; ++i) {
        const Vec3 &p = cloud.position(static_cast<PointIndex>(i));
        const std::uint64_t h = hashPosition(p) & mask;
        PointIndex s = table[h];
        while (s != kNoPoint) {
            if (!matched_old[s] &&
                samePosition(old_points.position(s), p))
                break;
            s = chain[s];
        }
        if (s != kNoPoint) {
            matched_old[s] = 1;
            new_of_old[s] = static_cast<PointIndex>(i);
        } else {
            inserts.emplace_back(
                morton::pointCode3(p, old_tree->root_bounds,
                                   old_tree->cfg.maxDepth),
                static_cast<PointIndex>(i));
        }
    }

    std::sort(inserts.begin(), inserts.end());
}

bool
IncrementalOctreeBuilder::mergeOrder(const PointCloud &cloud)
{
    const std::size_t n_old = old_tree->codes.size();
    const std::size_t n_new = cloud.size();

    delta_.newFromOld.assign(n_old, kNoPoint);
    delta_.insertedNew.clear();
    delta_.evictedOld.clear();
    for (std::size_t s = 0; s < n_old; ++s) {
        if (!matched_old[s])
            delta_.evictedOld.push_back(static_cast<PointIndex>(s));
    }

    new_tree->codes.resize(n_new);
    new_tree->perm.resize(n_new);
    new_tree->reordered.resize(n_new, cloud.featureDim());
    const PointCloud &old_points = old_tree->reordered;
    PointCloud &points = new_tree->reordered;

    // Merge the retained run (old SFC order, remapped to new input
    // indices) with the sorted insertions. The scratch build sorts
    // (code, input index) pairs stably, i.e. by (code, index); the
    // merge reproduces that order exactly — provided the retained run
    // itself is (code, index)-sorted, which churn can violate when
    // equal-code points arrive permuted. Verify while merging and let
    // the caller fall back to the scratch build on violation.
    std::size_t a = 0; // old slot cursor
    std::size_t b = 0; // insert cursor
    while (a < n_old && !matched_old[a])
        ++a;
    bool have_last = false;
    morton::Code last_code = 0;
    PointIndex last_idx = 0;
    for (std::size_t w = 0; w < n_new; ++w) {
        bool take_a;
        if (a >= n_old) {
            take_a = false;
        } else if (b >= inserts.size()) {
            take_a = true;
        } else {
            const morton::Code ac = old_tree->codes[a];
            take_a = ac < inserts[b].first ||
                     (ac == inserts[b].first &&
                      new_of_old[a] < inserts[b].second);
        }
        if (take_a) {
            const morton::Code code = old_tree->codes[a];
            const PointIndex idx = new_of_old[a];
            if (have_last && (code < last_code ||
                              (code == last_code && idx <= last_idx)))
                return false;
            have_last = true;
            last_code = code;
            last_idx = idx;
            new_tree->codes[w] = code;
            new_tree->perm[w] = idx;
            // Bit-equal to the new input by the match.
            points.position(static_cast<PointIndex>(w)) =
                old_points.position(static_cast<PointIndex>(a));
            delta_.newFromOld[a] = static_cast<PointIndex>(w);
            ++a;
            while (a < n_old && !matched_old[a])
                ++a;
        } else {
            HGPCN_ASSERT(b < inserts.size(),
                         "merge ran out of points at slot ", w);
            new_tree->codes[w] = inserts[b].first;
            new_tree->perm[w] = inserts[b].second;
            points.position(static_cast<PointIndex>(w)) =
                cloud.position(inserts[b].second);
            delta_.insertedNew.push_back(static_cast<PointIndex>(w));
            ++b;
        }
    }
    HGPCN_ASSERT(a >= n_old && b == inserts.size(),
                 "merge left points behind");
    return true;
}

void
IncrementalOctreeBuilder::erectNode(NodeIndex self, NodeIndex old_idx)
{
    auto &ns = new_tree->node_store;
    const morton::Code code = ns[self].code;
    const int level = ns[self].level;
    const PointIndex begin = ns[self].pointBegin;
    const PointIndex end = ns[self].pointEnd;
    const std::uint32_t count = end - begin;

    // Clean subtree: the aligned old node covers the same number of
    // points and no new slot in the range was inserted this frame.
    // Equal counts then rule out evictions too, so the code multiset
    // under both nodes is identical and the whole old subtree can be
    // copied with a point-range offset.
    if (old_idx != kNoNode &&
        old_tree->node_store[old_idx].count() == count &&
        !delta_.rangeDirty(begin, end)) {
        copySubtree(self, old_idx);
        return;
    }

    if (level > new_tree->max_level)
        new_tree->max_level = level;

    const bool subdivide = level < new_tree->cfg.maxDepth &&
                           count > new_tree->cfg.leafCapacity;
    if (!subdivide) {
        ++new_tree->leaf_total;
        for (PointIndex i = begin; i < end; ++i)
            new_tree->point_leaf[i] = self;
        return;
    }

    const int shift = 3 * (new_tree->cfg.maxDepth - level - 1);
    struct ChildRange
    {
        unsigned octant;
        PointIndex begin;
        PointIndex end;
    };
    ChildRange ranges[8];
    int n_children = 0;
    std::uint8_t mask = 0;
    PointIndex cursor = begin;
    const auto &codes = new_tree->codes;
    for (unsigned oct = 0; oct < 8 && cursor < end; ++oct) {
        const morton::Code upper = (morton::child3(code, oct) + 1)
                                   << shift;
        const auto it = std::lower_bound(codes.begin() + cursor,
                                         codes.begin() + end, upper);
        const auto stop = static_cast<PointIndex>(it - codes.begin());
        if (stop > cursor) {
            mask |= static_cast<std::uint8_t>(1u << oct);
            ranges[n_children++] = {oct, cursor, stop};
            cursor = stop;
        }
    }
    HGPCN_ASSERT(cursor == end, "octant partition lost points");

    ns[self].childMask = mask;
    const NodeIndex first_child = static_cast<NodeIndex>(ns.size());
    ns[self].firstChild = first_child;

    for (int c = 0; c < n_children; ++c) {
        OctreeNode child;
        child.code = morton::child3(code, ranges[c].octant);
        child.level = static_cast<std::uint16_t>(level + 1);
        child.parent = self;
        child.pointBegin = ranges[c].begin;
        child.pointEnd = ranges[c].end;
        ns.push_back(child);
        ++nodes_erected;
    }
    for (int c = 0; c < n_children; ++c) {
        const NodeIndex old_child =
            old_idx != kNoNode
                ? old_tree->childAt(old_idx, ranges[c].octant)
                : kNoNode;
        erectNode(first_child + c, old_child);
    }
}

void
IncrementalOctreeBuilder::copySubtree(NodeIndex self, NodeIndex old_idx)
{
    auto &ns = new_tree->node_store;
    const OctreeNode on = old_tree->node_store[old_idx];
    const int level = ns[self].level;
    const PointIndex nb = ns[self].pointBegin;
    const PointIndex ne = ns[self].pointEnd;

    if (level > new_tree->max_level)
        new_tree->max_level = level;

    if (on.isLeaf()) {
        ++new_tree->leaf_total;
        for (PointIndex i = nb; i < ne; ++i)
            new_tree->point_leaf[i] = self;
        return;
    }

    const std::int64_t off = static_cast<std::int64_t>(nb) -
                             static_cast<std::int64_t>(on.pointBegin);
    ns[self].childMask = on.childMask;
    const NodeIndex first_child = static_cast<NodeIndex>(ns.size());
    ns[self].firstChild = first_child;

    const int n_children = std::popcount(on.childMask);
    for (int c = 0; c < n_children; ++c) {
        const OctreeNode &oc = old_tree->node_store[on.firstChild + c];
        OctreeNode child;
        child.code = oc.code;
        child.level = oc.level;
        child.parent = self;
        child.pointBegin =
            static_cast<PointIndex>(oc.pointBegin + off);
        child.pointEnd = static_cast<PointIndex>(oc.pointEnd + off);
        ns.push_back(child);
        ++nodes_reused;
    }
    for (int c = 0; c < n_children; ++c)
        copySubtree(first_child + c, on.firstChild + c);
}

bool
IncrementalOctreeBuilder::aligns(const Aabb &cube, const Octree *prev,
                                 const Octree::Config &config)
{
    return prev != nullptr && !prev->codes.empty() &&
           prev->cfg.maxDepth == config.maxDepth &&
           prev->cfg.leafCapacity == config.leafCapacity &&
           sameBounds(cube, prev->root_bounds);
}

bool
IncrementalOctreeBuilder::update(const PointCloud &cloud,
                                 const Aabb &cube, const Octree *prev,
                                 const Octree::Config &config,
                                 Octree &out)
{
    HGPCN_ASSERT(prev != &out,
                 "incremental update cannot rebuild in place");
    HGPCN_ASSERT(!cloud.empty(), "cannot build an octree over no points");
    nodes_reused = 0;
    nodes_erected = 0;

    if (!aligns(cube, prev, config)) {
        out.rebuild(cloud, config, cube);
        return false;
    }

    const std::size_t cap_before =
        out.backingCapacity() + scratchCapacity();
    const std::size_t n = cloud.size();

    old_tree = prev;
    new_tree = &out;

    if (!matchBySlot(cloud))
        hashJoin(cloud);
    if (!mergeOrder(cloud)) {
        old_tree = nullptr;
        new_tree = nullptr;
        out.rebuild(cloud, config, cube);
        return false;
    }

    out.cfg = config;
    out.root_bounds = prev->root_bounds;
    out.build_stats.clear();
    out.max_level = 0;
    out.leaf_total = 0;

    // Modeled build cost is the scratch build's: the accelerator
    // model still reads, codes and sorts every point, so paper-model
    // numbers (octreeBuildSec) are unchanged by construction — only
    // host wall-clock moves.
    out.chargeScratchBuild(n, config);

    // The merge wrote the reordered positions; features, if any,
    // are gathered from the new frame.
    if (cloud.featureDim() > 0) {
        for (std::size_t w = 0; w < n; ++w) {
            const std::span<const float> src =
                cloud.feature(out.perm[w]);
            std::copy(src.begin(), src.end(),
                      out.reordered.feature(static_cast<PointIndex>(w))
                          .begin());
        }
    }

    out.point_leaf.resize(n); // resize+fill: see Octree::resetLive()
    std::fill(out.point_leaf.begin(), out.point_leaf.end(), kNoNode);
    out.node_store.clear();
    out.node_store.reserve(n / 2 + 16);

    OctreeNode root;
    root.code = 0;
    root.level = 0;
    root.parent = kNoNode;
    root.pointBegin = 0;
    root.pointEnd = static_cast<PointIndex>(n);
    out.node_store.push_back(root);
    nodes_erected = 1;
    erectNode(0, 0);

    out.build_stats.set("octree.nodes", out.node_store.size());
    out.build_stats.set("octree.leaves", out.leaf_total);
    out.build_stats.set("octree.depth",
                        static_cast<std::uint64_t>(out.max_level));

    out.resetLive();
    old_tree = nullptr;
    new_tree = nullptr;

    if (cap_before > 0 &&
        out.backingCapacity() + scratchCapacity() > cap_before)
        FrameWorkspace::noteGrowth();
    return true;
}

} // namespace hgpcn
