#include "octree/octree.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "core/frame_workspace.h"

namespace hgpcn
{

namespace
{

/** Octree::forEachBuffer() entries before the per-level build
 * scratch. */
constexpr std::size_t kFixedBuffers = 11;

} // namespace

Octree
Octree::build(const PointCloud &cloud, const Config &config)
{
    Octree tree;
    tree.rebuild(cloud, config);
    return tree;
}

template <class Self, class Fn>
void
Octree::forEachBuffer(Self &self, Fn &&fn)
{
    fn(self.scratch.keyed);
    fn(self.scratch.radix);
    fn(self.codes);
    fn(self.perm);
    fn(self.point_leaf);
    fn(self.node_store);
    fn(self.reordered);
    fn(self.live);
    fn(self.sampled);
    fn(self.consumed);
    fn(self.scratch.levels);
    for (auto &lvl : self.scratch.levels)
        fn(lvl);
}

std::size_t
Octree::backingCapacity() const
{
    std::size_t total = 0;
    forEachBuffer(*this,
                  [&total](const auto &v) { total += v.capacity(); });
    return total;
}

std::vector<std::size_t>
Octree::capacities() const
{
    std::vector<std::size_t> caps;
    caps.reserve(kFixedBuffers + scratch.levels.size());
    forEachBuffer(*this, [&caps](const auto &v) {
        caps.push_back(v.capacity());
    });
    return caps;
}

bool
Octree::reserveCapacities(std::span<const std::size_t> caps)
{
    const std::size_t before = backingCapacity();
    // Entries past the fixed buffers are one per build-scratch level.
    if (caps.size() > kFixedBuffers &&
        scratch.levels.size() < caps.size() - kFixedBuffers)
        scratch.levels.resize(caps.size() - kFixedBuffers);
    std::size_t i = 0;
    forEachBuffer(*this, [&](auto &v) {
        if (i < caps.size())
            v.reserve(caps[i]);
        ++i;
    });
    return backingCapacity() > before;
}

void
Octree::rebuild(const PointCloud &cloud, const Config &config)
{
    rebuild(cloud, config, cloud.bounds().cubified());
}

void
Octree::rebuild(const PointCloud &cloud, const Config &config,
                const Aabb &cube)
{
    HGPCN_ASSERT(config.maxDepth >= 1 &&
                     config.maxDepth <= morton::kMaxDepth3d,
                 "maxDepth=", config.maxDepth);
    HGPCN_ASSERT(!cloud.empty(), "cannot build an octree over no points");

    const std::size_t cap_before = backingCapacity();

    cfg = config;
    root_bounds = cube;
    build_stats.clear();
    max_level = 0;
    leaf_total = 0;

    const std::size_t n = cloud.size();

    // Pass over the raw points: compute the full-depth m-code of each
    // point. This is the single host-memory read pass of the
    // Octree-build Unit.
    auto &keyed = scratch.keyed;
    keyed.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        keyed[i].first = morton::pointCode3(
            cloud.position(static_cast<PointIndex>(i)), root_bounds,
            config.maxDepth);
        keyed[i].second = static_cast<PointIndex>(i);
    }

    // SFC ordering: sorting by m-code realises the Space-Filling-Curve
    // traversal order of Fig. 5(b).
    const std::vector<std::pair<morton::Code, PointIndex>> *sorted = &keyed;
    if (config.useRadixSort)
        sorted = &radixSort(keyed, scratch.radix, 3 * config.maxDepth,
                            [](const auto &kv) { return kv.first; });
    else
        std::sort(keyed.begin(), keyed.end());

    codes.resize(n);
    perm.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        codes[i] = (*sorted)[i].first;
        perm[i] = (*sorted)[i].second;
    }

    // Host-memory pre-configuration: write the reorganized copy so
    // voxel reads become sequential bursts.
    reordered.assignGathered(cloud, perm);
    chargeScratchBuild(n, config);

    point_leaf.resize(n); // resize+fill: see resetLive()
    std::fill(point_leaf.begin(), point_leaf.end(), kNoNode);
    node_store.clear();
    node_store.reserve(n / 2 + 16);

    OctreeNode root;
    root.code = 0;
    root.level = 0;
    root.parent = kNoNode;
    root.pointBegin = 0;
    root.pointEnd = static_cast<PointIndex>(n);
    node_store.push_back(root);
    if (config.bottomUpBuild)
        erectBottomUp();
    else
        processNode(0);

    build_stats.set("octree.nodes", node_store.size());
    build_stats.set("octree.leaves", leaf_total);
    build_stats.set("octree.depth",
                    static_cast<std::uint64_t>(max_level));

    resetLive();

    // Count re-growth of warmed storage only: a fresh tree's first
    // backing is creation, accounted where the tree is pooled
    // (TemporalPreprocessState::leaseBundle), not here — transient
    // per-frame trees (backends, tests) stay invisible to the
    // steady-state zero-alloc pin.
    if (cap_before > 0 && backingCapacity() > cap_before)
        FrameWorkspace::noteGrowth();
}

void
Octree::chargeScratchBuild(std::size_t n, const Config &config)
{
    build_stats.add("octree.host_reads", n);
    build_stats.add("octree.code_computations", n);
    if (config.useRadixSort) {
        // The modeled sorter is byte-wise: three touches per element
        // per byte pass (count, read, scatter).
        build_stats.add("octree.sort_ops",
                        n * static_cast<std::uint64_t>(
                                (3 * config.maxDepth + 7) / 8) *
                            3);
    } else {
        build_stats.add("octree.sort_ops",
                        n > 1 ? static_cast<std::uint64_t>(
                                    n * std::bit_width(n - 1))
                              : 0);
    }
    build_stats.add("octree.host_writes", n);
}

void
Octree::erectBottomUp()
{
    const std::size_t n = codes.size();
    const int depth = cfg.maxDepth;
    auto &levels = scratch.levels;
    if (levels.size() < static_cast<std::size_t>(depth) + 1)
        levels.resize(depth + 1);

    // Deepest level: one run per distinct full-depth code.
    auto &deep = levels[depth];
    deep.clear();
    for (std::size_t i = 0; i < n; ++i) {
        if (deep.empty() || deep.back().code != codes[i]) {
            deep.push_back({codes[i], static_cast<PointIndex>(i),
                            static_cast<PointIndex>(i + 1), kNoNode, 0});
        } else {
            deep.back().end = static_cast<PointIndex>(i + 1);
        }
    }

    // Agglomerate upwards: each level's runs are the distinct
    // (code >> 3) prefixes of the level below, carrying the merged
    // point range, the occupied-octant mask and the index of their
    // first child run (the pointerless NavVolume layout).
    for (int lvl = depth - 1; lvl >= 0; --lvl) {
        const auto &child = levels[lvl + 1];
        auto &cur = levels[lvl];
        cur.clear();
        for (std::size_t j = 0; j < child.size(); ++j) {
            const morton::Code pc = child[j].code >> 3;
            if (cur.empty() || cur.back().code != pc) {
                cur.push_back({pc, child[j].begin, child[j].end,
                               static_cast<std::int32_t>(j), 0});
            } else {
                cur.back().end = child[j].end;
            }
            cur.back().mask |=
                static_cast<std::uint8_t>(1u << (child[j].code & 7u));
        }
    }
    HGPCN_ASSERT(levels[0].size() == 1, "agglomeration lost the root");

    // DFS emission reproduces processNode()'s exact node order:
    // siblings contiguous in ascending octant, then recurse in order.
    emitRun(0, 0, levels[0][0]);
}

void
Octree::emitRun(NodeIndex self, int level,
                const BuildScratch::LevelRun &run)
{
    if (level > max_level)
        max_level = level;

    const std::uint32_t count = run.end - run.begin;
    const bool subdivide =
        level < cfg.maxDepth && count > cfg.leafCapacity;
    if (!subdivide) {
        ++leaf_total;
        for (PointIndex i = run.begin; i < run.end; ++i)
            point_leaf[i] = self;
        return;
    }

    node_store[self].childMask = run.mask;
    const NodeIndex first_child =
        static_cast<NodeIndex>(node_store.size());
    node_store[self].firstChild = first_child;

    const int n_children = std::popcount(run.mask);
    const auto &child_level = scratch.levels[level + 1];
    for (int c = 0; c < n_children; ++c) {
        const auto &cr = child_level[run.firstChild + c];
        OctreeNode child;
        child.code = cr.code;
        child.level = static_cast<std::uint16_t>(level + 1);
        child.parent = self;
        child.pointBegin = cr.begin;
        child.pointEnd = cr.end;
        node_store.push_back(child);
    }
    for (int c = 0; c < n_children; ++c)
        emitRun(first_child + c, level + 1,
                child_level[run.firstChild + c]);
}

void
Octree::processNode(NodeIndex self)
{
    const morton::Code code = node_store[self].code;
    const int level = node_store[self].level;
    const PointIndex begin = node_store[self].pointBegin;
    const PointIndex end = node_store[self].pointEnd;
    const std::uint32_t count = end - begin;

    if (level > max_level)
        max_level = level;

    const bool subdivide =
        level < cfg.maxDepth && count > cfg.leafCapacity;
    if (!subdivide) {
        ++leaf_total;
        for (PointIndex i = begin; i < end; ++i)
            point_leaf[i] = self;
        return;
    }

    // Partition the sorted range into the eight octants by the next
    // 3-bit group. Because codes are sorted, each octant is a
    // contiguous sub-range found by binary search.
    const int shift = 3 * (cfg.maxDepth - level - 1);
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

    // Siblings are stored contiguously (childAt() relies on it); the
    // recursion below appends grandchildren after all siblings.
    node_store[self].childMask = mask;
    const NodeIndex first_child =
        static_cast<NodeIndex>(node_store.size());
    node_store[self].firstChild = first_child;

    for (int c = 0; c < n_children; ++c) {
        OctreeNode child;
        child.code = morton::child3(code, ranges[c].octant);
        child.level = static_cast<std::uint16_t>(level + 1);
        child.parent = self;
        child.pointBegin = ranges[c].begin;
        child.pointEnd = ranges[c].end;
        node_store.push_back(child);
    }
    for (int c = 0; c < n_children; ++c)
        processNode(first_child + c);
}

NodeIndex
Octree::childAt(NodeIndex n, unsigned octant) const
{
    const OctreeNode &node = node_store[n];
    if (!(node.childMask & (1u << octant)))
        return kNoNode;
    const unsigned below = node.childMask & ((1u << octant) - 1u);
    return node.firstChild + std::popcount(below);
}

NodeIndex
Octree::findLeaf(const Vec3 &p) const
{
    const morton::Code full =
        morton::pointCode3(p, root_bounds, cfg.maxDepth);
    NodeIndex cur = 0;
    while (!node_store[cur].isLeaf()) {
        const int child_level = node_store[cur].level + 1;
        const unsigned oct = static_cast<unsigned>(
            morton::ancestorAt(full, cfg.maxDepth, child_level) & 7u);
        const NodeIndex next = childAt(cur, oct);
        if (next == kNoNode)
            return cur; // empty octant: position is in this voxel
        cur = next;
    }
    return cur;
}

void
Octree::resetLive()
{
    // resize + fill, not assign: assign() reallocates to the exact
    // new size, so fluctuating node counts would grow the backing a
    // little on every new high-water frame; resize() grows
    // geometrically and converges (the pooled zero-alloc path).
    live.resize(node_store.size());
    for (std::size_t i = 0; i < node_store.size(); ++i)
        live[i] = node_store[i].count();
    sampled.resize(node_store.size());
    std::fill(sampled.begin(), sampled.end(), 0u);
    consumed.resize(codes.size());
    std::fill(consumed.begin(), consumed.end(), 0);
}

int
Octree::consumePoint(PointIndex i)
{
    HGPCN_ASSERT(i < codes.size(), "point index out of range: ", i);
    HGPCN_ASSERT(!consumed[i], "point consumed twice: ", i);
    consumed[i] = 1;
    int levels = 0;
    for (NodeIndex n = point_leaf[i]; n != kNoNode;
         n = node_store[n].parent) {
        HGPCN_ASSERT(live[n] > 0, "live underflow at node ", n);
        --live[n];
        ++sampled[n];
        ++levels;
    }
    return levels;
}

NodeIndex
Octree::descendFarthest(morton::Code seed_code, DescentMetric metric,
                        std::uint32_t stop_count,
                        int *levels_visited) const
{
    if (live[0] == 0)
        return kNoNode;

    // Seed cell coordinates at max depth; shifted down per level for
    // geometric scoring.
    morton::CellCoord sx = 0, sy = 0, sz = 0;
    morton::decode3(seed_code, cfg.maxDepth, sx, sy, sz);

    NodeIndex cur = 0;
    int levels = 0;
    // Decoded coordinates of the current node's cell.
    std::uint32_t cx = 0, cy = 0, cz = 0;

    while (!node_store[cur].isLeaf() && live[cur] > stop_count) {
        const int child_level = node_store[cur].level + 1;
        const int shift = cfg.maxDepth - child_level;
        const unsigned seed_bits = static_cast<unsigned>(
            morton::ancestorAt(seed_code, cfg.maxDepth, child_level) &
            7u);
        const std::uint32_t seed_cx = sx >> shift;
        const std::uint32_t seed_cy = sy >> shift;
        const std::uint32_t seed_cz = sz >> shift;

        NodeIndex best = kNoNode;
        std::uint64_t best_primary = 0;
        std::uint64_t best_secondary = 0;
        unsigned best_oct = 0;

        for (unsigned oct = 0; oct < 8; ++oct) {
            const NodeIndex child = childAt(cur, oct);
            if (child == kNoNode || live[child] == 0)
                continue;
            // Child cell coordinates extend the parent's.
            const std::uint32_t kx = (cx << 1) | ((oct >> 2) & 1u);
            const std::uint32_t ky = (cy << 1) | ((oct >> 1) & 1u);
            const std::uint32_t kz = (cz << 1) | (oct & 1u);
            const std::int64_t dx =
                static_cast<std::int64_t>(kx) - seed_cx;
            const std::int64_t dy =
                static_cast<std::int64_t>(ky) - seed_cy;
            const std::int64_t dz =
                static_cast<std::int64_t>(kz) - seed_cz;
            const std::uint64_t dist_sq =
                static_cast<std::uint64_t>(dx * dx + dy * dy + dz * dz);

            std::uint64_t primary = 0;
            std::uint64_t secondary = 0;
            switch (metric) {
              case DescentMetric::Balanced:
                // Fewest samples first (stored inverted so that
                // "bigger is better" holds for every metric), then
                // farthest from the seed.
                primary = ~static_cast<std::uint64_t>(sampled[child]);
                secondary = dist_sq;
                break;
              case DescentMetric::Euclid:
                primary = dist_sq;
                secondary = oct ^ seed_bits;
                break;
              case DescentMetric::Hamming:
                primary = static_cast<std::uint64_t>(
                    std::popcount(oct ^ seed_bits));
                secondary = oct ^ seed_bits;
                break;
            }
            if (best == kNoNode || primary > best_primary ||
                (primary == best_primary &&
                 secondary > best_secondary)) {
                best = child;
                best_primary = primary;
                best_secondary = secondary;
                best_oct = oct;
            }
        }
        HGPCN_ASSERT(best != kNoNode,
                     "live counters inconsistent at node ", cur);
        cx = (cx << 1) | ((best_oct >> 2) & 1u);
        cy = (cy << 1) | ((best_oct >> 1) & 1u);
        cz = (cz << 1) | (best_oct & 1u);
        cur = best;
        ++levels;
    }
    if (levels_visited)
        *levels_visited = levels;
    return cur;
}

std::size_t
Octree::validate() const
{
    const std::size_t n = codes.size();
    // Codes ascend (SFC order).
    for (std::size_t i = 1; i < n; ++i) {
        HGPCN_ASSERT(codes[i - 1] <= codes[i],
                     "codes not sorted at ", i);
    }
    // Permutation is a bijection.
    std::vector<std::uint8_t> seen(n, 0);
    for (PointIndex p : perm) {
        HGPCN_ASSERT(p < n, "permutation out of range");
        HGPCN_ASSERT(!seen[p], "permutation repeats ", p);
        seen[p] = 1;
    }
    // Node structure.
    std::size_t leaf_points = 0;
    for (std::size_t idx = 0; idx < node_store.size(); ++idx) {
        const OctreeNode &node = node_store[idx];
        HGPCN_ASSERT(node.pointBegin <= node.pointEnd,
                     "negative range at node ", idx);
        if (node.isLeaf()) {
            leaf_points += node.count();
            for (PointIndex i = node.pointBegin; i < node.pointEnd;
                 ++i) {
                HGPCN_ASSERT(point_leaf[i] ==
                                 static_cast<NodeIndex>(idx),
                             "leaf map mismatch at point ", i);
            }
            continue;
        }
        PointIndex cursor = node.pointBegin;
        std::uint32_t live_sum = 0;
        for (unsigned oct = 0; oct < 8; ++oct) {
            const NodeIndex child =
                childAt(static_cast<NodeIndex>(idx), oct);
            if (child == kNoNode)
                continue;
            const OctreeNode &c = node_store[child];
            HGPCN_ASSERT(c.parent == static_cast<NodeIndex>(idx),
                         "bad parent link at node ", child);
            HGPCN_ASSERT(c.level == node.level + 1,
                         "bad level at node ", child);
            HGPCN_ASSERT(c.code == morton::child3(node.code, oct),
                         "bad code prefix at node ", child);
            HGPCN_ASSERT(c.pointBegin == cursor,
                         "range gap before node ", child);
            cursor = c.pointEnd;
            live_sum += live[child];
        }
        HGPCN_ASSERT(cursor == node.pointEnd,
                     "children do not cover node ", idx);
        HGPCN_ASSERT(live_sum == live[idx],
                     "live counter mismatch at node ", idx);
    }
    HGPCN_ASSERT(leaf_points == n, "leaves cover ", leaf_points,
                 " of ", n, " points");
    return node_store.size();
}

PointIndex
Octree::farthestLivePointInLeaf(NodeIndex leaf,
                                morton::Code seed_code) const
{
    const OctreeNode &node = node_store[leaf];
    PointIndex best = node.pointEnd;
    morton::Code best_xor = 0;
    for (PointIndex i = node.pointBegin; i < node.pointEnd; ++i) {
        if (consumed[i])
            continue;
        const morton::Code x = codes[i] ^ seed_code;
        if (best == node.pointEnd || x > best_xor) {
            best = i;
            best_xor = x;
        }
    }
    HGPCN_ASSERT(best != node.pointEnd, "leaf ", leaf,
                 " has no live point");
    return best;
}

} // namespace hgpcn
