/**
 * @file
 * Tests for data structuring: brute-force KNN/Ball-Query and all
 * three VEG modes. Key properties: VEG-strict equals brute KNN
 * exactly; paper-mode VEG has near-perfect recall with a fraction of
 * the sort workload (the Fig. 15 claim).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "gather/brute_gatherers.h"
#include "gather/veg_gatherer.h"

namespace hgpcn
{
namespace
{

PointCloud
randomCloud(std::size_t n, std::uint64_t seed)
{
    PointCloud cloud;
    cloud.reserve(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                   rng.uniform(0.0f, 1.0f)});
    }
    return cloud;
}

Octree
makeTree(const PointCloud &cloud, int depth = 9)
{
    Octree::Config cfg;
    cfg.maxDepth = depth;
    cfg.leafCapacity = 8;
    return Octree::build(cloud, cfg);
}

std::vector<PointIndex>
someCentrals(std::size_t n, std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<PointIndex> centrals;
    std::set<PointIndex> used;
    while (centrals.size() < count) {
        const auto c = static_cast<PointIndex>(rng.below(n));
        if (used.insert(c).second)
            centrals.push_back(c);
    }
    return centrals;
}

/** Sorted squared distances of a neighbor set to a query. */
std::vector<float>
distancesTo(const PointCloud &cloud, const Vec3 &anchor,
            std::span<const PointIndex> neighbors)
{
    std::vector<float> out;
    out.reserve(neighbors.size());
    for (PointIndex i : neighbors)
        out.push_back(cloud.position(i).distSq(anchor));
    std::sort(out.begin(), out.end());
    return out;
}

// ------------------------------------------------------- brute KNN

TEST(BruteKnn, ReturnsKNeighborsIncludingSelf)
{
    const PointCloud cloud = randomCloud(200, 1);
    BruteKnn knn(cloud);
    const auto centrals = someCentrals(200, 5, 2);
    const auto result = knn.gather(centrals, 8);
    EXPECT_EQ(result.centroids(), 5u);
    for (std::size_t c = 0; c < 5; ++c) {
        const auto neigh = result.of(c);
        EXPECT_EQ(neigh.size(), 8u);
        // The centroid itself is its own nearest neighbor.
        EXPECT_NE(std::find(neigh.begin(), neigh.end(), centrals[c]),
                  neigh.end());
    }
}

TEST(BruteKnn, NeighborsSortedByDistance)
{
    const PointCloud cloud = randomCloud(300, 3);
    BruteKnn knn(cloud);
    const auto centrals = someCentrals(300, 4, 4);
    const auto result = knn.gather(centrals, 16);
    for (std::size_t c = 0; c < 4; ++c) {
        const Vec3 anchor = cloud.position(centrals[c]);
        const auto neigh = result.of(c);
        for (std::size_t j = 1; j < neigh.size(); ++j) {
            EXPECT_LE(cloud.position(neigh[j - 1]).distSq(anchor),
                      cloud.position(neigh[j]).distSq(anchor));
        }
    }
}

TEST(BruteKnn, NoCloserPointOmitted)
{
    const PointCloud cloud = randomCloud(250, 5);
    BruteKnn knn(cloud);
    const auto centrals = someCentrals(250, 3, 6);
    const std::size_t k = 10;
    const auto result = knn.gather(centrals, k);
    for (std::size_t c = 0; c < 3; ++c) {
        const Vec3 anchor = cloud.position(centrals[c]);
        const auto neigh = result.of(c);
        const std::set<PointIndex> in_set(neigh.begin(), neigh.end());
        float kth = 0.0f;
        for (PointIndex i : neigh)
            kth = std::max(kth, cloud.position(i).distSq(anchor));
        for (std::size_t i = 0; i < cloud.size(); ++i) {
            if (in_set.count(static_cast<PointIndex>(i)))
                continue;
            EXPECT_GE(cloud.position(static_cast<PointIndex>(i))
                          .distSq(anchor),
                      kth);
        }
    }
}

TEST(BruteKnn, WorkloadIsNPerCentroid)
{
    const PointCloud cloud = randomCloud(400, 7);
    BruteKnn knn(cloud);
    const auto result = knn.gather(someCentrals(400, 6, 8), 4);
    EXPECT_EQ(result.stats.get("gather.distance_computations"),
              6u * 400u);
    EXPECT_EQ(result.stats.get("gather.sort_candidates"), 6u * 400u);
}

// -------------------------------------------------- brute BallQuery

TEST(BruteBallQuery, AllNeighborsWithinRadius)
{
    const PointCloud cloud = randomCloud(500, 9);
    const float radius = 0.2f;
    BruteBallQuery bq(cloud, radius);
    const auto centrals = someCentrals(500, 6, 10);
    const auto result = bq.gather(centrals, 16);
    for (std::size_t c = 0; c < 6; ++c) {
        const Vec3 anchor = cloud.position(centrals[c]);
        for (PointIndex i : result.of(c)) {
            EXPECT_LE(cloud.position(i).dist(anchor),
                      radius + 1e-5f);
        }
    }
}

TEST(BruteBallQuery, PadsWhenBallIsSparse)
{
    PointCloud cloud;
    cloud.add({0, 0, 0});
    cloud.add({0.01f, 0, 0});
    cloud.add({10, 10, 10});
    BruteBallQuery bq(cloud, 0.5f);
    const PointIndex centrals[] = {0};
    const auto result = bq.gather(centrals, 4);
    const auto neigh = result.of(0);
    EXPECT_EQ(neigh.size(), 4u);
    // Only points 0 and 1 are in range; the rest is padding.
    for (PointIndex i : neigh)
        EXPECT_LT(i, 2u);
}

TEST(BruteBallQuery, EmptyBallPadsWithCentroid)
{
    PointCloud cloud;
    cloud.add({0, 0, 0});
    cloud.add({5, 5, 5});
    BruteBallQuery bq(cloud, 0.1f);
    const PointIndex centrals[] = {1};
    const auto result = bq.gather(centrals, 3);
    for (PointIndex i : result.of(0))
        EXPECT_EQ(i, 1u);
}

// ------------------------------------------------------ VEG (paper)

TEST(VegKnn, ReturnsExactlyKNeighbors)
{
    const PointCloud cloud = randomCloud(1000, 11);
    const Octree tree = makeTree(cloud);
    VegKnn veg(tree);
    const auto centrals = someCentrals(1000, 10, 12);
    const auto result = veg.gather(centrals, 32);
    EXPECT_EQ(result.centroids(), 10u);
    for (std::size_t c = 0; c < 10; ++c) {
        const auto neigh = result.of(c);
        std::set<PointIndex> unique(neigh.begin(), neigh.end());
        EXPECT_EQ(unique.size(), 32u) << "duplicate neighbors";
    }
}

TEST(VegKnn, TracesAreConsistent)
{
    const PointCloud cloud = randomCloud(800, 13);
    const Octree tree = makeTree(cloud);
    VegKnn veg(tree);
    const auto centrals = someCentrals(800, 8, 14);
    const std::size_t k = 16;
    const auto result = veg.gather(centrals, k);
    ASSERT_EQ(result.traces.size(), 8u);
    for (const VegTrace &trace : result.traces) {
        // Expansion covered at least K points.
        EXPECT_GE(trace.innerPoints + trace.lastRingPoints, k);
        // Inner rings alone were not yet enough (that's why the
        // last ring was expanded).
        EXPECT_LT(trace.innerPoints, k);
        EXPECT_GT(trace.tableLookups, 0u);
    }
}

TEST(VegKnn, HighRecallAgainstBruteKnn)
{
    // Paper claims VEG is accurate; geometrically the paper-mode
    // shortcut can miss corner cases, so require >= 90% recall
    // (the ablation_veg_exactness bench characterizes the gap).
    const PointCloud cloud = randomCloud(2000, 15);
    const Octree tree = makeTree(cloud);
    VegKnn veg(tree);
    BruteKnn brute(tree.reorderedCloud());
    const auto centrals = someCentrals(2000, 20, 16);
    const std::size_t k = 32;

    const auto veg_result = veg.gather(centrals, k);
    const auto brute_result = brute.gather(centrals, k);

    std::size_t hits = 0;
    for (std::size_t c = 0; c < centrals.size(); ++c) {
        const auto v = veg_result.of(c);
        const auto b = brute_result.of(c);
        const std::set<PointIndex> truth(b.begin(), b.end());
        for (PointIndex i : v)
            hits += truth.count(i);
    }
    const double recall = static_cast<double>(hits) /
                          static_cast<double>(centrals.size() * k);
    EXPECT_GE(recall, 0.90);
}

TEST(VegKnn, SortWorkloadFractionOfBrute)
{
    // The Fig. 15 property: VEG's sorter only sees the last ring.
    const PointCloud cloud = randomCloud(4096, 17);
    const Octree tree = makeTree(cloud);
    VegKnn veg(tree);
    BruteKnn brute(tree.reorderedCloud());
    const auto centrals = someCentrals(4096, 64, 18);
    const std::size_t k = 32;

    const auto veg_result = veg.gather(centrals, k);
    const auto brute_result = brute.gather(centrals, k);
    EXPECT_LT(veg_result.stats.get("gather.sort_candidates") * 5,
              brute_result.stats.get("gather.sort_candidates"));
}

TEST(VegKnn, InnerPointsAreCloserThanLastRingSurvivors)
{
    // Points gathered blind from inner rings must all be genuinely
    // within the expanded neighborhood (distance sanity check).
    const PointCloud cloud = randomCloud(1500, 19);
    const Octree tree = makeTree(cloud);
    VegKnn::Config cfg;
    VegKnn veg(tree, cfg);
    const auto centrals = someCentrals(1500, 6, 20);
    const std::size_t k = 24;
    const auto result = veg.gather(centrals, k);
    for (std::size_t c = 0; c < centrals.size(); ++c) {
        const Vec3 anchor =
            tree.reorderedCloud().position(centrals[c]);
        const float cell = morton::voxelSize(veg.levelFor(anchor),
                                             tree.rootBounds());
        const float max_reach =
            static_cast<float>(result.traces[c].rings + 1) * cell *
            1.7321f; // ring diagonal
        for (PointIndex i : result.of(c)) {
            EXPECT_LE(tree.reorderedCloud().position(i).dist(anchor),
                      max_reach);
        }
    }
}

TEST(VegKnn, GatherAtArbitraryQueryPoints)
{
    const PointCloud cloud = randomCloud(600, 21);
    const Octree tree = makeTree(cloud);
    VegKnn veg(tree);
    const std::vector<Vec3> queries = {
        {0.5f, 0.5f, 0.5f}, {0.05f, 0.9f, 0.3f}, {0.99f, 0.01f, 0.5f}};
    const auto result = veg.gatherAt(queries, 8);
    EXPECT_EQ(result.centroids(), 3u);
    for (std::size_t q = 0; q < 3; ++q)
        EXPECT_EQ(result.of(q).size(), 8u);
}

// ------------------------------------------------------ VEG strict

TEST(VegStrict, ExactlyMatchesBruteKnn)
{
    const PointCloud cloud = randomCloud(1200, 23);
    const Octree tree = makeTree(cloud);
    VegKnn::Config cfg;
    cfg.mode = VegMode::Strict;
    VegKnn veg(tree, cfg);
    BruteKnn brute(tree.reorderedCloud());
    const auto centrals = someCentrals(1200, 15, 24);
    const std::size_t k = 16;

    const auto veg_result = veg.gather(centrals, k);
    const auto brute_result = brute.gather(centrals, k);
    for (std::size_t c = 0; c < centrals.size(); ++c) {
        const Vec3 anchor =
            tree.reorderedCloud().position(centrals[c]);
        // Compare distance multisets (ties may order differently).
        const auto dv = distancesTo(tree.reorderedCloud(), anchor,
                                    veg_result.of(c));
        const auto db = distancesTo(tree.reorderedCloud(), anchor,
                                    brute_result.of(c));
        ASSERT_EQ(dv.size(), db.size());
        for (std::size_t j = 0; j < dv.size(); ++j)
            EXPECT_FLOAT_EQ(dv[j], db[j]);
    }
}

TEST(VegStrict, StillLocalWorkload)
{
    const PointCloud cloud = randomCloud(4096, 25);
    const Octree tree = makeTree(cloud);
    VegKnn::Config cfg;
    cfg.mode = VegMode::Strict;
    VegKnn veg(tree, cfg);
    const auto centrals = someCentrals(4096, 32, 26);
    const auto result = veg.gather(centrals, 32);
    // Strict mode scans more than paper mode but still far less
    // than the whole cloud per centroid.
    EXPECT_LT(result.stats.get("gather.distance_computations"),
              32u * 4096u / 4u);
}

// -------------------------------------------------- VEG semi-approx

TEST(VegSemiApprox, ReturnsKNeighborsWithoutSorting)
{
    const PointCloud cloud = randomCloud(1000, 27);
    const Octree tree = makeTree(cloud);
    VegKnn::Config cfg;
    cfg.mode = VegMode::SemiApprox;
    VegKnn veg(tree, cfg);
    const auto centrals = someCentrals(1000, 10, 28);
    const auto result = veg.gather(centrals, 32);
    for (std::size_t c = 0; c < 10; ++c) {
        std::set<PointIndex> unique(result.of(c).begin(),
                                    result.of(c).end());
        EXPECT_EQ(unique.size(), 32u);
    }
    EXPECT_EQ(result.stats.get("gather.distance_computations"), 0u);
    EXPECT_EQ(result.stats.get("gather.sort_candidates"), 0u);
}

TEST(VegSemiApprox, InnerPointsStillExact)
{
    // The inner rings are identical to paper-mode VEG; only the
    // last-ring remainder is randomized.
    const PointCloud cloud = randomCloud(900, 29);
    const Octree tree = makeTree(cloud);
    VegKnn::Config paper_cfg;
    VegKnn paper(tree, paper_cfg);
    VegKnn::Config semi_cfg;
    semi_cfg.mode = VegMode::SemiApprox;
    VegKnn semi(tree, semi_cfg);
    const auto centrals = someCentrals(900, 5, 30);
    const std::size_t k = 20;
    const auto rp = paper.gather(centrals, k);
    const auto rs = semi.gather(centrals, k);
    for (std::size_t c = 0; c < 5; ++c) {
        const std::size_t inner = rp.traces[c].innerPoints;
        ASSERT_EQ(inner, rs.traces[c].innerPoints);
        for (std::size_t j = 0; j < inner; ++j)
            EXPECT_EQ(rp.of(c)[j], rs.of(c)[j]);
    }
}

// ---------------------------------------------------------- VEG BQ

TEST(VegBallQuery, AllNeighborsWithinRadius)
{
    const PointCloud cloud = randomCloud(1500, 31);
    const Octree tree = makeTree(cloud);
    VegBallQuery::Config cfg;
    cfg.radius = 0.15f;
    VegBallQuery bq(tree, cfg);
    const auto centrals = someCentrals(1500, 10, 32);
    const auto result = bq.gather(centrals, 16);
    for (std::size_t c = 0; c < 10; ++c) {
        const Vec3 anchor =
            tree.reorderedCloud().position(centrals[c]);
        std::set<PointIndex> in_ball;
        for (PointIndex i : result.of(c)) {
            EXPECT_LE(tree.reorderedCloud().position(i).dist(anchor),
                      cfg.radius + 1e-4f);
        }
    }
}

TEST(VegBallQuery, MatchesBruteBallQueryCounts)
{
    const PointCloud cloud = randomCloud(800, 33);
    const Octree tree = makeTree(cloud);
    const float radius = 0.2f;
    VegBallQuery::Config cfg;
    cfg.radius = radius;
    VegBallQuery veg_bq(tree, cfg);
    BruteBallQuery brute_bq(tree.reorderedCloud(), radius);
    const auto centrals = someCentrals(800, 8, 34);
    const std::size_t k = 64;
    const auto rv = veg_bq.gather(centrals, k);
    const auto rb = brute_bq.gather(centrals, k);
    for (std::size_t c = 0; c < 8; ++c) {
        // Same number of genuine (non-pad) in-radius points.
        auto count_unique = [&](std::span<const PointIndex> neigh) {
            std::set<PointIndex> s(neigh.begin(), neigh.end());
            return s.size();
        };
        EXPECT_EQ(count_unique(rv.of(c)), count_unique(rb.of(c)));
    }
}

TEST(VegBallQuery, FarFewerDistanceComputationsThanBrute)
{
    const PointCloud cloud = randomCloud(4000, 35);
    const Octree tree = makeTree(cloud);
    VegBallQuery::Config cfg;
    cfg.radius = 0.1f;
    VegBallQuery veg_bq(tree, cfg);
    BruteBallQuery brute_bq(tree.reorderedCloud(), cfg.radius);
    const auto centrals = someCentrals(4000, 32, 36);
    const auto rv = veg_bq.gather(centrals, 32);
    const auto rb = brute_bq.gather(centrals, 32);
    EXPECT_LT(rv.stats.get("gather.distance_computations") * 4,
              rb.stats.get("gather.distance_computations"));
}


// ------------------------------------------------ fixed VEG outputs

/** FNV-1a accumulator over the bytes of plain values. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    template <typename T>
    void
    value(const T &v)
    {
        unsigned char raw[sizeof v];
        std::memcpy(raw, &v, sizeof v);
        bytes(raw, sizeof raw);
    }
};

/** Fold neighbours, per-centroid traces and stats into @p fnv. */
void
hashResult(Fnv1a &fnv, const GatherResult &r)
{
    fnv.value(r.k);
    for (const PointIndex i : r.neighbors)
        fnv.value(i);
    for (const VegTrace &t : r.traces) {
        fnv.value(t.rings);
        fnv.value(t.innerPoints);
        fnv.value(t.lastRingPoints);
        fnv.value(t.tableLookups);
    }
    for (const auto &[name, v] : r.stats.all()) {
        fnv.bytes(name.data(), name.size());
        fnv.value(v);
    }
}

/** 2 tight clusters over a sparse background (LiDAR-like). */
PointCloud
clusteredCloud(std::size_t n, std::uint64_t seed)
{
    PointCloud cloud;
    cloud.reserve(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 4 == 0) {
            cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                       rng.uniform(0.0f, 1.0f)});
        } else {
            const float c = i % 8 < 4 ? 0.1f : 0.9f;
            cloud.add({c + rng.uniform(-0.005f, 0.005f),
                       c + rng.uniform(-0.005f, 0.005f),
                       c + rng.uniform(-0.005f, 0.005f)});
        }
    }
    return cloud;
}

/** Every position repeated ~12 times (coincident sensor returns). */
PointCloud
duplicateCloud(std::size_t n, std::uint64_t seed)
{
    const PointCloud base = randomCloud(n / 12 + 1, seed);
    PointCloud cloud;
    cloud.reserve(n);
    Rng rng(seed + 1);
    for (std::size_t i = 0; i < n; ++i)
        cloud.add(base.position(rng.below(base.size())));
    return cloud;
}

/**
 * VegKnn::gatherAt() rebuilt from gatherAtRange() over blocks of
 * @p block anchors, claimed by @p threads threads — the way the
 * network's parallel regions gather. SemiApprox draws its picks
 * from one rng in anchor order, so its blocks run in order.
 */
GatherResult
gatherInBlocks(const VegKnn &veg, std::span<const Vec3> anchors,
               std::size_t k, std::size_t block, int threads)
{
    GatherResult r;
    r.k = k;
    r.neighbors.resize(anchors.size() * k);
    r.traces.resize(anchors.size());
    const std::size_t blocks = (anchors.size() + block - 1) / block;
    std::vector<VegCounters> counters(blocks);
    const bool ordered = veg.config().mode == VegMode::SemiApprox;
    Rng rng(veg.config().seed);
    parallelBlocks(
        blocks, ordered ? 1 : threads, [](std::size_t) { return 0; },
        [&](int, std::size_t b) {
            const std::size_t begin = b * block;
            const std::size_t end = std::min(begin + block, anchors.size());
            veg.gatherAtRange(
                anchors, k, begin, end,
                std::span(r.neighbors).subspan(begin * k, (end - begin) * k),
                std::span(r.traces).subspan(begin, end - begin),
                counters[b], nullptr, ordered ? &rng : nullptr);
        });
    VegCounters total;
    for (const VegCounters &c : counters)
        total.add(c);
    total.writeTo(r.stats);
    return r;
}

/**
 * Digest of every VEG flavour over @p cloud: VegKnn in all three
 * modes through gather() and gatherAt() (queries include the grid's
 * corners), at the per-centroid adaptive level and at forced shallow
 * and deep levels, plus VegBallQuery. With @p block > 0 every VegKnn
 * gather instead runs through gatherInBlocks().
 */
std::uint64_t
vegDigest(const PointCloud &cloud, std::size_t block = 0,
          int threads = 1)
{
    const Octree tree = makeTree(cloud);
    const auto centrals = someCentrals(cloud.size(), 48, 7);
    std::vector<Vec3> queries = {{0.0f, 0.0f, 0.0f},
                                 {1.0f, 1.0f, 1.0f},
                                 {0.0f, 1.0f, 0.5f},
                                 {0.5f, 0.5f, 0.5f}};
    Rng rng(8);
    for (int i = 0; i < 28; ++i)
        queries.push_back({rng.uniform(0.0f, 1.0f),
                           rng.uniform(0.0f, 1.0f),
                           rng.uniform(0.0f, 1.0f)});
    std::vector<Vec3> central_anchors;
    for (const PointIndex c : centrals)
        central_anchors.push_back(tree.reorderedCloud().position(c));

    Fnv1a fnv;
    for (const VegMode mode :
         {VegMode::Paper, VegMode::Strict, VegMode::SemiApprox}) {
        for (const int level : {-1, 2, tree.config().maxDepth}) {
            VegKnn::Config cfg;
            cfg.mode = mode;
            cfg.gridLevel = level;
            cfg.seed = 5;
            VegKnn veg(tree, cfg);
            for (const std::size_t k : {1u, 16u, 64u}) {
                if (block == 0) {
                    hashResult(fnv, veg.gather(centrals, k));
                    hashResult(fnv, veg.gatherAt(queries, k));
                } else {
                    hashResult(fnv, gatherInBlocks(veg, central_anchors,
                                                   k, block, threads));
                    hashResult(fnv, gatherInBlocks(veg, queries, k,
                                                   block, threads));
                }
            }
        }
    }
    for (const float radius : {0.05f, 0.2f}) {
        VegBallQuery::Config cfg;
        cfg.radius = radius;
        VegBallQuery bq(tree, cfg);
        hashResult(fnv, bq.gather(centrals, 32));
    }
    return fnv.h;
}

// Recorded from the per-cell binary-search ring walk (Octree
// voxelRange per shell cell) that the occupied-cell table replaced.
// NetworkDigest cannot see a reordered SA neighbour set (max-pool is
// order-blind); these pin order, traces and stats exactly.
TEST(VegDigest, RandomCloud)
{
    EXPECT_EQ(vegDigest(randomCloud(3000, 101)),
              0x050eff0e86953eacull);
}

TEST(VegDigest, ClusteredCloud)
{
    EXPECT_EQ(vegDigest(clusteredCloud(3000, 102)),
              0x455fc26bd25a0b53ull);
}

TEST(VegDigest, DuplicateHeavyCloud)
{
    EXPECT_EQ(vegDigest(duplicateCloud(3000, 103)),
              0xb27b8c14bfd4d2a2ull);
}

// The same digests through gatherAtRange() in blocks of 1, 7 and 64
// anchors and as one whole-range block, claimed by 1 to 4 threads:
// a per-anchor gather does not depend on how its range was split.
TEST(VegDigest, BlocksAndThreadsReproduceEveryDigest)
{
    const std::pair<PointCloud, std::uint64_t> cases[] = {
        {randomCloud(3000, 101), 0x050eff0e86953eacull},
        {clusteredCloud(3000, 102), 0x455fc26bd25a0b53ull},
        {duplicateCloud(3000, 103), 0xb27b8c14bfd4d2a2ull}};
    for (const auto &[cloud, expect] : cases) {
        for (const int threads : {1, 2, 3, 4}) {
            for (const std::size_t block : {1u, 7u, 64u, 100000u}) {
                EXPECT_EQ(vegDigest(cloud, block, threads), expect)
                    << "threads " << threads << " block " << block;
            }
        }
    }
}

} // namespace
} // namespace hgpcn
