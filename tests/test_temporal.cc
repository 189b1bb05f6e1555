/**
 * @file
 * Temporal-coherence preprocessing tests: the bottom-up Morton
 * octree builder against the recursive oracle, the incremental
 * cross-frame builder against from-scratch builds, the cached KNN /
 * occupancy indices against fresh oracles, and the pooled
 * TemporalPreprocessState against the carry-less engine path. Every
 * comparison is bit-identical full-state equality — the caches are
 * wall-clock optimizations and must never move an output bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <thread>

#include "common/rng.h"
#include "core/frame_workspace.h"
#include "core/preprocessing_engine.h"
#include "core/temporal_preprocess.h"
#include "datasets/coherent_drive.h"
#include "geometry/point_delta.h"
#include "knn/spatial_hash_knn.h"
#include "octree/incremental_octree.h"
#include "octree/octree.h"
#include "octree/voxel_grid.h"
#include "report_digest.h"

namespace hgpcn
{
namespace
{

Octree::Config
octreeConfig(int depth, std::uint32_t leaf_capacity)
{
    Octree::Config cfg;
    cfg.maxDepth = depth;
    cfg.leafCapacity = leaf_capacity;
    return cfg;
}

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

bool
sameVec3(const Vec3 &a, const Vec3 &b)
{
    return std::memcmp(&a.x, &b.x, sizeof(float)) == 0 &&
           std::memcmp(&a.y, &b.y, sizeof(float)) == 0 &&
           std::memcmp(&a.z, &b.z, sizeof(float)) == 0;
}

/** Full-state bitwise equality of two octrees over the same frame. */
void
expectTreesIdentical(const Octree &a, const Octree &b)
{
    a.validate();
    b.validate();
    ASSERT_EQ(a.nodes().size(), b.nodes().size());
    ASSERT_EQ(a.pointCodes().size(), b.pointCodes().size());
    EXPECT_EQ(a.depth(), b.depth());
    EXPECT_EQ(a.leafCount(), b.leafCount());
    EXPECT_TRUE(sameVec3(a.rootBounds().lo, b.rootBounds().lo));
    EXPECT_TRUE(sameVec3(a.rootBounds().hi, b.rootBounds().hi));
    for (std::size_t i = 0; i < a.nodes().size(); ++i) {
        const OctreeNode &na = a.nodes()[i];
        const OctreeNode &nb = b.nodes()[i];
        ASSERT_EQ(na.code, nb.code) << "node " << i;
        ASSERT_EQ(na.level, nb.level) << "node " << i;
        ASSERT_EQ(na.childMask, nb.childMask) << "node " << i;
        ASSERT_EQ(na.firstChild, nb.firstChild) << "node " << i;
        ASSERT_EQ(na.parent, nb.parent) << "node " << i;
        ASSERT_EQ(na.pointBegin, nb.pointBegin) << "node " << i;
        ASSERT_EQ(na.pointEnd, nb.pointEnd) << "node " << i;
    }
    for (std::size_t i = 0; i < a.pointCodes().size(); ++i) {
        ASSERT_EQ(a.pointCodes()[i], b.pointCodes()[i]) << "point " << i;
        ASSERT_EQ(a.permutation()[i], b.permutation()[i])
            << "point " << i;
        ASSERT_EQ(a.leafOf(static_cast<PointIndex>(i)),
                  b.leafOf(static_cast<PointIndex>(i)))
            << "point " << i;
        ASSERT_TRUE(sameVec3(
            a.reorderedCloud().position(static_cast<PointIndex>(i)),
            b.reorderedCloud().position(static_cast<PointIndex>(i))))
            << "point " << i;
    }
    // The modeled paper numbers come from these counters — the
    // incremental path must charge the from-scratch workload.
    EXPECT_EQ(a.buildStats().get("octree.host_reads"),
              b.buildStats().get("octree.host_reads"));
    EXPECT_EQ(a.buildStats().get("octree.code_computations"),
              b.buildStats().get("octree.code_computations"));
    EXPECT_EQ(a.buildStats().get("octree.sort_ops"),
              b.buildStats().get("octree.sort_ops"));
    EXPECT_EQ(a.buildStats().get("octree.host_writes"),
              b.buildStats().get("octree.host_writes"));
}

/** builder.update() with the frame's root voxel computed from it. */
bool
update(IncrementalOctreeBuilder &builder, const PointCloud &cloud,
       const Octree *prev, const Octree::Config &cfg, Octree &out)
{
    return builder.update(cloud, cloud.bounds().cubified(), prev, cfg,
                          out);
}

// ----------------------------------------- bottom-up builder oracle

TEST(BottomUpBuild, MatchesRecursiveBuilderAcrossShapes)
{
    const std::size_t sizes[] = {1, 2, 7, 64, 500, 3000};
    for (std::size_t n : sizes) {
        for (int depth : {2, 6, 12}) {
            const PointCloud cloud = randomCloud(n, 17 * n + depth);
            Octree::Config up = octreeConfig(depth, 8);
            Octree::Config down = up;
            up.bottomUpBuild = true;
            down.bottomUpBuild = false;
            expectTreesIdentical(Octree::build(cloud, up),
                                 Octree::build(cloud, down));
        }
    }
}

TEST(BottomUpBuild, MatchesRecursiveOnCoincidentPoints)
{
    // All duplicates collapse to one full-depth code: the deepest
    // run is a leaf regardless of leafCapacity.
    PointCloud cloud;
    for (int i = 0; i < 100; ++i)
        cloud.add({0.25f, 0.5f, 0.75f});
    // A second pile plus singles: runs of every shape.
    for (int i = 0; i < 40; ++i)
        cloud.add({0.8f, 0.8f, 0.8f});
    Rng rng(3);
    for (int i = 0; i < 30; ++i)
        cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                   rng.uniform(0.0f, 1.0f)});
    Octree::Config up = octreeConfig(6, 4);
    Octree::Config down = up;
    up.bottomUpBuild = true;
    down.bottomUpBuild = false;
    expectTreesIdentical(Octree::build(cloud, up),
                         Octree::build(cloud, down));
}

TEST(BottomUpBuild, RebuildReusesStorageWithIdenticalOutput)
{
    const PointCloud big = randomCloud(2000, 5);
    const PointCloud small = randomCloud(300, 6);
    Octree pooled;
    pooled.rebuild(big, octreeConfig(8, 8));
    pooled.rebuild(small, octreeConfig(8, 8));
    expectTreesIdentical(pooled,
                         Octree::build(small, octreeConfig(8, 8)));
}

// ------------------------------------------- incremental vs scratch

/** Overlap sweep: 100% / ~90% / 50% / 25% / 0% retained points. */
class IncrementalOverlapSweep
    : public ::testing::TestWithParam<double>
{
};

TEST_P(IncrementalOverlapSweep, BitIdenticalToScratchAlongDrive)
{
    CoherentDrive::Config dc;
    dc.points = 1500;
    dc.churnFraction = GetParam();
    dc.seed = 11;
    const CoherentDrive drive(dc);
    // Both sorts: the incremental path charges the scratch build's
    // sort_ops under either (expectTreesIdentical()).
    for (const bool radix : {true, false}) {
        Octree::Config ocfg = octreeConfig(10, 8);
        ocfg.useRadixSort = radix;

        Octree carried;
        carried.rebuild(drive.generate(0).cloud, ocfg);
        IncrementalOctreeBuilder builder;
        for (std::size_t t = 1; t <= 5; ++t) {
            const Frame frame = drive.generate(t);
            Octree next;
            const bool incremental =
                update(builder, frame.cloud, &carried, ocfg, next);
            // The drive pins the frame AABB, so the alignment guard
            // always passes and the incremental path engages.
            EXPECT_TRUE(incremental) << "frame " << t;
            expectTreesIdentical(next, Octree::build(frame.cloud, ocfg));
            if (incremental) {
                const PointDelta &delta = builder.delta();
                const double expected =
                    drive.overlapFraction(1) *
                    static_cast<double>(dc.points);
                EXPECT_EQ(delta.retained(),
                          static_cast<std::size_t>(expected + 0.5))
                    << "frame " << t;
            }
            carried = std::move(next);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Churn, IncrementalOverlapSweep,
                         ::testing::Values(0.0, 0.1, 0.5, 0.75, 1.0));

TEST(IncrementalOctree, HandlesCoincidentPointsAcrossFrames)
{
    // Duplicate positions stress the bit-pattern matcher: equal
    // codes, equal bytes, ambiguous pairings. Any pairing is
    // acceptable as long as the output is bit-identical to scratch.
    PointCloud a;
    for (int i = 0; i < 50; ++i)
        a.add({0.3f, 0.3f, 0.3f});
    a.add({0.0f, 0.0f, 0.0f});
    a.add({1.0f, 1.0f, 1.0f});
    PointCloud b = a; // 100% overlap, duplicates intact
    const Octree::Config ocfg = octreeConfig(6, 4);
    Octree prev;
    prev.rebuild(a, ocfg);
    IncrementalOctreeBuilder builder;
    Octree next;
    update(builder, b, &prev, ocfg, next);
    expectTreesIdentical(next, Octree::build(b, ocfg));
}

TEST(IncrementalOctree, ReorderedRetainedPointsStayCorrect)
{
    // Retained points arriving in a different input order violate
    // the builder's order precondition; it must fall back to a
    // scratch rebuild (not produce a wrong tree).
    PointCloud a = randomCloud(400, 21);
    PointCloud b;
    b.reserve(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        b.add(a.position(
            static_cast<PointIndex>(a.size() - 1 - i)));
    }
    const Octree::Config ocfg = octreeConfig(8, 8);
    Octree prev;
    prev.rebuild(a, ocfg);
    IncrementalOctreeBuilder builder;
    Octree next;
    update(builder, b, &prev, ocfg, next);
    expectTreesIdentical(next, Octree::build(b, ocfg));
}

TEST(IncrementalOctree, FeaturesFollowTheirPoints)
{
    // Positions of retained points come from the previous reordered
    // cloud; features must still come from the new frame, in the new
    // order, even when a retained point's features changed.
    const auto with_features = [](const PointCloud &positions,
                                  float salt) {
        PointCloud cloud(2);
        for (PointIndex i = 0; i < positions.size(); ++i) {
            const float f[2] = {static_cast<float>(i) + salt,
                                -static_cast<float>(i)};
            cloud.add(positions.position(i), f);
        }
        return cloud;
    };
    CoherentDrive::Config dc;
    dc.points = 1200;
    dc.churnFraction = 0.05;
    dc.seed = 19;
    const CoherentDrive drive(dc);
    const Octree::Config ocfg = octreeConfig(10, 8);
    Octree prev;
    prev.rebuild(with_features(drive.generate(0).cloud, 0.0f), ocfg);
    IncrementalOctreeBuilder builder;
    for (std::size_t t = 1; t <= 3; ++t) {
        const PointCloud frame =
            with_features(drive.generate(t).cloud, 0.5f * t);
        Octree next;
        ASSERT_TRUE(update(builder, frame, &prev, ocfg, next));
        const Octree fresh = Octree::build(frame, ocfg);
        expectTreesIdentical(next, fresh);
        ASSERT_EQ(next.reorderedCloud().featureDim(), 2u);
        for (PointIndex i = 0; i < frame.size(); ++i) {
            const auto a = next.reorderedCloud().feature(i);
            const auto b = fresh.reorderedCloud().feature(i);
            ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
                << "frame " << t << " point " << i;
        }
        prev = std::move(next);
    }
}

TEST(IncrementalOctree, ConfigChangeFallsBackToScratch)
{
    const PointCloud cloud = randomCloud(600, 8);
    Octree prev;
    prev.rebuild(cloud, octreeConfig(8, 8));
    IncrementalOctreeBuilder builder;
    Octree next;
    const bool incremental =
        update(builder, cloud, &prev, octreeConfig(6, 8), next);
    EXPECT_FALSE(incremental);
    expectTreesIdentical(next,
                         Octree::build(cloud, octreeConfig(6, 8)));
}

// ----------------------------------------- cached KNN / occupancy

void
expectGatherIdentical(const GatherResult &a, const GatherResult &b)
{
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    EXPECT_EQ(a.neighbors, b.neighbors);
}

TEST(CachedIndices, IncrementalKnnMatchesFreshOracle)
{
    CoherentDrive::Config dc;
    dc.points = 2000;
    dc.churnFraction = 0.05;
    dc.seed = 31;
    const CoherentDrive drive(dc);
    const Octree::Config ocfg = octreeConfig(10, 8);
    const SpatialHashKnn::Config kcfg;

    Octree prev;
    prev.rebuild(drive.generate(0).cloud, ocfg);
    SpatialHashKnn prev_knn;
    prev_knn.rebuild(prev.reorderedCloud().positions(), kcfg);

    IncrementalOctreeBuilder builder;
    const Frame f1 = drive.generate(1);
    Octree next;
    ASSERT_TRUE(update(builder, f1.cloud, &prev, ocfg, next));

    SpatialHashKnn inc;
    ASSERT_TRUE(inc.rebuildFrom(prev_knn,
                                next.reorderedCloud().positions(),
                                builder.delta()));
    SpatialHashKnn fresh;
    fresh.rebuild(next.reorderedCloud().positions(), kcfg);

    std::vector<PointIndex> centrals;
    for (PointIndex i = 0; i < dc.points;
         i += static_cast<PointIndex>(37))
        centrals.push_back(i);
    for (std::size_t k : {1u, 8u, 33u}) {
        expectGatherIdentical(inc.gather(centrals, k),
                              fresh.gather(centrals, k));
    }
    const PointCloud queries = randomCloud(64, 77);
    expectGatherIdentical(inc.gatherAt(queries.positions(), 16),
                          fresh.gatherAt(queries.positions(), 16));
}

/** Patch @p prev_occ through @p delta at @p level and require the
 *  result to equal buildOccupiedCells() on @p next, entry by entry. */
void
expectPatchMatchesFresh(const Octree &prev, const Octree &next,
                        const PointDelta &delta, int level)
{
    std::vector<OccupiedCell> prev_occ, scratch;
    buildOccupiedCells(prev, level, prev_occ, scratch);
    std::vector<OccupiedCell> patched;
    std::vector<OccupiedCell> dirty;
    ASSERT_TRUE(patchOccupiedCells(next, level, prev, prev_occ, delta,
                                   patched, dirty))
        << "level " << level;
    std::vector<OccupiedCell> fresh;
    buildOccupiedCells(next, level, fresh, scratch);
    ASSERT_EQ(patched.size(), fresh.size()) << "level " << level;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(patched[i].cell, fresh[i].cell)
            << "level " << level << " cell " << i;
        EXPECT_EQ(patched[i].first, fresh[i].first)
            << "level " << level << " cell " << i;
        EXPECT_EQ(patched[i].last, fresh[i].last)
            << "level " << level << " cell " << i;
    }
}

TEST(CachedIndices, PatchedOccupancyMatchesFreshOracle)
{
    CoherentDrive::Config dc;
    dc.points = 1800;
    dc.churnFraction = 0.08;
    dc.seed = 41;
    const CoherentDrive drive(dc);
    const Octree::Config ocfg = octreeConfig(10, 8);

    Octree prev;
    prev.rebuild(drive.generate(0).cloud, ocfg);
    IncrementalOctreeBuilder builder;
    const Frame f1 = drive.generate(1);
    Octree next;
    ASSERT_TRUE(update(builder, f1.cloud, &prev, ocfg, next));

    for (int level = 1; level <= std::min(4, next.depth()); ++level)
        expectPatchMatchesFresh(prev, next, builder.delta(), level);
}

/**
 * Unit-cube frame whose extreme (x, y, z) cells can be emptied and
 * refilled without moving the bounds: two fixed bound-pinning
 * points, a random interior in [0.3, 0.7]^3, and optional
 * singletons next to the first and last cells in (x, y, z) order.
 */
PointCloud
edgeCellFrame(bool first_cell, bool last_cell, std::uint64_t seed)
{
    PointCloud cloud;
    cloud.add({0.0f, 1.0f, 1.0f}); // min x, max y and z
    cloud.add({1.0f, 0.0f, 0.0f}); // max x, min y and z
    Rng rng(seed);
    for (int i = 0; i < 400; ++i)
        cloud.add({rng.uniform(0.3f, 0.7f), rng.uniform(0.3f, 0.7f),
                   rng.uniform(0.3f, 0.7f)});
    if (first_cell)
        cloud.add({0.01f, 0.01f, 0.01f});
    if (last_cell)
        cloud.add({0.99f, 0.99f, 0.99f});
    return cloud;
}

TEST(CachedIndices, PatchedOccupancyEdgeCellsMatchFreshOracle)
{
    const Octree::Config ocfg = octreeConfig(10, 8);
    // Emptied, then re-created, at both ends of the list; the
    // interior also churns (a new seed) so middle cells are dirty.
    const PointCloud frames[] = {edgeCellFrame(true, true, 1),
                                 edgeCellFrame(false, false, 2),
                                 edgeCellFrame(true, false, 3),
                                 edgeCellFrame(false, true, 4),
                                 edgeCellFrame(true, true, 5)};
    Octree prev;
    prev.rebuild(frames[0], ocfg);
    IncrementalOctreeBuilder builder;
    for (std::size_t t = 1; t < std::size(frames); ++t) {
        Octree next;
        ASSERT_TRUE(update(builder, frames[t], &prev, ocfg, next))
            << "frame " << t;
        for (int level = 1; level <= 5; ++level)
            expectPatchMatchesFresh(prev, next, builder.delta(), level);
        // The singletons own the extreme cells at level 3: the list
        // really gains or loses its first and last entries.
        std::vector<OccupiedCell> before, after, scratch;
        buildOccupiedCells(prev, 3, before, scratch);
        buildOccupiedCells(next, 3, after, scratch);
        const bool first_moved = !(before.front().cell ==
                                   after.front().cell);
        const bool last_moved = !(before.back().cell ==
                                  after.back().cell);
        EXPECT_TRUE(first_moved || last_moved) << "frame " << t;
        prev = std::move(next);
    }
}

TEST(CachedIndices, PatchedOccupancyWithNoDirtyCell)
{
    const Octree::Config ocfg = octreeConfig(10, 8);
    const PointCloud cloud = edgeCellFrame(true, true, 6);
    Octree prev;
    prev.rebuild(cloud, ocfg);
    IncrementalOctreeBuilder builder;
    Octree next;
    ASSERT_TRUE(update(builder, cloud, &prev, ocfg, next));
    EXPECT_TRUE(builder.delta().insertedNew.empty());
    EXPECT_TRUE(builder.delta().evictedOld.empty());
    for (int level = 1; level <= 6; ++level)
        expectPatchMatchesFresh(prev, next, builder.delta(), level);
}

TEST(CachedIndices, PatchedOccupancyWithEveryCellDirty)
{
    const Octree::Config ocfg = octreeConfig(10, 8);
    const PointCloud a = edgeCellFrame(true, true, 7);
    // Keep only the two bound-pinning points; replace everything
    // else and drop a fresh point next to each kept one, so every
    // cell of both lists holds an insertion or an eviction.
    PointCloud b = edgeCellFrame(true, false, 8);
    b.position(2 + 400) = {0.02f, 0.02f, 0.02f};
    b.add({0.98f, 0.98f, 0.98f});
    b.add({0.001f, 0.999f, 0.999f});
    b.add({0.999f, 0.001f, 0.001f});
    Octree prev;
    prev.rebuild(a, ocfg);
    IncrementalOctreeBuilder builder;
    Octree next;
    ASSERT_TRUE(update(builder, b, &prev, ocfg, next));
    const PointDelta &delta = builder.delta();
    EXPECT_EQ(delta.retained(), 2u);
    for (int level = 1; level <= 3; ++level) {
        std::vector<OccupiedCell> prev_occ, fresh, scratch;
        buildOccupiedCells(prev, level, prev_occ, scratch);
        buildOccupiedCells(next, level, fresh, scratch);
        for (const OccupiedCell &c : fresh)
            EXPECT_TRUE(delta.rangeDirty(c.first, c.last))
                << "level " << level;
        // An old cell is dirty through an eviction, or else it
        // survives into the new list, which saw an insertion there.
        for (const OccupiedCell &c : prev_occ) {
            const auto it = std::lower_bound(delta.evictedOld.begin(),
                                             delta.evictedOld.end(),
                                             c.first);
            const bool evicted =
                it != delta.evictedOld.end() && *it < c.last;
            const bool survives =
                std::any_of(fresh.begin(), fresh.end(),
                            [&c](const OccupiedCell &f) {
                                return f.cell == c.cell;
                            });
            EXPECT_TRUE(evicted || survives) << "level " << level;
        }
        expectPatchMatchesFresh(prev, next, delta, level);
    }
}

// ------------------------------------------- carried state / pool

TEST(TemporalState, CarriedFramesMatchCarrylessEngine)
{
    CoherentDrive::Config dc;
    dc.points = 1200;
    dc.churnFraction = 0.1;
    dc.seed = 51;
    const CoherentDrive drive(dc);

    PreprocessingEngine::Config ec;
    ec.octree = octreeConfig(10, 16);
    const PreprocessingEngine engine(ec);

    TemporalPreprocessState::Config tc;
    tc.octree = ec.octree;
    TemporalPreprocessState carry(tc);

    const std::size_t k = 256;
    for (std::size_t t = 0; t < 4; ++t) {
        const Frame frame = drive.generate(t);
        PreprocessResult cached = engine.buildStage(frame.cloud, &carry);
        PreprocessResult scratch = engine.buildStage(frame.cloud);
        expectTreesIdentical(*cached.tree, *scratch.tree);
        EXPECT_EQ(cached.octreeTableBytes, scratch.octreeTableBytes);
        EXPECT_EQ(cached.octreeBuildSec, scratch.octreeBuildSec);

        engine.sampleStage(cached, k);
        engine.sampleStage(scratch, k);
        EXPECT_EQ(cached.spt, scratch.spt);
        ASSERT_EQ(cached.sampled.size(), scratch.sampled.size());
        for (PointIndex i = 0; i < cached.sampled.size(); ++i) {
            EXPECT_TRUE(sameVec3(cached.sampled.position(i),
                                 scratch.sampled.position(i)));
        }
        EXPECT_EQ(cached.dsu.totalSec(), scratch.dsu.totalSec());
    }
    const TemporalPreprocessState::Stats st = carry.stats();
    EXPECT_EQ(st.frames, 4u);
    EXPECT_EQ(st.octreeMisses, 1u); // only the cold first frame
    EXPECT_EQ(st.octreeHits, 3u);
    EXPECT_EQ(st.knnIncremental + st.knnScratch, 4u);
    EXPECT_EQ(st.occIncremental + st.occScratch, 4u);
}

TEST(TemporalState, CachedIndicesExposedAndCorrect)
{
    CoherentDrive::Config dc;
    dc.points = 1500;
    dc.churnFraction = 0.05;
    dc.seed = 61;
    const CoherentDrive drive(dc);

    PreprocessingEngine::Config ec;
    ec.octree = octreeConfig(10, 16);
    const PreprocessingEngine engine(ec);
    TemporalPreprocessState::Config tc;
    tc.octree = ec.octree;
    TemporalPreprocessState carry(tc);

    engine.buildStage(drive.generate(0).cloud, &carry);
    const PreprocessResult r1 =
        engine.buildStage(drive.generate(1).cloud, &carry);
    ASSERT_NE(r1.rawKnn, nullptr);
    ASSERT_NE(r1.rawOcc, nullptr);
    ASSERT_GE(r1.rawOccLevel, 0);

    SpatialHashKnn oracle;
    oracle.rebuild(r1.tree->reorderedCloud().positions(),
                   SpatialHashKnn::Config{});
    const PointCloud queries = randomCloud(32, 9);
    expectGatherIdentical(r1.rawKnn->gatherAt(queries.positions(), 8),
                          oracle.gatherAt(queries.positions(), 8));

    std::vector<OccupiedCell> fresh, scratch;
    buildOccupiedCells(*r1.tree, r1.rawOccLevel, fresh, scratch);
    ASSERT_EQ(r1.rawOcc->size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ((*r1.rawOcc)[i].cell, fresh[i].cell);
        EXPECT_EQ((*r1.rawOcc)[i].first, fresh[i].first);
        EXPECT_EQ((*r1.rawOcc)[i].last, fresh[i].last);
    }

    // The VoxelGrid borrowed-list constructor serves the cached
    // list through the normal accessor.
    const VoxelGrid grid(*r1.tree, r1.rawOccLevel, r1.rawOcc.get());
    EXPECT_EQ(grid.occupiedCells().size(), fresh.size());
}

TEST(TemporalState, SteadyStateLeasesDoNotGrowArenas)
{
    CoherentDrive::Config dc;
    dc.points = 1000;
    dc.churnFraction = 0.1;
    dc.seed = 71;
    const CoherentDrive drive(dc);
    TemporalPreprocessState::Config tc;
    tc.octree = octreeConfig(10, 16);
    TemporalPreprocessState carry(tc);

    // Warm-up: two bundles (current + carried prev) plus the
    // builder scratch size themselves. Node counts fluctuate with
    // churn, so give each pooled bundle a few frames to reach its
    // high-water capacity (vector doubling converges fast).
    for (std::size_t t = 0; t < 6; ++t)
        carry.processFrame(drive.generate(t).cloud);
    const std::uint64_t warm = FrameWorkspace::backingGrowths();
    for (std::size_t t = 6; t < 14; ++t)
        carry.processFrame(drive.generate(t).cloud);
    EXPECT_EQ(FrameWorkspace::backingGrowths(), warm)
        << "steady-state temporal frames grew an arena";
}

TEST(TemporalState, PoolStaysWithinFramesInFlight)
{
    // A stream holds each frame's bundle only while the frame is in
    // flight (the runtime drops it after sampling). Over 64 frames
    // with at most four in flight, the pool never needs more than
    // those four plus the one being built, and once warm, leases
    // grow nothing — whichever recycled bundle serves a frame.
    CoherentDrive::Config dc;
    dc.points = 1000;
    dc.churnFraction = 0.1;
    dc.seed = 73;
    const CoherentDrive drive(dc);
    TemporalPreprocessState::Config tc;
    tc.octree = octreeConfig(10, 16);
    TemporalPreprocessState carry(tc);

    constexpr std::size_t kInFlight = 4;
    std::deque<std::shared_ptr<PreprocessBundle>> in_flight;
    std::uint64_t warm = 0;
    for (std::size_t t = 0; t < 64; ++t) {
        if (t == 16)
            warm = FrameWorkspace::backingGrowths();
        if (in_flight.size() == kInFlight)
            in_flight.pop_front();
        in_flight.push_back(carry.processFrame(drive.generate(t).cloud));
    }
    EXPECT_LE(carry.pooledBundles(), kInFlight + 1);
    EXPECT_EQ(FrameWorkspace::backingGrowths(), warm)
        << "recycled bundles regrew after warm-up";
}

TEST(TemporalState, BundlesOutliveTheState)
{
    CoherentDrive::Config dc;
    dc.points = 900;
    dc.churnFraction = 0.1;
    dc.seed = 81;
    const CoherentDrive drive(dc);
    std::shared_ptr<PreprocessBundle> bundle;
    {
        TemporalPreprocessState::Config tc;
        tc.octree = octreeConfig(8, 16);
        TemporalPreprocessState carry(tc);
        bundle = carry.processFrame(drive.generate(0).cloud);
    }
    // The pool is kept alive by the lease's deleter; the tree is
    // still a valid octree over the frame.
    bundle->tree.validate();
    EXPECT_EQ(bundle->tree.pointCodes().size(), dc.points);
}

TEST(TemporalState, ResetForcesScratchRebuild)
{
    CoherentDrive::Config dc;
    dc.points = 800;
    dc.churnFraction = 0.05;
    dc.seed = 91;
    const CoherentDrive drive(dc);
    TemporalPreprocessState::Config tc;
    tc.octree = octreeConfig(8, 16);
    TemporalPreprocessState carry(tc);
    carry.processFrame(drive.generate(0).cloud);
    carry.processFrame(drive.generate(1).cloud);
    carry.reset();
    carry.processFrame(drive.generate(2).cloud);
    const TemporalPreprocessState::Stats st = carry.stats();
    EXPECT_EQ(st.octreeMisses, 2u); // frame 0 and the post-reset frame
    EXPECT_EQ(st.octreeHits, 1u);
}

// ------------------------------------------------- concurrent misses

/** A bundle built with or without a carry must equal the carry-less
 * scratch build of its frame: tree, KNN buckets and occupancy. */
void
expectBundleMatchesScratch(const PreprocessBundle &bundle,
                           const PointCloud &cloud,
                           const TemporalPreprocessState::Config &tc)
{
    const Octree fresh = Octree::build(cloud, tc.octree);
    expectTreesIdentical(bundle.tree, fresh);
    ASSERT_TRUE(bundle.rawKnnBuilt);
    SpatialHashKnn knn;
    knn.rebuild(fresh.reorderedCloud().positions(), tc.knn);
    const PointCloud queries = randomCloud(16, 5);
    expectGatherIdentical(bundle.rawKnn.gatherAt(queries.positions(), 8),
                          knn.gatherAt(queries.positions(), 8));
    const int level = VoxelGrid::autoLevel(cloud.size(), fresh.depth());
    ASSERT_EQ(bundle.rawOccLevel, level);
    std::vector<OccupiedCell> occ, scratch;
    buildOccupiedCells(fresh, level, occ, scratch);
    ASSERT_EQ(bundle.rawOcc.size(), occ.size());
    for (std::size_t i = 0; i < occ.size(); ++i) {
        EXPECT_EQ(bundle.rawOcc[i].cell, occ[i].cell);
        EXPECT_EQ(bundle.rawOcc[i].first, occ[i].first);
        EXPECT_EQ(bundle.rawOcc[i].last, occ[i].last);
    }
}

/** Frame @p i of an incoherent stream: its own random cloud, offset
 * so that no two frames share root bounds (every frame misses). */
PointCloud
incoherentFrame(std::size_t i, std::size_t points)
{
    PointCloud cloud = randomCloud(points, 1000 + i);
    const float off = 0.37f * static_cast<float>(i);
    for (PointIndex p = 0; p < cloud.size(); ++p)
        cloud.position(p) = cloud.position(p) + Vec3{off, -off, off};
    return cloud;
}

/** Every counter of @p st, in declaration order. */
std::array<std::uint64_t, 12>
statsFields(const TemporalPreprocessState::Stats &st)
{
    return {st.frames,          st.octreeHits,     st.octreeMisses,
            st.retainedPoints,  st.insertedPoints, st.evictedPoints,
            st.nodesReused,     st.nodesErected,   st.knnIncremental,
            st.knnScratch,      st.occIncremental, st.occScratch};
}

TEST(TemporalState, ConcurrentMissesMatchScratchAndSerialStats)
{
    // Misses build outside the carry's lock: three threads feed
    // incoherent frames at once, then a coherent run follows on the
    // carry they leave. Every bundle must equal its carry-less build,
    // and the counters must equal a serial run of the same frames.
    constexpr std::size_t kThreads = 3;
    constexpr std::size_t kPerThread = 4;
    constexpr std::size_t kPoints = 1500;
    TemporalPreprocessState::Config tc;
    tc.octree = octreeConfig(10, 16);

    std::vector<PointCloud> incoherent;
    for (std::size_t i = 0; i < kThreads * kPerThread; ++i)
        incoherent.push_back(incoherentFrame(i, kPoints));
    CoherentDrive::Config dc;
    dc.points = kPoints;
    dc.churnFraction = 0.05;
    dc.seed = 97;
    const CoherentDrive drive(dc);
    std::vector<PointCloud> coherent;
    for (std::size_t t = 0; t < 5; ++t)
        coherent.push_back(drive.generate(t).cloud);

    TemporalPreprocessState carry(tc);
    std::vector<std::shared_ptr<PreprocessBundle>> bundles(
        incoherent.size());
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < kThreads; ++w) {
        workers.emplace_back([&, w] {
            for (std::size_t f = w; f < incoherent.size(); f += kThreads)
                bundles[f] = carry.processFrame(incoherent[f]);
        });
    }
    for (std::thread &t : workers)
        t.join();
    for (std::size_t f = 0; f < incoherent.size(); ++f)
        expectBundleMatchesScratch(*bundles[f], incoherent[f], tc);
    for (const PointCloud &frame : coherent) {
        expectBundleMatchesScratch(*carry.processFrame(frame), frame,
                                   tc);
    }

    TemporalPreprocessState serial(tc);
    for (const PointCloud &frame : incoherent)
        serial.processFrame(frame);
    for (const PointCloud &frame : coherent)
        serial.processFrame(frame);
    EXPECT_EQ(statsFields(carry.stats()), statsFields(serial.stats()));
    EXPECT_EQ(carry.stats().octreeMisses, incoherent.size() + 1);
    EXPECT_EQ(carry.stats().octreeHits, coherent.size() - 1);
}

TEST(TemporalState, SlowMissNeverReplacesANewerCarry)
{
    // A large frame admitted first misses slowly; a small frame
    // admitted after it publishes first. The carry must stay the
    // newer frame: a repeat of it hits.
    TemporalPreprocessState::Config tc;
    tc.octree = octreeConfig(10, 16);
    TemporalPreprocessState carry(tc);
    const PointCloud slow = incoherentFrame(1, 200000);
    const PointCloud fast = incoherentFrame(2, 300);

    std::shared_ptr<PreprocessBundle> slow_bundle;
    std::thread slow_miss([&] { slow_bundle = carry.processFrame(slow); });
    // The pool starts empty: its first bundle is the slow frame's
    // lease, taken at admission.
    while (carry.pooledBundles() == 0)
        std::this_thread::yield();
    carry.processFrame(fast);
    slow_miss.join();
    expectBundleMatchesScratch(*slow_bundle, slow, tc);

    carry.processFrame(fast);
    const TemporalPreprocessState::Stats st = carry.stats();
    EXPECT_EQ(st.octreeMisses, 2u);
    EXPECT_EQ(st.octreeHits, 1u) << "the slow miss replaced the carry";
}

TEST(TemporalState, MissInFlightDuringResetStaysUncarried)
{
    TemporalPreprocessState::Config tc;
    tc.octree = octreeConfig(10, 16);
    TemporalPreprocessState carry(tc);
    const PointCloud slow = incoherentFrame(3, 200000);

    std::thread slow_miss([&] { carry.processFrame(slow); });
    while (carry.pooledBundles() == 0)
        std::this_thread::yield();
    carry.reset();
    slow_miss.join();

    // Whether the miss finished before or after reset(), the carry
    // is empty: a repeat of the frame misses again.
    carry.processFrame(slow);
    const TemporalPreprocessState::Stats st = carry.stats();
    EXPECT_EQ(st.octreeMisses, 2u);
    EXPECT_EQ(st.octreeHits, 0u) << "a reset-crossing miss republished";
}

// -------------------------------------------------- edge conditions

TEST(IncrementalOctree, TinyFramesStillBitIdentical)
{
    // Below every brute threshold: 9 points (8 anchors + 1).
    CoherentDrive::Config dc;
    dc.points = 9;
    dc.churnFraction = 1.0;
    dc.seed = 13;
    const CoherentDrive drive(dc);
    const Octree::Config ocfg = octreeConfig(4, 2);
    Octree prev;
    prev.rebuild(drive.generate(0).cloud, ocfg);
    IncrementalOctreeBuilder builder;
    for (std::size_t t = 1; t <= 3; ++t) {
        const Frame frame = drive.generate(t);
        Octree next;
        update(builder, frame.cloud, &prev, ocfg, next);
        expectTreesIdentical(next, Octree::build(frame.cloud, ocfg));
        prev = std::move(next);
    }
}

// ---------------------------------------------------- delta digests

/** Bit pattern of a position: the matcher's notion of "same point". */
std::array<std::uint32_t, 3>
positionBits(const Vec3 &p)
{
    std::array<std::uint32_t, 3> b{};
    std::memcpy(&b[0], &p.x, sizeof(float));
    std::memcpy(&b[1], &p.y, sizeof(float));
    std::memcpy(&b[2], &p.z, sizeof(float));
    return b;
}

/**
 * The delta the hash join defines, computed independently of the
 * builder: new input i, in ascending order, takes the lowest old
 * slot not yet taken whose position has its exact bit pattern;
 * every other new point is an insertion. Slots are placed through
 * the scratch build @p fresh of the new frame, which the
 * incremental path reproduces whenever it engages.
 */
PointDelta
joinOracle(const Octree &prev, const PointCloud &cloud,
           const Octree &fresh)
{
    const std::size_t n_old = prev.pointCodes().size();
    std::map<std::array<std::uint32_t, 3>, std::deque<PointIndex>> slots;
    for (std::size_t s = 0; s < n_old; ++s) {
        slots[positionBits(prev.reorderedCloud().position(
                  static_cast<PointIndex>(s)))]
            .push_back(static_cast<PointIndex>(s));
    }
    std::vector<PointIndex> old_of_new(cloud.size(), kNoPoint);
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        const auto it = slots.find(
            positionBits(cloud.position(static_cast<PointIndex>(i))));
        if (it != slots.end() && !it->second.empty()) {
            old_of_new[i] = it->second.front();
            it->second.pop_front();
        }
    }
    PointDelta d;
    d.newFromOld.assign(n_old, kNoPoint);
    for (std::size_t w = 0; w < cloud.size(); ++w) {
        const PointIndex old = old_of_new[fresh.permutation()[w]];
        if (old != kNoPoint)
            d.newFromOld[old] = static_cast<PointIndex>(w);
        else
            d.insertedNew.push_back(static_cast<PointIndex>(w));
    }
    for (std::size_t s = 0; s < n_old; ++s) {
        if (d.newFromOld[s] == kNoPoint)
            d.evictedOld.push_back(static_cast<PointIndex>(s));
    }
    return d;
}

void
hashIndices(digest::Fnv1a &fnv, const std::vector<PointIndex> &v)
{
    fnv.value(v.size());
    fnv.bytes(v.data(), v.size() * sizeof(PointIndex));
}

/**
 * FNV-1a digest of an incremental drive over @p frames: each frame's
 * update() verdict, delta (when incremental) and node counts, then
 * the cumulative TemporalPreprocessState::Stats of the same frames.
 * Along the way every tree must equal its scratch build and every
 * delta the join oracle's.
 */
std::uint64_t
deltaDigest(const std::vector<PointCloud> &frames,
            const Octree::Config &ocfg)
{
    digest::Fnv1a fnv;
    IncrementalOctreeBuilder builder;
    Octree prev;
    Octree next;
    prev.rebuild(frames.front(), ocfg);
    for (std::size_t t = 1; t < frames.size(); ++t) {
        const bool incremental =
            update(builder, frames[t], &prev, ocfg, next);
        const Octree fresh = Octree::build(frames[t], ocfg);
        expectTreesIdentical(next, fresh);
        fnv.value(incremental);
        if (incremental) {
            const PointDelta &delta = builder.delta();
            const PointDelta oracle = joinOracle(prev, frames[t], fresh);
            EXPECT_EQ(delta.newFromOld, oracle.newFromOld)
                << "frame " << t;
            EXPECT_EQ(delta.insertedNew, oracle.insertedNew)
                << "frame " << t;
            EXPECT_EQ(delta.evictedOld, oracle.evictedOld)
                << "frame " << t;
            hashIndices(fnv, delta.newFromOld);
            hashIndices(fnv, delta.insertedNew);
            hashIndices(fnv, delta.evictedOld);
        }
        fnv.value(builder.nodesReused());
        fnv.value(builder.nodesErected());
        std::swap(prev, next);
    }

    TemporalPreprocessState::Config tc;
    tc.octree = ocfg;
    TemporalPreprocessState carry(tc);
    for (const PointCloud &frame : frames)
        carry.processFrame(frame);
    for (const std::uint64_t v : statsFields(carry.stats()))
        fnv.value(v);
    return fnv.h;
}

/** Unit-cube corners first, so edits inside keep the root bounds. */
PointCloud
anchoredCloud(std::size_t n, std::uint64_t seed)
{
    PointCloud cloud;
    for (int c = 0; c < 8; ++c) {
        cloud.add({static_cast<float>(c & 1),
                   static_cast<float>((c >> 1) & 1),
                   static_cast<float>((c >> 2) & 1)});
    }
    const PointCloud inner = randomCloud(n, seed);
    for (PointIndex i = 0; i < inner.size(); ++i)
        cloud.add(inner.position(i));
    return cloud;
}

/** Move @p count points of @p cloud, from @p first on, to fresh
 *  random positions (a localized churn step). */
void
churn(PointCloud &cloud, std::size_t first, std::size_t count,
      std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t i = first; i < first + count; ++i) {
        cloud.position(static_cast<PointIndex>(i)) = {
            rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
            rng.uniform(0.0f, 1.0f)};
    }
}

// Digests recorded from the hash-join matcher; the slot-order match
// must reproduce every verdict, delta and counter of it.

TEST(DeltaDigest, CoherentDriveChurnSweep)
{
    const struct
    {
        double churn;
        std::uint64_t digest;
    } cases[] = {{0.0, 0x2ce8f926c54c4b13ull},
                 {0.01, 0x485582ef8d6058f0ull},
                 {0.1, 0x29b7a0758596abe6ull},
                 {0.5, 0x551b917c7db80576ull},
                 {1.0, 0xd4e68fcc6e49c696ull}};
    for (const auto &c : cases) {
        CoherentDrive::Config dc;
        dc.points = 3000;
        dc.churnFraction = c.churn;
        dc.seed = 17;
        const CoherentDrive drive(dc);
        std::vector<PointCloud> frames;
        for (std::size_t t = 0; t < 6; ++t)
            frames.push_back(drive.generate(t).cloud);
        EXPECT_EQ(deltaDigest(frames, octreeConfig(10, 8)), c.digest)
            << "churn " << c.churn;
    }
}

TEST(DeltaDigest, BitTwinDuplicates)
{
    std::vector<PointCloud> frames;
    PointCloud f = anchoredCloud(600, 31);
    // Twins within one frame: slot 20's position again at 608 and
    // slot 40's three more times.
    f.add(f.position(20));
    for (int i = 0; i < 3; ++i)
        f.add(f.position(40));
    frames.push_back(f);
    churn(f, 100, 30, 32); // twins retained as they are
    frames.push_back(f);
    // One copy of each twin set leaves: a retained pair shrinks.
    churn(f, 608, 1, 33);
    churn(f, 40, 1, 34);
    frames.push_back(f);
    // Twins across frames: a unique old point comes back twice,
    // once at its own index and once at a churned one.
    f.position(200) = f.position(300);
    frames.push_back(f);
    // ... and the earlier copy leaves again.
    churn(f, 300, 1, 35);
    frames.push_back(f);
    churn(f, 400, 40, 36); // plain churn after the twins
    frames.push_back(f);
    EXPECT_EQ(deltaDigest(frames, octreeConfig(8, 8)), 0xb3d6d42ebf1d2238ull);
}

TEST(DeltaDigest, TwinsAmongInsertionsAndEvictions)
{
    PointCloud f = anchoredCloud(600, 71);
    for (int i = 0; i < 3; ++i)
        f.add(f.position(30));
    std::vector<PointCloud> frames{f};
    // Every copy of the old twin set leaves.
    churn(f, 30, 1, 72);
    churn(f, 608, 3, 73);
    frames.push_back(f);
    // A twin pair arrives among the insertions.
    churn(f, 100, 1, 74);
    f.position(101) = f.position(100);
    frames.push_back(f);
    churn(f, 200, 20, 75); // the pair is retained
    frames.push_back(f);
    churn(f, 100, 2, 76); // ... and leaves
    frames.push_back(f);
    EXPECT_EQ(deltaDigest(frames, octreeConfig(10, 8)), 0x1ae6d9f1ee841172ull);
}

TEST(DeltaDigest, SignedZeros)
{
    // Bounds pinned at [-1, 1]^3 so that zero coordinates sit in the
    // interior; -0.0 and +0.0 share every m-code but not their bits.
    PointCloud f;
    f.add({-1.0f, -1.0f, -1.0f});
    f.add({1.0f, 1.0f, 1.0f});
    Rng rng(41);
    for (int i = 0; i < 300; ++i) {
        const float x = rng.uniform(-1.0f, 1.0f);
        const float y = rng.uniform(-1.0f, 1.0f);
        f.add({i % 3 == 0 ? 0.0f : x, i % 3 == 1 ? 0.0f : y,
               i % 5 == 0 ? 0.0f : rng.uniform(-1.0f, 1.0f)});
    }
    std::vector<PointCloud> frames{f};
    const auto flip_zeros = [](PointCloud &c, std::size_t from,
                               std::size_t step) {
        for (std::size_t i = from; i < c.size(); i += step) {
            Vec3 &p = c.position(static_cast<PointIndex>(i));
            for (float *v : {&p.x, &p.y, &p.z}) {
                if (*v == 0.0f)
                    *v = -*v;
            }
        }
    };
    flip_zeros(f, 2, 4);
    frames.push_back(f);
    // Both signs of one point in the same frame.
    Vec3 twin = f.position(2);
    twin.x = -twin.x;
    f.add(twin);
    frames.push_back(f);
    flip_zeros(f, 2, 4); // back to +0.0
    frames.push_back(f);
    EXPECT_EQ(deltaDigest(frames, octreeConfig(8, 8)), 0x4669f27251165bc1ull);
}

TEST(DeltaDigest, ReversedFrame)
{
    // The frame of ReorderedRetainedPointsStayCorrect, there and back.
    const PointCloud a = randomCloud(400, 21);
    PointCloud b;
    for (std::size_t i = 0; i < a.size(); ++i)
        b.add(a.position(static_cast<PointIndex>(a.size() - 1 - i)));
    EXPECT_EQ(deltaDigest({a, b, a}, octreeConfig(8, 8)),
              0xe7f1111819aeb04cull);
}

TEST(DeltaDigest, RetainedPointsSwapInputIndex)
{
    PointCloud f = anchoredCloud(500, 51);
    // Two points in one finest cell, so their codes tie.
    const Vec3 p = f.position(100);
    f.position(101) = {std::nextafter(p.x, 1.0f), p.y, p.z};
    std::vector<PointCloud> frames{f};
    std::swap(f.position(20), f.position(300)); // codes differ
    frames.push_back(f);
    std::swap(f.position(100), f.position(101)); // codes tie
    frames.push_back(f);
    churn(f, 200, 10, 52);
    frames.push_back(f);
    EXPECT_EQ(deltaDigest(frames, octreeConfig(10, 8)), 0x52e66e492108cf13ull);
}

TEST(DeltaDigest, FramesGrowAndShrinkAtTheEnd)
{
    PointCloud f = anchoredCloud(500, 61);
    std::vector<PointCloud> frames{f};
    const PointCloud extra = randomCloud(50, 62);
    for (PointIndex i = 0; i < extra.size(); ++i)
        f.add(extra.position(i));
    frames.push_back(f);
    PointCloud shrunk;
    for (PointIndex i = 0; i + 120 < f.size(); ++i)
        shrunk.add(f.position(i));
    frames.push_back(shrunk);
    shrunk.add(extra.position(7)); // a point seen two frames ago
    shrunk.add({0.5f, 0.5f, 0.5f});
    frames.push_back(shrunk);
    EXPECT_EQ(deltaDigest(frames, octreeConfig(10, 8)), 0xf53d53e294230361ull);
}

} // namespace
} // namespace hgpcn
