/**
 * @file
 * Tests for the library extensions beyond the paper's core: the
 * paper-literal naive FPS, the radix-sort octree build, PLY I/O,
 * trace reports, pipelined stream processing and the adaptive VEG
 * expansion level.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/rng.h"
#include "core/hgpcn_system.h"
#include "datasets/kitti_like.h"
#include "datasets/ply_io.h"
#include "gather/veg_gatherer.h"
#include "nn/trace_report.h"
#include "sampling/fps_sampler.h"
#include "sim/down_sampling_unit.h"
#include "sim/fcu_dla.h"

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

// ------------------------------------------------------- naive FPS

TEST(NaiveFps, PicksIdenticalToCachedFps)
{
    // The literal Algorithm 1 and the cached-distance formulation
    // compute the same min-distance-to-S objective, so with equal
    // seeds the picks must be identical.
    const PointCloud cloud = randomCloud(400, 1);
    FpsSampler cached(9);
    NaiveFpsSampler naive(9);
    EXPECT_EQ(cached.sample(cloud, 48).indices,
              naive.sample(cloud, 48).indices);
}

TEST(NaiveFps, QuadraticAccessCounters)
{
    const PointCloud cloud = randomCloud(200, 2);
    const auto result = NaiveFpsSampler(1).sample(cloud, 20);
    // Sum over iterations of n*|S| = n * (1 + 2 + ... + 19).
    const std::uint64_t expected = 200ull * (19 * 20 / 2);
    EXPECT_EQ(result.stats.get("sample.distance_computations"),
              expected);
    // Whole distance array rewritten and re-read per iteration.
    EXPECT_EQ(result.stats.get("sample.intermediate_writes"),
              200ull * 19);
    EXPECT_EQ(result.stats.get("sample.intermediate_reads"),
              200ull * 19);
}

TEST(NaiveFps, FarMoreTrafficThanCached)
{
    const PointCloud cloud = randomCloud(500, 3);
    const auto naive = NaiveFpsSampler(1).sample(cloud, 64);
    const auto cached = FpsSampler(1).sample(cloud, 64);
    EXPECT_GT(naive.stats.get("sample.host_reads"),
              4 * cached.stats.get("sample.host_reads"));
}

// ------------------------------------------------------ radix sort

TEST(RadixBuild, IdenticalToComparisonSort)
{
    const PointCloud cloud = randomCloud(3000, 4);
    Octree::Config radix_cfg;
    radix_cfg.maxDepth = 9;
    radix_cfg.useRadixSort = true;
    Octree::Config std_cfg = radix_cfg;
    std_cfg.useRadixSort = false;

    const Octree a = Octree::build(cloud, radix_cfg);
    const Octree b = Octree::build(cloud, std_cfg);
    ASSERT_EQ(a.pointCodes().size(), b.pointCodes().size());
    EXPECT_EQ(a.pointCodes(), b.pointCodes());
    EXPECT_EQ(a.permutation(), b.permutation());
    EXPECT_EQ(a.nodes().size(), b.nodes().size());
}

TEST(RadixBuild, StableForDuplicateCodes)
{
    // Duplicate coordinates produce equal codes; the radix sort is
    // stable, so original order (ascending index) must be kept.
    PointCloud cloud;
    for (int i = 0; i < 64; ++i)
        cloud.add({0.25f, 0.25f, 0.25f});
    Octree::Config cfg;
    cfg.maxDepth = 6;
    const Octree tree = Octree::build(cloud, cfg);
    const auto &perm = tree.permutation();
    for (std::size_t i = 0; i < perm.size(); ++i)
        EXPECT_EQ(perm[i], i);
}

TEST(RadixBuild, SortOpsCounterLinear)
{
    const PointCloud cloud = randomCloud(1000, 5);
    Octree::Config cfg;
    cfg.maxDepth = 8; // 24 key bits -> 3 byte passes
    const Octree tree = Octree::build(cloud, cfg);
    EXPECT_EQ(tree.buildStats().get("octree.sort_ops"),
              1000ull * 3 * 3);
}

// ------------------------------------------------------------- PLY

TEST(PlyIo, RoundTripsPointsAndLabels)
{
    Frame frame;
    frame.name = "t";
    Rng rng(6);
    for (int i = 0; i < 100; ++i) {
        frame.cloud.add({rng.uniform(-2.0f, 2.0f),
                         rng.uniform(-2.0f, 2.0f),
                         rng.uniform(-2.0f, 2.0f)});
        frame.labels.push_back(static_cast<int>(rng.below(5)));
    }
    const std::string path = "/tmp/hgpcn_test_roundtrip.ply";
    ASSERT_TRUE(ply::write(path, frame));
    const Frame loaded = ply::read(path);
    ASSERT_EQ(loaded.cloud.size(), frame.cloud.size());
    ASSERT_EQ(loaded.labels.size(), frame.labels.size());
    for (std::size_t i = 0; i < frame.cloud.size(); ++i) {
        const Vec3 &a =
            frame.cloud.position(static_cast<PointIndex>(i));
        const Vec3 &b =
            loaded.cloud.position(static_cast<PointIndex>(i));
        EXPECT_NEAR(a.x, b.x, 1e-4f);
        EXPECT_NEAR(a.y, b.y, 1e-4f);
        EXPECT_NEAR(a.z, b.z, 1e-4f);
        EXPECT_EQ(frame.labels[i], loaded.labels[i]);
    }
    std::remove(path.c_str());
}

TEST(PlyIo, UnlabelledCloudOmitsLabelProperty)
{
    Frame frame;
    frame.cloud.add({1, 2, 3});
    const std::string path = "/tmp/hgpcn_test_nolabel.ply";
    ASSERT_TRUE(ply::write(path, frame));
    const Frame loaded = ply::read(path);
    EXPECT_EQ(loaded.cloud.size(), 1u);
    EXPECT_TRUE(loaded.labels.empty());
    std::remove(path.c_str());
}

TEST(PlyIo, WriteFailsOnBadPath)
{
    Frame frame;
    frame.cloud.add({0, 0, 0});
    EXPECT_FALSE(ply::write("/nonexistent-dir/x.ply", frame));
}

/** Write @p text to a fresh file named @p name in the test temp
 * directory. @return its path. */
std::string
writePly(const std::string &name, const std::string &text)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream(path) << text;
    return path;
}

const char *const kXyzHeader = "ply\nformat ascii 1.0\n"
                               "element vertex 3\n"
                               "property float x\nproperty float y\n"
                               "property float z\n";

TEST(PlyIo, VertexCountComesFromTheVertexElement)
{
    // A later element's count is not the vertex count.
    const std::string path = writePly(
        "hgpcn_faces.ply",
        std::string(kXyzHeader) +
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n");
    const Frame loaded = ply::read(path);
    ASSERT_EQ(loaded.cloud.size(), 3u);
    EXPECT_EQ(loaded.cloud.position(1).x, 1.0f);
    EXPECT_EQ(loaded.cloud.position(2).y, 1.0f);
    std::remove(path.c_str());
}

TEST(PlyIo, VertexElementMustComeFirst)
{
    const std::string path = writePly(
        "hgpcn_face_first.ply",
        "ply\nformat ascii 1.0\nelement face 1\n"
        "property list uchar int vertex_indices\n"
        "element vertex 1\nproperty float x\nproperty float y\n"
        "property float z\nend_header\n3 0 0 0\n0 0 0\n");
    EXPECT_DEATH(ply::read(path), "vertex element must come first");
    std::remove(path.c_str());
}

TEST(PlyIo, ShortRowIsFatal)
{
    const std::string path = writePly(
        "hgpcn_short_row.ply",
        std::string(kXyzHeader) + "end_header\n0 0 0\n1 2\n0 1 0\n");
    EXPECT_DEATH(ply::read(path), "row 1 has 2 of 3 values");
    std::remove(path.c_str());
}

TEST(PlyIo, NonNumericValueIsFatal)
{
    const std::string path = writePly(
        "hgpcn_non_numeric.ply",
        std::string(kXyzHeader) + "end_header\n0 0 0\n0 1 0\nabc 5 6\n");
    EXPECT_DEATH(ply::read(path), "row 2: non-numeric x 'abc'");
    std::remove(path.c_str());
}

TEST(PlyIo, LabelOutsideIntRangeIsFatal)
{
    const std::string path = writePly(
        "hgpcn_label_range.ply",
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property int label\nend_header\n"
        "0 0 0 2147483647\n0 0 0 3e9\n");
    EXPECT_DEATH(ply::read(path), "row 1: label 3e\\+09 outside int range");
    std::remove(path.c_str());
}

TEST(PlyIo, HugeVertexCountFailsOnTheRowsNotTheAllocation)
{
    // The header count is only trusted as far as rows follow it.
    const std::string path = writePly(
        "hgpcn_huge_count.ply",
        "ply\nformat ascii 1.0\nelement vertex 1000000000000000\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n");
    EXPECT_DEATH(ply::read(path), "PLY truncated at vertex 1:");
    std::remove(path.c_str());
}

// ----------------------------------------------------- trace report

TEST(TraceReport, TotalsLine)
{
    ExecutionTrace trace;
    trace.gemms.push_back({"a", 10, 10, 10});
    const std::string totals = renderTraceTotals(trace);
    EXPECT_NE(totals.find("1,000 MACs"), std::string::npos);
}

// --------------------------------------------- pipelined streaming

/** One build worker overlapping one shared FPGA, batch admission. */
StreamRunner::Config
unpaced()
{
    StreamRunner::Config rc;
    rc.paceBySensor = false;
    return rc;
}

/** One frame at a time: 1 / mean modeled E2E seconds per frame. */
double
serialFps(const RuntimeResult &rt)
{
    double total = 0.0;
    for (const ProcessedFrame &pf : rt.frames)
        total += pf.result.totalSec();
    return 1.0 / (total / static_cast<double>(rt.frames.size()));
}

TEST(PipelinedStream, ThroughputAtLeastSerial)
{
    KittiLike::Config lidar_cfg;
    lidar_cfg.azimuthSteps = 250;
    const KittiLike lidar(lidar_cfg);
    std::vector<Frame> frames;
    for (std::size_t f = 0; f < 3; ++f)
        frames.push_back(lidar.generate(f));

    PointNet2Spec spec = PointNet2Spec::classification(5);
    spec.inputPoints = 256;
    spec.sa[0].npoint = 64;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 16;
    spec.sa[1].k = 8;
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, spec);
    const RuntimeResult rt = system.runStream(frames, unpaced());
    EXPECT_GE(rt.report.sustainedFps, serialFps(rt) * 0.999);
    EXPECT_GT(rt.report.sustainedFps, 0.0);
    // Batch admission races no sensor: a throughput, not a verdict.
    EXPECT_EQ(rt.report.realTime, RealTimeVerdict::NotApplicable);
}

TEST(PipelinedStream, OverlapHidesTheShorterStage)
{
    // With build time b and FPGA time f per frame, pipelined
    // throughput approaches 1/max(b, f) while serial is 1/(b+f).
    KittiLike::Config lidar_cfg;
    lidar_cfg.azimuthSteps = 250;
    const KittiLike lidar(lidar_cfg);
    std::vector<Frame> frames;
    for (std::size_t f = 0; f < 4; ++f)
        frames.push_back(lidar.generate(f));

    PointNet2Spec spec = PointNet2Spec::classification(5);
    spec.inputPoints = 256;
    spec.sa[0].npoint = 64;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 16;
    spec.sa[1].k = 8;
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, spec);
    const RuntimeResult rt = system.runStream(frames, unpaced());
    // Strictly better than serial unless one stage is ~zero.
    EXPECT_GT(rt.report.sustainedFps, serialFps(rt));
}

// ----------------------------------------- adaptive VEG expansion

TEST(AdaptiveVeg, LevelFollowsLocalDensity)
{
    // Dense cluster + sparse halo: the leaf containing a dense
    // anchor is deeper than the leaf of a sparse anchor.
    PointCloud cloud;
    Rng rng(7);
    for (int i = 0; i < 3000; ++i) {
        cloud.add(
            {0.5f + 0.01f * static_cast<float>(rng.normal()),
             0.5f + 0.01f * static_cast<float>(rng.normal()),
             0.5f + 0.01f * static_cast<float>(rng.normal())});
    }
    for (int i = 0; i < 300; ++i) {
        cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                   rng.uniform(0.0f, 1.0f)});
    }
    Octree::Config cfg;
    cfg.maxDepth = 12;
    const Octree tree = Octree::build(cloud, cfg);
    VegKnn veg(tree);
    const int dense_level = veg.levelFor({0.5f, 0.5f, 0.5f});
    const int sparse_level = veg.levelFor({0.05f, 0.95f, 0.05f});
    EXPECT_GT(dense_level, sparse_level);
}

TEST(AdaptiveVeg, BoundsLastRingOnNonUniformClouds)
{
    // The global-level fallback explodes on dense clusters; the
    // adaptive default keeps the sorted set small.
    PointCloud cloud;
    Rng rng(8);
    for (int i = 0; i < 4000; ++i) {
        cloud.add(
            {0.3f + 0.005f * static_cast<float>(rng.normal()),
             0.3f + 0.005f * static_cast<float>(rng.normal()),
             0.3f + 0.005f * static_cast<float>(rng.normal())});
    }
    for (int i = 0; i < 1000; ++i) {
        cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                   rng.uniform(0.0f, 1.0f)});
    }
    Octree::Config cfg;
    cfg.maxDepth = 12;
    const Octree tree = Octree::build(cloud, cfg);

    std::vector<PointIndex> centrals;
    for (PointIndex c = 0; c < 64; ++c)
        centrals.push_back(c * 70);

    VegKnn adaptive(tree);
    const auto adaptive_result = adaptive.gather(centrals, 32);

    VegKnn::Config coarse_cfg;
    coarse_cfg.gridLevel = 3;
    VegKnn coarse(tree, coarse_cfg);
    const auto coarse_result = coarse.gather(centrals, 32);

    EXPECT_LT(
        adaptive_result.stats.get("gather.sort_candidates") * 4,
        coarse_result.stats.get("gather.sort_candidates"));
}

// ---------------------------------------------- accelerator clock

TEST(AcceleratorClock, FcuScalesWithComparisonClock)
{
    ExecutionTrace trace;
    trace.gemms.push_back({"a", 4096, 64, 64});
    SimConfig slow = SimConfig::defaults();
    slow.fpga.acceleratorClockHz = 250e6;
    // Avoid the memory bound so the clock is visible.
    slow.memory.bandwidthBytesPerSec = 1e12;
    SimConfig fast = slow;
    fast.fpga.acceleratorClockHz = 1e9;
    const double slow_sec = FcuSim(slow).run(trace).totalSec();
    const double fast_sec = FcuSim(fast).run(trace).totalSec();
    EXPECT_NEAR(slow_sec / fast_sec, 4.0, 1e-6);
}

TEST(AcceleratorClock, PreprocessingClockIndependent)
{
    // The Down-sampling Unit stays on the prototype clock; changing
    // the accelerator comparison clock must not affect it.
    StatSet stats;
    stats.set("sample.levels_visited", 10000);
    SimConfig a = SimConfig::defaults();
    SimConfig b = SimConfig::defaults();
    b.fpga.acceleratorClockHz = 2e9;
    const DownsamplingUnitSim sim_a(a), sim_b(b);
    EXPECT_DOUBLE_EQ(sim_a.run(stats, 64, 1000).descentSec,
                     sim_b.run(stats, 64, 1000).descentSec);
}

} // namespace
} // namespace hgpcn
