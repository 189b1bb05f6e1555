/**
 * @file
 * Integration tests for the HgPCN engines and the end-to-end system.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "core/hgpcn_system.h"
#include "core/inference_engine.h"
#include "core/preprocessing_engine.h"
#include "datasets/kitti_like.h"
#include "datasets/modelnet_like.h"

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

PointNet2Spec
tinyClassifier()
{
    PointNet2Spec spec = PointNet2Spec::classification(5);
    spec.inputPoints = 256;
    spec.sa[0].npoint = 64;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 16;
    spec.sa[1].k = 8;
    return spec;
}

// ------------------------------------------------ PreprocessingEngine

TEST(PreprocessingEngine, ProducesKSampledPoints)
{
    const PreprocessingEngine engine;
    const PointCloud raw = randomCloud(20000, 1);
    const auto result = engine.process(raw, 512);
    EXPECT_EQ(result.sampled.size(), 512u);
    EXPECT_EQ(result.spt.size(), 512u);
    ASSERT_NE(result.tree, nullptr);
    EXPECT_EQ(result.tree->reorderedCloud().size(), raw.size());
}

TEST(PreprocessingEngine, SampledPointsComeFromRawCloud)
{
    const PreprocessingEngine engine;
    const PointCloud raw = randomCloud(5000, 2);
    const auto result = engine.process(raw, 128);
    // Every sampled coordinate must exist in the raw cloud.
    std::set<std::tuple<float, float, float>> raw_set;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const Vec3 &p = raw.position(static_cast<PointIndex>(i));
        raw_set.insert({p.x, p.y, p.z});
    }
    for (std::size_t i = 0; i < result.sampled.size(); ++i) {
        const Vec3 &p =
            result.sampled.position(static_cast<PointIndex>(i));
        EXPECT_TRUE(raw_set.count({p.x, p.y, p.z}));
    }
}

TEST(PreprocessingEngine, LatencyBreakdownPositive)
{
    const PreprocessingEngine engine;
    const auto result = engine.process(randomCloud(30000, 3), 1024);
    EXPECT_GT(result.octreeBuildSec, 0.0);
    EXPECT_GT(result.dsu.totalSec(), 0.0);
    EXPECT_NEAR(result.totalSec(),
                result.octreeBuildSec + result.dsu.totalSec(), 1e-12);
}

TEST(PreprocessingEngine, OctreeTableWithinOnChipBudget)
{
    // The Fig. 13 design point: a ~1e6-point frame's table must stay
    // around 10 Mb. Use 1e5 here for test speed: ~1 Mb.
    const PreprocessingEngine engine;
    const auto result = engine.process(randomCloud(100000, 4), 4096);
    EXPECT_LT(static_cast<double>(result.octreeTableBytes) * 8.0,
              13e6 / 10.0);
}

TEST(PreprocessingEngine, Deterministic)
{
    const PreprocessingEngine engine;
    const PointCloud raw = randomCloud(4000, 5);
    const auto a = engine.process(raw, 256);
    const auto b = engine.process(raw, 256);
    EXPECT_EQ(a.spt, b.spt);
}

// --------------------------------------------------- InferenceEngine

TEST(InferenceEngine, RunsVegInferenceEndToEnd)
{
    const PointNet2 net(tinyClassifier(), 42);
    const InferenceEngine engine;
    const PointCloud input = randomCloud(256, 6);
    const auto result = engine.run(net, input);
    EXPECT_EQ(result.output.logits.cols(), 5u);
    EXPECT_GT(result.dsu.pipelinedSec, 0.0);
    EXPECT_GT(result.fcu.totalSec(), 0.0);
    EXPECT_DOUBLE_EQ(result.totalSec(),
                     std::max(result.dsu.pipelinedSec,
                              result.fcu.totalSec()));
}

TEST(InferenceEngine, StageBreakdownPopulated)
{
    const PointNet2 net(tinyClassifier(), 42);
    const InferenceEngine engine;
    const auto result = engine.run(net, randomCloud(256, 7));
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < kStageCount; ++s)
        total += result.dsu.stageCycles[s];
    EXPECT_GT(total, 0u);
}

TEST(InferenceEngine, BruteDsFallbackStillTimed)
{
    InferenceEngine::Config cfg;
    cfg.ds = DsMethod::BruteKnn;
    const InferenceEngine engine(cfg);
    const PointNet2 net(tinyClassifier(), 42);
    const auto result = engine.run(net, randomCloud(256, 8));
    EXPECT_GT(result.dsu.pipelinedSec, 0.0);
}

TEST(InferenceEngine, ReusesPreprocessingOctree)
{
    const PointNet2 net(tinyClassifier(), 42);
    const InferenceEngine engine;
    const PointCloud raw = randomCloud(256, 9);
    Octree::Config tree_cfg;
    tree_cfg.maxDepth = 8;
    Octree tree = Octree::build(raw, tree_cfg);
    const auto result =
        engine.run(net, tree.reorderedCloud(), &tree);
    EXPECT_EQ(result.output.logits.cols(), 5u);
    ASSERT_FALSE(result.output.trace.gathers.empty());
    EXPECT_EQ(
        result.output.trace.gathers[0].stats.get("octree.host_reads"),
        0u);
}

// ------------------------------------------------------ HgPcnSystem

TEST(HgPcnSystem, ProcessFrameEndToEnd)
{
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    const auto result = system.processFrame(randomCloud(10000, 10));
    EXPECT_EQ(result.preprocess.sampled.size(), 256u);
    EXPECT_GT(result.totalSec(), 0.0);
    EXPECT_GT(result.fps(), 0.0);
    EXPECT_NEAR(result.totalSec(),
                result.preprocess.totalSec() +
                    result.inference.totalSec(),
                1e-12);
}

TEST(HgPcnSystem, PreprocessingDominatedByBuildNotSampling)
{
    // The OIS promise: after the build pass, sampling itself touches
    // host memory only K times, so build >> sampling on big frames.
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    const auto result = system.processFrame(randomCloud(50000, 11));
    EXPECT_GT(result.preprocess.octreeBuildSec,
              result.preprocess.dsu.descentSec);
}

/** @return @p n small frames of a 10 Hz KITTI-like stream. */
std::vector<Frame>
smallKittiStream(std::size_t n)
{
    KittiLike::Config lidar_cfg;
    lidar_cfg.azimuthSteps = 250; // small frames for test speed
    const KittiLike lidar(lidar_cfg);
    std::vector<Frame> frames;
    for (std::size_t f = 0; f < n; ++f)
        frames.push_back(lidar.generate(f));
    return frames;
}

TEST(HgPcnSystem, RuntimeReportRealTimeCheck)
{
    const std::vector<Frame> frames = smallKittiStream(3);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    const RuntimeResult rt =
        system.runStream(frames, StreamRunner::Config{});
    const RuntimeReport &report = rt.report;
    EXPECT_EQ(report.framesProcessed, 3u);
    EXPECT_GT(report.meanLatencySec, 0.0);
    EXPECT_GE(report.maxLatencySec, report.meanLatencySec);
    EXPECT_NEAR(report.generationFps, 10.0, 0.5);
    EXPECT_EQ(report.realTime,
              report.sustainedFps >= report.generationFps
                  ? RealTimeVerdict::Yes
                  : RealTimeVerdict::No);
}

/**
 * An unpaced single-worker runner (the default config with batch
 * admission) must follow the two-stage recurrence frame by frame,
 * bit for bit:
 * the CPU builds frame i+1's octree while the one FPGA down-samples
 * and infers frame i, so frame i completes at
 *   fpga_i = max(fpga_{i-1}, build_0 + ... + build_i) + dsu_i + inf_i.
 */
void
expectTwoStageRecurrence(std::size_t n_frames)
{
    const std::vector<Frame> frames = smallKittiStream(n_frames);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());

    StreamRunner::Config rc;
    rc.paceBySensor = false;
    const RuntimeResult rt = system.runStream(frames, rc);
    ASSERT_EQ(rt.frames.size(), frames.size());

    double cpu_free = 0.0, fpga_done = 0.0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const E2eResult r = system.processFrame(frames[i].cloud);
        cpu_free += r.preprocess.octreeBuildSec;
        fpga_done = std::max(fpga_done, cpu_free) +
                    r.preprocess.dsu.totalSec() +
                    r.inference.totalSec();
        EXPECT_EQ(rt.frames[i].index, i);
        // Batch admission: every frame arrives at t = 0, so its
        // latency is its completion time.
        EXPECT_EQ(rt.frames[i].doneSec, fpga_done)
            << "frame " << i << " of " << n_frames;
        EXPECT_EQ(rt.frames[i].latencySec, fpga_done)
            << "frame " << i << " of " << n_frames;
    }
    const double analytic =
        static_cast<double>(frames.size()) / fpga_done;
    EXPECT_NEAR(rt.report.sustainedFps, analytic, analytic * 1e-9);
    EXPECT_EQ(rt.report.realTime, RealTimeVerdict::NotApplicable);
}

TEST(HgPcnSystem, UnpacedRunnerFollowsTwoStageRecurrence)
{
    expectTwoStageRecurrence(4);
}

TEST(HgPcnSystem, TwoStageRecurrenceHoldsPastQueueCapacity)
{
    // Longer than the default queueCapacity (8): the build stage
    // runs ahead of the FPGA until its output queue fills, which
    // must not move any completion.
    ASSERT_GT(12u, StreamRunner::Config{}.queueCapacity);
    expectTwoStageRecurrence(12);
}

TEST(HgPcnSystem, LargerFramesCostMorePreprocessing)
{
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    const auto small = system.processFrame(randomCloud(5000, 12));
    const auto large = system.processFrame(randomCloud(50000, 13));
    EXPECT_GT(large.preprocess.totalSec(),
              small.preprocess.totalSec());
}

} // namespace
} // namespace hgpcn
