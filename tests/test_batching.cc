/**
 * @file
 * Tests for cross-sensor micro-batching: the wall-clock assembler
 * (runtime/batching_stage.h), the virtual timeline's batched
 * dispatch and charging, the backend batch contract
 * (inferBatch/batchServiceSec), the NN-level stacked execution
 * (PointNet2::runBatch) and the end-to-end StreamRunner /
 * ShardedRunner invariants: per-frame outputs bit-identical at any
 * maxBatch, maxBatch=1 indistinguishable from a build without the
 * feature, in-order per-sensor emission, timeline conservation and
 * zero steady-state arena growth. CI runs this suite under
 * ThreadSanitizer and AddressSanitizer (.github/workflows/ci.yml).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "backends/backend_registry.h"
#include "core/frame_workspace.h"
#include "core/hgpcn_system.h"
#include "datasets/kitti_like.h"
#include "datasets/sensor_stream.h"
#include "runtime/batching_stage.h"
#include "runtime/stream_runner.h"
#include "runtime/virtual_timeline.h"
#include "serving/sharded_runner.h"

namespace hgpcn
{
namespace
{

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

/** Tiny segmentation net: exercises the FP (feature-propagation)
 * half of the stacked batch path. */
PointNet2Spec
tinySegmenter()
{
    PointNet2Spec spec = PointNet2Spec::partSegmentation(4);
    spec.inputPoints = 128;
    spec.sa[0] = {32, 8, 0.25f, {16, 32}};
    spec.sa[1] = {8, 4, 0.5f, {32, 64}};
    spec.sa[2] = {0, 0, 0.0f, {64, 64}};
    spec.fp = {{{32, 16}}, {{32}}, {{64}}};
    spec.head = {32};
    return spec;
}

std::vector<Frame>
smallKittiStream(std::size_t n)
{
    KittiLike::Config cfg;
    cfg.azimuthSteps = 250; // small frames for test speed
    const KittiLike lidar(cfg);
    std::vector<Frame> frames;
    for (std::size_t f = 0; f < n; ++f)
        frames.push_back(lidar.generate(f));
    return frames;
}

SensorStream
tinyLidarStream(std::size_t sensors, std::size_t frames_per_sensor,
                double rate_hz = 10.0)
{
    MultiSensorConfig cfg;
    cfg.sensors = sensors;
    cfg.framesPerSensor = frames_per_sensor;
    cfg.lidar.azimuthSteps = 250;
    cfg.lidar.frameRateHz = rate_hz;
    return makeLidarSensorStream(cfg);
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

std::unique_ptr<FrameTask>
taskWithIndex(std::size_t index)
{
    auto task = std::make_unique<FrameTask>();
    task->index = index;
    return task;
}

// ------------------------------------------------- BatchingStage

TEST(BatchingStage, InOrderArrivalReleasesFullGroups)
{
    BatchingStage assembler(2);
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < 6; ++i) {
        for (auto &g : assembler.add(taskWithIndex(i))) {
            std::vector<std::size_t> idx;
            for (const auto &t : g)
                idx.push_back(t->index);
            groups.push_back(idx);
        }
    }
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[0], (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(groups[1], (std::vector<std::size_t>{2, 3}));
    EXPECT_EQ(groups[2], (std::vector<std::size_t>{4, 5}));
    EXPECT_EQ(assembler.pendingCount(), 0u);
}

TEST(BatchingStage, OutOfOrderArrivalHoldsUntilGroupComplete)
{
    // Upstream pools emit in any order; composition must not care.
    BatchingStage assembler(4);
    for (const std::size_t i : {4, 5, 6, 7, 1, 2, 3})
        EXPECT_TRUE(assembler.add(taskWithIndex(i)).empty());
    EXPECT_EQ(assembler.pendingCount(), 7u);
    // Index 0 plugs the gap and releases BOTH groups, in order.
    const auto groups = assembler.add(taskWithIndex(0));
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].front()->index, 0u);
    EXPECT_EQ(groups[0].back()->index, 3u);
    EXPECT_EQ(groups[1].front()->index, 4u);
    EXPECT_EQ(groups[1].back()->index, 7u);
}

TEST(BatchingStage, FlushEmitsPartialTailInIndexOrder)
{
    BatchingStage assembler(4);
    std::size_t released = 0;
    for (std::size_t i = 0; i < 6; ++i)
        released += assembler.add(taskWithIndex(i)).size();
    EXPECT_EQ(released, 1u); // [0..3]
    const auto tail = assembler.flush();
    ASSERT_EQ(tail.size(), 1u);
    ASSERT_EQ(tail[0].size(), 2u);
    EXPECT_EQ(tail[0][0]->index, 4u);
    EXPECT_EQ(tail[0][1]->index, 5u);
    EXPECT_EQ(assembler.pendingCount(), 0u);
}

// -------------------------------------- VirtualTimeline batching

TimelineConfig
oneStageMachine(std::size_t max_batch, double timeout_sec)
{
    TimelineConfig cfg;
    cfg.stages = {{"infer", "dev"}};
    cfg.batch.maxBatch = max_batch;
    cfg.batch.timeoutSec = timeout_sec;
    return cfg;
}

TEST(TimelineBatching, GreedyDispatchBatchesBacklogOnly)
{
    // Four frames at t=0, solo cost 1.0. Work-conserving timeout=0:
    // the first frame dispatches alone (nothing else queued yet);
    // the backlog of three coalesces when the unit frees.
    const TimelineConfig cfg = oneStageMachine(4, 0.0);
    const std::vector<double> arrivals{0, 0, 0, 0};
    const std::vector<std::vector<double>> costs(
        4, std::vector<double>{1.0});
    const TimelineResult r = simulateTimeline(
        cfg, arrivals, costs,
        [](const std::vector<std::size_t> &members) {
            return 0.4 * static_cast<double>(members.size());
        });
    EXPECT_EQ(r.processed, 4u);
    EXPECT_EQ(r.batchCount, 2u);
    EXPECT_EQ(r.soloFrames, 1u);
    EXPECT_EQ(r.batchedFrames, 3u);
    EXPECT_EQ(r.maxBatchSize, 3u);
    EXPECT_DOUBLE_EQ(r.meanBatchSize, 2.0);
    EXPECT_EQ(r.frames[0].batchSize, 1u);
    for (std::size_t f = 1; f < 4; ++f)
        EXPECT_EQ(r.frames[f].batchSize, 3u);
    // Solo at [0,1], batch of three at [1, 1+1.2].
    EXPECT_DOUBLE_EQ(r.frames[0].doneSec, 1.0);
    for (std::size_t f = 1; f < 4; ++f) {
        EXPECT_DOUBLE_EQ(r.frames[f].startSec[0], 1.0);
        EXPECT_DOUBLE_EQ(r.frames[f].doneSec, 2.2);
    }
    // Occupancy charged ONCE per dispatch: 1.0 + 1.2, not 1.0 + 3.
    EXPECT_DOUBLE_EQ(r.stages[0].busySec, 2.2);
    EXPECT_DOUBLE_EQ(r.makespanSec, 2.2);
}

TEST(TimelineBatching, TimeoutHoldsPartialBatchThenDispatches)
{
    // Two frames at t=0 on an idle unit, maxBatch 4, timeout 0.5:
    // the batch never fills, so it dispatches at the deadline.
    const TimelineConfig cfg = oneStageMachine(4, 0.5);
    const std::vector<std::vector<double>> costs(
        2, std::vector<double>{1.0});
    const TimelineResult r = simulateTimeline(
        cfg, {0, 0}, costs,
        [](const std::vector<std::size_t> &members) {
            return 0.7 * static_cast<double>(members.size());
        });
    EXPECT_EQ(r.processed, 2u);
    EXPECT_EQ(r.batchCount, 1u);
    EXPECT_EQ(r.batchedFrames, 2u);
    for (std::size_t f = 0; f < 2; ++f) {
        EXPECT_EQ(r.frames[f].batchSize, 2u);
        EXPECT_DOUBLE_EQ(r.frames[f].startSec[0], 0.5);
        EXPECT_DOUBLE_EQ(r.frames[f].doneSec, 0.5 + 1.4);
    }
    EXPECT_DOUBLE_EQ(r.stages[0].busySec, 1.4);
}

TEST(TimelineBatching, FullBatchDispatchesBeforeTimeout)
{
    const TimelineConfig cfg = oneStageMachine(2, 10.0);
    const std::vector<std::vector<double>> costs(
        2, std::vector<double>{1.0});
    const TimelineResult r = simulateTimeline(
        cfg, {0, 0}, costs,
        [](const std::vector<std::size_t> &members) {
            return 0.6 * static_cast<double>(members.size());
        });
    ASSERT_EQ(r.processed, 2u);
    // Fill beats deadline: dispatch at t=0, not t=10.
    EXPECT_DOUBLE_EQ(r.frames[0].startSec[0], 0.0);
    EXPECT_DOUBLE_EQ(r.makespanSec, 1.2);
}

TEST(TimelineBatching, SingletonBatchChargesSoloCostExactly)
{
    // A batch of one is solo service by definition: the callback is
    // never consulted for it.
    const TimelineConfig cfg = oneStageMachine(8, 0.0);
    const TimelineResult r = simulateTimeline(
        cfg, {0}, {{1.25}},
        [](const std::vector<std::size_t> &) { return 999.0; });
    ASSERT_EQ(r.processed, 1u);
    EXPECT_DOUBLE_EQ(r.frames[0].doneSec, 1.25);
    EXPECT_EQ(r.soloFrames, 1u);
    EXPECT_EQ(r.batchedFrames, 0u);
}

TEST(TimelineBatching, MaxBatchOneMatchesLegacySchedule)
{
    // maxBatch=1 must take the classic per-frame path: identical
    // schedule to a config that never mentions batching, callback
    // never consulted.
    TimelineConfig legacy;
    legacy.stages = {{"a", "cpu"}, {"b", "dev"}};
    TimelineConfig batched = legacy;
    batched.batch.maxBatch = 1;
    batched.batch.timeoutSec = 0.0;
    const std::vector<double> arrivals{0.0, 0.1, 0.2, 0.3};
    const std::vector<std::vector<double>> costs(
        4, std::vector<double>{0.05, 0.2});
    const TimelineResult a = simulateTimeline(legacy, arrivals, costs);
    const TimelineResult b = simulateTimeline(
        batched, arrivals, costs,
        [](const std::vector<std::size_t> &) -> double {
            ADD_FAILURE() << "batch cost consulted at maxBatch=1";
            return 0.0;
        });
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t f = 0; f < a.frames.size(); ++f) {
        EXPECT_DOUBLE_EQ(a.frames[f].doneSec, b.frames[f].doneSec);
        EXPECT_EQ(b.frames[f].batchSize, 1u);
    }
    EXPECT_DOUBLE_EQ(a.makespanSec, b.makespanSec);
    EXPECT_EQ(b.batchCount, 0u);
}

// ------------------------------------------- Backend batch contract

/** The registry's built-in backends, each held to the contract. */
constexpr const char *kBuiltinBackends[] = {"hgpcn", "mesorasi",
                                            "pointacc", "cpu-brute"};

TEST(BackendBatching, BatchServiceSecOfOneFrameEqualsSolo)
{
    const PointNet2 net(tinyClassifier(), 42);
    const PointCloud cloud = randomCloud(256, 7);
    for (const char *name : kBuiltinBackends) {
        const auto be = makeBackend(name, InferenceEngine::Config{}, net);
        const BackendInference solo = be->infer(cloud);
        const BackendInference *ptr = &solo;
        EXPECT_DOUBLE_EQ(be->batchServiceSec({&ptr, 1}),
                         solo.totalSec())
            << be->name();
    }
}

TEST(BackendBatching, InferBatchFramesBitIdenticalToSolo)
{
    const PointNet2 net(tinyClassifier(), 42);
    std::vector<PointCloud> clouds;
    for (std::uint64_t s = 0; s < 3; ++s)
        clouds.push_back(randomCloud(256, 20 + s));
    std::vector<const PointCloud *> ptrs;
    for (const PointCloud &c : clouds)
        ptrs.push_back(&c);

    for (const char *name : kBuiltinBackends) {
        const auto be = makeBackend(name, InferenceEngine::Config{}, net);
        const BatchInference batch = be->inferBatch(ptrs);
        ASSERT_EQ(batch.frames.size(), clouds.size());
        double solo_sum = 0.0;
        for (std::size_t i = 0; i < clouds.size(); ++i) {
            const BackendInference solo = be->infer(clouds[i]);
            const BackendInference &b = batch.frames[i];
            EXPECT_EQ(b.output.labels, solo.output.labels);
            ASSERT_EQ(b.output.logits.rows(),
                      solo.output.logits.rows());
            ASSERT_EQ(b.output.logits.cols(),
                      solo.output.logits.cols());
            for (std::size_t r = 0; r < solo.output.logits.rows();
                 ++r) {
                for (std::size_t c = 0;
                     c < solo.output.logits.cols(); ++c) {
                    EXPECT_EQ(b.output.logits.row(r)[c],
                              solo.output.logits.row(r)[c])
                        << be->name() << " frame " << i;
                }
            }
            // Per-frame modeled numbers are batch-independent.
            EXPECT_DOUBLE_EQ(b.dsSec, solo.dsSec);
            EXPECT_DOUBLE_EQ(b.fcSec, solo.fcSec);
            solo_sum += solo.totalSec();
        }
        // Shared weight pass: batched occupancy never exceeds the
        // serial sum (and is positive).
        EXPECT_GT(batch.batchSec, 0.0) << be->name();
        EXPECT_LE(batch.batchSec, solo_sum + 1e-12) << be->name();
    }
}

// -------------------------------------------- PointNet2::runBatch

TEST(RunBatch, MatchesSoloRunBitwise)
{
    for (const PointNet2Spec &spec :
         {tinyClassifier(), tinySegmenter(),
          PointNet2Spec::edgeClassification(8)}) {
        const PointNet2 net(spec, 42);
        std::vector<PointCloud> clouds;
        for (std::uint64_t s = 0; s < 4; ++s)
            clouds.push_back(
                randomCloud(spec.inputPoints, 100 + s));
        std::vector<const PointCloud *> ptrs;
        for (const PointCloud &c : clouds)
            ptrs.push_back(&c);
        const std::vector<RunOutput> batch = net.runBatch(ptrs);
        ASSERT_EQ(batch.size(), clouds.size()) << spec.name;
        for (std::size_t i = 0; i < clouds.size(); ++i) {
            const RunOutput solo = net.run(clouds[i]);
            EXPECT_EQ(batch[i].labels, solo.labels) << spec.name;
            ASSERT_EQ(batch[i].logits.rows(), solo.logits.rows());
            ASSERT_EQ(batch[i].logits.cols(), solo.logits.cols());
            for (std::size_t r = 0; r < solo.logits.rows(); ++r) {
                for (std::size_t c = 0; c < solo.logits.cols();
                     ++c) {
                    EXPECT_EQ(batch[i].logits.row(r)[c],
                              solo.logits.row(r)[c])
                        << spec.name << " frame " << i;
                }
            }
            // The stacked pass records the same per-frame trace.
            ASSERT_EQ(batch[i].trace.gemms.size(),
                      solo.trace.gemms.size());
            for (std::size_t g = 0; g < solo.trace.gemms.size();
                 ++g) {
                EXPECT_EQ(batch[i].trace.gemms[g].layer,
                          solo.trace.gemms[g].layer);
                EXPECT_EQ(batch[i].trace.gemms[g].m,
                          solo.trace.gemms[g].m);
                EXPECT_EQ(batch[i].trace.gemms[g].k,
                          solo.trace.gemms[g].k);
                EXPECT_EQ(batch[i].trace.gemms[g].n,
                          solo.trace.gemms[g].n);
            }
        }
    }
}

// ------------------------------------------- StreamRunner E2E

TEST(StreamBatching, OutputsBitIdenticalAcrossMaxBatch)
{
    const std::vector<Frame> frames = smallKittiStream(5);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());

    StreamRunner::Config base;
    base.paceBySensor = false; // backlog -> batches actually form
    const RuntimeResult reference = system.runStream(frames, base);
    ASSERT_EQ(reference.frames.size(), frames.size());

    for (const std::size_t max_batch : {std::size_t{2},
                                        std::size_t{4},
                                        std::size_t{8}}) {
        for (const bool temporal : {true, false}) {
            StreamRunner::Config rc = base;
            rc.maxBatch = max_batch;
            rc.temporalCache = temporal;
            const RuntimeResult rt = system.runStream(frames, rc);
            ASSERT_EQ(rt.frames.size(), frames.size())
                << "maxBatch " << max_batch;
            for (std::size_t i = 0; i < frames.size(); ++i) {
                const E2eResult &a = reference.frames[i].result;
                const E2eResult &b = rt.frames[i].result;
                EXPECT_EQ(rt.frames[i].index, i);
                EXPECT_EQ(b.inference.output.labels,
                          a.inference.output.labels)
                    << "maxBatch " << max_batch << " temporal "
                    << temporal << " frame " << i;
                // Modeled per-frame numbers unchanged by batching.
                EXPECT_DOUBLE_EQ(b.totalSec(), a.totalSec());
            }
        }
    }
}

TEST(StreamBatching, MaxBatchOneReportByteIdentical)
{
    // The default config IS maxBatch=1; an explicit 1 must change
    // nothing, report text included (the pre-PR pin).
    const std::vector<Frame> frames = smallKittiStream(4);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.buildWorkers = 2;
    const RuntimeResult a = system.runStream(frames, rc);
    rc.maxBatch = 1;
    rc.batchTimeoutVirtualSec = 0.0;
    const RuntimeResult b = system.runStream(frames, rc);
    EXPECT_EQ(a.report.toString(), b.report.toString());
    EXPECT_EQ(b.report.batchCount, 0u);
    EXPECT_EQ(a.report.toString().find("batching:"),
              std::string::npos);
}

TEST(StreamBatching, BatchedReportAttributesOccupancy)
{
    const std::vector<Frame> frames = smallKittiStream(8);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.paceBySensor = false; // full backlog -> full batches
    rc.maxBatch = 4;
    // Upstream stages hand frames to inference one at a time; a
    // fill timeout far above any modeled stage time makes the
    // dispatcher wait for full batches instead of draining greedily.
    rc.batchTimeoutVirtualSec = 10.0;
    const RuntimeResult rt = system.runStream(frames, rc);
    const RuntimeReport &rep = rt.report;
    EXPECT_EQ(rep.framesProcessed, frames.size());
    EXPECT_EQ(rep.configuredMaxBatch, 4u);
    EXPECT_GT(rep.batchCount, 0u);
    EXPECT_EQ(rep.batchedFrames + rep.soloFrames,
              rep.framesProcessed);
    EXPECT_GT(rep.meanBatchSize, 1.0);
    EXPECT_LE(rep.maxBatchSize, 4u);
    EXPECT_NE(rep.toString().find("batching: max 4"),
              std::string::npos);
    // Determinism: the full report reproduces run over run.
    const RuntimeResult again = system.runStream(frames, rc);
    EXPECT_EQ(rt.report.toString(), again.report.toString());
}

TEST(StreamBatching, ConservationHoldsUnderDropsAndBatching)
{
    const std::vector<Frame> frames = smallKittiStream(8);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.maxBatch = 4;
    rc.queueCapacity = 1;
    rc.maxInFlight = 2;
    rc.policy = OverloadPolicy::DropNewest;
    const RuntimeResult rt = system.runStream(frames, rc);
    EXPECT_EQ(rt.report.framesIn,
              rt.report.framesProcessed + rt.report.framesDropped +
                  rt.report.framesAbandoned);
}

TEST(StreamBatching, SteadyStateArenaStopsGrowing)
{
    // Warm-up sees every batch-sized (slot, size) maximum; after it,
    // serving the same stream again allocates nothing new. The warm
    // contract is per runner (the pool is a StreamRunner member), so
    // reuse one runner rather than going through runStream, which
    // constructs a fresh runner -- and fresh, cold arenas -- per call.
    const std::vector<Frame> frames = smallKittiStream(6);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.inputPoints = 256;
    rc.paceBySensor = false;
    rc.maxBatch = 2;
    StreamRunner runner(system.preprocessor(), system.backend(), rc);
    (void)runner.run(frames); // warm-up
    const std::uint64_t warmed = FrameWorkspace::backingGrowths();
    (void)runner.run(frames);
    EXPECT_EQ(FrameWorkspace::backingGrowths(), warmed);
}

// ------------------------------------------- ShardedRunner E2E

TEST(ServingBatching, PerSensorOrderAndShardAttribution)
{
    const SensorStream stream = tinyLidarStream(4, 4);
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.placement = PlacementPolicy::HashBySensor;
    sc.runner.paceBySensor = false;
    sc.runner.maxBatch = 2;
    ShardedRunner runner(cfg, tinyClassifier(), sc);
    const ServingResult served = runner.serve(stream);
    EXPECT_EQ(served.report.framesProcessed, stream.size());

    // In-order per-sensor emission across batch boundaries.
    std::vector<std::size_t> next(stream.sensorCount, 0);
    for (const ServedFrame &sf : served.frames) {
        EXPECT_EQ(sf.sensorIndex, next[sf.sensor]++)
            << "sensor " << sf.sensor;
    }

    // Per-shard batch-occupancy attribution made it to the report.
    for (const RuntimeReport &shard : served.report.shardReports) {
        EXPECT_EQ(shard.configuredMaxBatch, 2u);
        EXPECT_EQ(shard.batchedFrames + shard.soloFrames,
                  shard.framesProcessed);
    }
    EXPECT_NE(served.report.toString().find("batch mean"),
              std::string::npos);
}

} // namespace
} // namespace hgpcn
