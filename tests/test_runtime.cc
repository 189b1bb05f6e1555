/**
 * @file
 * Tests for the streaming runtime: BoundedQueue semantics, the
 * deterministic virtual timeline, the threaded stage pipeline and
 * the end-to-end StreamRunner. The concurrency cases here are the
 * ones CI runs under ThreadSanitizer (see .github/workflows/ci.yml).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "common/bounded_queue.h"
#include "common/logging.h"
#include "common/stats.h"
#include "core/hgpcn_system.h"
#include "datasets/kitti_like.h"
#include "runtime/stage_pipeline.h"
#include "runtime/stream_runner.h"
#include "runtime/virtual_timeline.h"

namespace hgpcn
{
namespace
{

// ----------------------------------------------------- BoundedQueue

TEST(BoundedQueue, FifoOrderAndCounters)
{
    BoundedQueue<int> q(4);
    EXPECT_EQ(q.push(1), PushOutcome::Pushed);
    EXPECT_EQ(q.push(2), PushOutcome::Pushed);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    const auto c = q.counters();
    EXPECT_EQ(c.pushed, 2u);
    EXPECT_EQ(c.popped, 2u);
    EXPECT_EQ(c.peakSize, 2u);
}

TEST(BoundedQueue, BackPressureBlocksProducerUntilConsumed)
{
    // Whether any push actually blocks before the consumer drains
    // is a scheduling race: retry the scenario until the blocked
    // path is observed (attempt 1 in practice). FIFO order and
    // exactly-once delivery hold on every attempt.
    for (int attempt = 0; attempt < 50; ++attempt) {
        BoundedQueue<int> q(1);
        ASSERT_EQ(q.push(0), PushOutcome::Pushed);

        std::atomic<int> produced{0};
        std::atomic<bool> started{false};
        std::thread producer([&] {
            started.store(true);
            for (int i = 1; i <= 3; ++i) {
                if (q.push(i) == PushOutcome::Pushed)
                    produced.fetch_add(1);
            }
        });

        // The queue starts full, so the producer's first push must
        // wait for the first pop.
        while (!started.load())
            std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

        // Every value must arrive exactly once, in order.
        for (int expect = 0; expect <= 3; ++expect) {
            const auto v = q.pop();
            ASSERT_TRUE(v.has_value());
            EXPECT_EQ(*v, expect);
        }
        producer.join();
        EXPECT_EQ(produced.load(), 3);
        if (q.counters().blockedPushes >= 1u)
            return; // back-pressure path observed
    }
    FAIL() << "producer never blocked in 50 attempts";
}

TEST(BoundedQueue, CloseWakesBlockedProducerAndConsumer)
{
    BoundedQueue<int> q(1);
    q.push(7);

    std::atomic<bool> refused{false};
    std::thread producer([&] {
        refused.store(q.push(8) == PushOutcome::Closed);
    });
    std::thread closer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        q.close();
    });
    closer.join();
    producer.join();
    EXPECT_TRUE(refused.load());

    // Remaining element still drains, then nullopt.
    EXPECT_EQ(q.pop().value(), 7);
    EXPECT_FALSE(q.pop().has_value());
    EXPECT_EQ(q.push(9), PushOutcome::Closed);
}

// --------------------------------------------------- VirtualTimeline

TimelineConfig
oneStageMachine(OverloadPolicy policy, std::size_t capacity)
{
    TimelineConfig cfg;
    cfg.stages = {{"work", "dev"}};
    cfg.queueCapacity = capacity;
    cfg.policy = policy;
    return cfg;
}

TEST(VirtualTimeline, SerialChainTimes)
{
    TimelineConfig cfg;
    cfg.stages = {{"a", "cpu"}, {"b", "fpga"}};
    cfg.queueCapacity = 8;
    const TimelineResult r = simulateTimeline(
        cfg, {0.0, 0.0}, {{1.0, 2.0}, {1.0, 2.0}});
    ASSERT_EQ(r.processed, 2u);
    // Frame 0: a in [0,1], b in [1,3]. Frame 1's a overlaps b:
    // a in [1,2], b waits for the unit until 3, done at 5.
    EXPECT_DOUBLE_EQ(r.frames[0].finishSec[0], 1.0);
    EXPECT_DOUBLE_EQ(r.frames[0].doneSec, 3.0);
    EXPECT_DOUBLE_EQ(r.frames[1].startSec[0], 1.0);
    EXPECT_DOUBLE_EQ(r.frames[1].startSec[1], 3.0);
    EXPECT_DOUBLE_EQ(r.frames[1].doneSec, 5.0);
    EXPECT_DOUBLE_EQ(r.makespanSec, 5.0);
}

TEST(VirtualTimeline, SharedResourceMatchesLegacyRecurrence)
{
    // Three stages, the last two on one FPGA: the schedule must
    // reproduce the historical two-stage pipeline recurrence
    // fpga_done = max(fpga_done, cpu_free) + (ds + inf).
    TimelineConfig cfg;
    cfg.stages = {{"build", "cpu"}, {"ds", "fpga"}, {"inf", "fpga"}};
    cfg.queueCapacity = 16;
    const std::size_t n = 4;
    const std::vector<double> build = {1.0, 1.5, 0.5, 1.0};
    const std::vector<double> ds = {2.0, 1.0, 2.0, 1.5};
    const std::vector<double> inf = {3.0, 3.5, 2.5, 3.0};
    std::vector<double> arrivals(n, 0.0);
    std::vector<std::vector<double>> costs;
    for (std::size_t i = 0; i < n; ++i)
        costs.push_back({build[i], ds[i], inf[i]});

    double cpu_free = 0.0, fpga_done = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        cpu_free += build[i];
        fpga_done = std::max(fpga_done, cpu_free) + ds[i] + inf[i];
    }

    const TimelineResult r = simulateTimeline(cfg, arrivals, costs);
    ASSERT_EQ(r.processed, n);
    EXPECT_DOUBLE_EQ(r.frames[n - 1].doneSec, fpga_done);
    EXPECT_DOUBLE_EQ(r.makespanSec, fpga_done);
    // Both FPGA stages report against the same single unit.
    EXPECT_DOUBLE_EQ(r.stages[1].busySec, 2.0 + 1.0 + 2.0 + 1.5);
    EXPECT_GT(r.stages[2].utilization, r.stages[1].utilization);
}

TEST(VirtualTimeline, ExtraUnitsIncreaseThroughput)
{
    TimelineConfig cfg = oneStageMachine(OverloadPolicy::Block, 8);
    const std::vector<double> arrivals(6, 0.0);
    const std::vector<std::vector<double>> costs(6, {3.0});
    const TimelineResult one = simulateTimeline(cfg, arrivals, costs);
    cfg.resourceUnits["dev"] = 2;
    const TimelineResult two = simulateTimeline(cfg, arrivals, costs);
    EXPECT_DOUBLE_EQ(one.makespanSec, 18.0);
    EXPECT_DOUBLE_EQ(two.makespanSec, 9.0);
}

TEST(VirtualTimeline, BlockPolicyDelaysAdmission)
{
    const TimelineConfig cfg =
        oneStageMachine(OverloadPolicy::Block, 1);
    const TimelineResult r = simulateTimeline(
        cfg, {0.0, 1.0, 2.0}, {{10.0}, {10.0}, {10.0}});
    ASSERT_EQ(r.processed, 3u);
    EXPECT_EQ(r.dropped, 0u);
    // Frame 0 starts at 0; frame 1 queues at 1; frame 2 cannot be
    // admitted until frame 1 leaves the queue at t=10.
    EXPECT_DOUBLE_EQ(r.frames[1].admitSec, 1.0);
    EXPECT_DOUBLE_EQ(r.frames[2].admitSec, 10.0);
    EXPECT_DOUBLE_EQ(r.frames[2].doneSec, 30.0);
    EXPECT_DOUBLE_EQ(r.frames[2].latencySec, 28.0);
}

TEST(VirtualTimeline, DropNewestDiscardsArrivingFrame)
{
    const TimelineConfig cfg =
        oneStageMachine(OverloadPolicy::DropNewest, 1);
    const TimelineResult r = simulateTimeline(
        cfg, {0.0, 1.0, 2.0}, {{10.0}, {10.0}, {10.0}});
    EXPECT_EQ(r.processed, 2u);
    EXPECT_EQ(r.dropped, 1u);
    EXPECT_FALSE(r.frames[0].dropped);
    EXPECT_FALSE(r.frames[1].dropped);
    EXPECT_TRUE(r.frames[2].dropped);
}

TEST(VirtualTimeline, DropOldestEvictsQueuedFrame)
{
    const TimelineConfig cfg =
        oneStageMachine(OverloadPolicy::DropOldest, 1);
    const TimelineResult r = simulateTimeline(
        cfg, {0.0, 1.0, 2.0}, {{10.0}, {10.0}, {10.0}});
    EXPECT_EQ(r.processed, 2u);
    EXPECT_EQ(r.dropped, 1u);
    // Frame 1 was waiting in the source queue when frame 2 arrived.
    EXPECT_TRUE(r.frames[1].dropped);
    EXPECT_FALSE(r.frames[2].dropped);
    EXPECT_DOUBLE_EQ(r.frames[2].startSec[0], 10.0);
}

TEST(VirtualTimeline, MaxInFlightOneSerializes)
{
    TimelineConfig cfg;
    cfg.stages = {{"a", "cpu"}, {"b", "fpga"}};
    cfg.queueCapacity = 8;
    cfg.maxInFlight = 1;
    const TimelineResult r = simulateTimeline(
        cfg, {0.0, 0.0}, {{1.0, 2.0}, {1.0, 2.0}});
    ASSERT_EQ(r.processed, 2u);
    // No overlap at all: frame 1 is admitted when frame 0 leaves.
    EXPECT_DOUBLE_EQ(r.frames[1].admitSec, 3.0);
    EXPECT_DOUBLE_EQ(r.frames[1].doneSec, 6.0);
}

TEST(VirtualTimeline, QueueOccupancyAccounted)
{
    const TimelineConfig cfg =
        oneStageMachine(OverloadPolicy::Block, 4);
    const TimelineResult r = simulateTimeline(
        cfg, {0.0, 0.0, 0.0}, {{2.0}, {2.0}, {2.0}});
    ASSERT_EQ(r.stages.size(), 1u);
    EXPECT_EQ(r.stages[0].peakQueueDepth, 2u);
    EXPECT_GT(r.stages[0].meanQueueDepth, 0.0);
    EXPECT_DOUBLE_EQ(r.stages[0].utilization, 1.0);
}

// ---------------------------------------------------- StagePipeline

/** Stage stub: fixed modeled cost, optional real dawdling. */
FunctionStage
stubStage(const std::string &name, double cost_sec,
          int sleep_ms_first_frame = 0)
{
    return FunctionStage(
        name, "dev", [cost_sec, sleep_ms_first_frame](FrameTask &t) {
            if (sleep_ms_first_frame > 0 && t.index == 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(sleep_ms_first_frame));
            }
            return cost_sec;
        });
}

std::vector<std::unique_ptr<FrameTask>>
makeTasks(std::size_t n)
{
    std::vector<std::unique_ptr<FrameTask>> tasks;
    for (std::size_t i = 0; i < n; ++i) {
        auto t = std::make_unique<FrameTask>();
        t->index = i;
        tasks.push_back(std::move(t));
    }
    return tasks;
}

TEST(StagePipeline, EmitsInAdmissionOrderDespiteWorkerRaces)
{
    // Two workers; frame 0 dawdles, so later frames can physically
    // finish first — the reorder buffer must still emit 0,1,2,...
    FunctionStage slow = stubStage("work", 1e-3, /*sleep=*/20);
    StagePipeline::Config cfg;
    cfg.queueCapacity = 4;
    StagePipeline pipe({{&slow, 2}}, cfg);

    std::vector<std::size_t> emitted;
    const auto out = pipe.run(makeTasks(6), [&](const FrameTask &t) {
        emitted.push_back(t.index);
    });
    ASSERT_EQ(out.size(), 6u);
    ASSERT_EQ(emitted.size(), 6u);
    for (std::size_t i = 0; i < emitted.size(); ++i)
        EXPECT_EQ(emitted[i], i);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i]->index, i);
        EXPECT_DOUBLE_EQ(out[i]->stageCostSec[0], 1e-3);
    }
}

TEST(StagePipeline, MultiStageRecordsAllCosts)
{
    FunctionStage a = stubStage("a", 1.0);
    FunctionStage b = stubStage("b", 2.0);
    StagePipeline::Config cfg;
    StagePipeline pipe({{&a, 1}, {&b, 1}}, cfg);
    const auto out = pipe.run(makeTasks(3));
    ASSERT_EQ(out.size(), 3u);
    for (const auto &t : out) {
        EXPECT_DOUBLE_EQ(t->stageCostSec[0], 1.0);
        EXPECT_DOUBLE_EQ(t->stageCostSec[1], 2.0);
    }
}

TEST(StagePipeline, ShutdownWithFramesInFlight)
{
    // A slow stage and a long stream; stop after the first emitted
    // frame. run() must return promptly with a truncated, ordered
    // prefix and no deadlock.
    FunctionStage slow(
        "slow", "dev", [](FrameTask &) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
            return 1e-3;
        });
    StagePipeline::Config cfg;
    cfg.queueCapacity = 2;
    StagePipeline pipe({{&slow, 1}}, cfg);

    std::vector<std::size_t> emitted;
    const auto out = pipe.run(makeTasks(100), [&](const FrameTask &t) {
        emitted.push_back(t.index);
        pipe.requestStop();
    });
    EXPECT_TRUE(pipe.stopRequested());
    EXPECT_LT(out.size(), 100u);
    EXPECT_GE(out.size(), 1u);
    for (std::size_t i = 1; i < emitted.size(); ++i)
        EXPECT_LT(emitted[i - 1], emitted[i]);
}

TEST(StagePipeline, RunAfterStopProcessesFullStream)
{
    // Regression: `stopped` was never reset, so a pipeline was
    // permanently dead after requestStop() — a second run()
    // silently abandoned the whole stream. The restart contract:
    // each run() starts fresh.
    FunctionStage slow(
        "slow", "dev", [](FrameTask &) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
            return 1e-3;
        });
    StagePipeline::Config cfg;
    cfg.queueCapacity = 2;
    StagePipeline pipe({{&slow, 1}}, cfg);

    const auto first = pipe.run(makeTasks(50), [&](const FrameTask &) {
        pipe.requestStop();
    });
    EXPECT_LT(first.size(), 50u);

    const auto second = pipe.run(makeTasks(6));
    EXPECT_FALSE(pipe.stopRequested());
    ASSERT_EQ(second.size(), 6u);
    for (std::size_t i = 0; i < second.size(); ++i)
        EXPECT_EQ(second[i]->index, i);
}

TEST(StagePipeline, StopWhileIdleIsNoOp)
{
    // A stop against an idle pipeline belongs to no run: the next
    // run() clears it and processes everything.
    FunctionStage s = stubStage("s", 1.0);
    StagePipeline::Config cfg;
    StagePipeline pipe({{&s, 1}}, cfg);
    pipe.requestStop();
    EXPECT_TRUE(pipe.stopRequested());
    const auto out = pipe.run(makeTasks(4));
    EXPECT_FALSE(pipe.stopRequested());
    EXPECT_EQ(out.size(), 4u);
}

// ----------------------------------------------------- StreamRunner

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

TEST(StreamRunner, MatchesSerialFunctionalResults)
{
    const std::vector<Frame> frames = smallKittiStream(3);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());

    StreamRunner::Config rc;
    rc.buildWorkers = 2;
    const RuntimeResult rt = system.runStream(frames, rc);
    ASSERT_EQ(rt.frames.size(), frames.size());

    for (std::size_t i = 0; i < frames.size(); ++i) {
        const E2eResult serial =
            system.processFrame(frames[i].cloud);
        const E2eResult &piped = rt.frames[i].result;
        EXPECT_EQ(rt.frames[i].index, i);
        // Same engines, same seeds: identical picks and labels no
        // matter how many workers carried the frame.
        EXPECT_EQ(piped.preprocess.spt, serial.preprocess.spt);
        EXPECT_EQ(piped.inference.output.labels,
                  serial.inference.output.labels);
        EXPECT_DOUBLE_EQ(piped.totalSec(), serial.totalSec());
    }
}

TEST(StreamRunner, ReportIsDeterministicAcrossRuns)
{
    const std::vector<Frame> frames = smallKittiStream(4);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.buildWorkers = 3;
    rc.queueCapacity = 2;
    const RuntimeResult a = system.runStream(frames, rc);
    const RuntimeResult b = system.runStream(frames, rc);
    EXPECT_DOUBLE_EQ(a.report.sustainedFps, b.report.sustainedFps);
    EXPECT_DOUBLE_EQ(a.report.p99LatencySec, b.report.p99LatencySec);
    EXPECT_DOUBLE_EQ(a.report.makespanSec, b.report.makespanSec);
}

TEST(StreamRunner, PacedReportChecksRealTimeCriterion)
{
    const std::vector<Frame> frames = smallKittiStream(3);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc; // paced by default
    const RuntimeResult rt = system.runStream(frames, rc);
    EXPECT_EQ(rt.report.framesProcessed, 3u);
    EXPECT_NEAR(rt.report.generationFps, 10.0, 0.5);
    EXPECT_EQ(rt.report.realTime,
              rt.report.sustainedFps >= rt.report.generationFps
                  ? RealTimeVerdict::Yes
                  : RealTimeVerdict::No);
    EXPECT_GT(rt.report.p50LatencySec, 0.0);
    EXPECT_LE(rt.report.p50LatencySec, rt.report.p99LatencySec);
    EXPECT_LE(rt.report.p99LatencySec, rt.report.maxLatencySec);
    ASSERT_EQ(rt.report.stages.size(), 3u);
    EXPECT_GT(rt.workload.size(), 0u);
}

TEST(StreamRunner, EmptyStreamYieldsEmptyReport)
{
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    const RuntimeResult rt =
        system.runStream({}, StreamRunner::Config{});
    EXPECT_EQ(rt.report.framesIn, 0u);
    EXPECT_TRUE(rt.frames.empty());
}

TEST(StreamRunner, NonMonotonicTimestampsAreFatal)
{
    std::vector<Frame> frames = smallKittiStream(3);
    // Genuinely corrupt ordering (stamped, but going backwards).
    frames[2].timestamp = frames[0].timestamp;
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc; // paced: timestamps are load-bearing
    EXPECT_EXIT(system.runStream(frames, rc),
                ::testing::ExitedWithCode(1), "strictly increasing");
}

TEST(StreamRunner, UnstampedStreamFallsBackToBatch)
{
    // Generators other than the LiDAR simulator leave timestamps at
    // 0.0; a paced runner must degrade to batch admission (with a
    // warning), not die.
    std::vector<Frame> frames = smallKittiStream(3);
    for (Frame &frame : frames)
        frame.timestamp = 0.0;
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    // Capture the degradation warning instead of silencing it: the
    // fallback must be announced, not just taken.
    std::vector<std::pair<LogLevel, std::string>> captured;
    LogSink prev = setLogSink(
        [&captured](LogLevel level, const std::string &msg) {
            captured.emplace_back(level, msg);
        });
    const RuntimeResult rt =
        system.runStream(frames, StreamRunner::Config{});
    setLogSink(std::move(prev));
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0].first, LogLevel::Warn);
    EXPECT_NE(captured[0].second.find("batch admission"),
              std::string::npos)
        << "warning text was: " << captured[0].second;
    EXPECT_FALSE(rt.report.paced);
    EXPECT_EQ(rt.report.framesProcessed, 3u);
    EXPECT_DOUBLE_EQ(rt.report.generationFps, 0.0);
    // No rate derivable: the verdict must be n/a, not a vacuous
    // YES (the seed bug).
    EXPECT_EQ(rt.report.realTime, RealTimeVerdict::NotApplicable);
}

TEST(StreamRunner, BatchModeVerdictIsNotApplicable)
{
    // Regression: an unpaced (batch) run has generationFps == 0, so
    // the seed's `sustained >= generation` verdict was trivially
    // YES for every batch bench. Batch races no sensor: the verdict
    // must be n/a, in the report and in its rendering.
    const std::vector<Frame> frames = smallKittiStream(3);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.paceBySensor = false; // batch admission of a stamped stream
    const RuntimeResult rt = system.runStream(frames, rc);
    EXPECT_FALSE(rt.report.paced);
    EXPECT_DOUBLE_EQ(rt.report.generationFps, 0.0);
    EXPECT_EQ(rt.report.realTime, RealTimeVerdict::NotApplicable);
    const std::string text = rt.report.toString();
    EXPECT_NE(text.find("real-time: n/a"), std::string::npos);
    EXPECT_EQ(text.find("real-time: YES"), std::string::npos);
}

TEST(StreamRunner, RunAfterStopProcessesFullStream)
{
    // Regression: the runner inherits the StagePipeline restart
    // contract — a run aborted by requestStop() must not poison
    // the next run().
    const std::vector<Frame> frames = smallKittiStream(4);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.inputPoints = system.config().inputPoints;
    StreamRunner runner(system.preprocessor(), system.backend(), rc);

    const RuntimeResult first =
        runner.run(frames, [&](const FrameTask &) {
            runner.requestStop();
        });
    EXPECT_LE(first.report.framesProcessed, frames.size());

    const RuntimeResult second = runner.run(frames);
    EXPECT_EQ(second.report.framesProcessed, frames.size());
    EXPECT_EQ(second.report.framesAbandoned, 0u);
    EXPECT_EQ(second.frames.size(), frames.size());
}

TEST(StreamRunner, SteadyStateIsArenaAllocationFree)
{
    // The zero-alloc regression pin (core/frame_workspace.h): after
    // a warm-up run grows the runner's workspace arenas once, a
    // steady-state run over the same stream must not grow them
    // again — the counting hook on the arena backing stores is the
    // witness. Single-worker config so exactly one workspace serves
    // every frame deterministically.
    const std::vector<Frame> frames = smallKittiStream(3);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.paceBySensor = false;
    rc.inputPoints = system.config().inputPoints;
    StreamRunner runner(system.preprocessor(), system.backend(), rc);

    runner.run(frames); // warm-up: arenas size themselves
    const std::uint64_t warm = FrameWorkspace::backingGrowths();
    const RuntimeResult steady = runner.run(frames);
    EXPECT_EQ(steady.frames.size(), frames.size());
    EXPECT_EQ(FrameWorkspace::backingGrowths(), warm)
        << "steady-state frames grew a workspace arena";
}

TEST(StreamRunner, ResultsDropPreprocessingIndices)
{
    // The down-sample stage releases each frame's octree once
    // sampled, returning the carry's pooled bundle while the stream
    // runs, and the carry builds no raw-cloud index; results keep
    // only the sampled cloud.
    const std::vector<Frame> frames = smallKittiStream(3);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.paceBySensor = false;
    rc.inputPoints = system.config().inputPoints;
    StreamRunner runner(system.preprocessor(), system.backend(), rc);
    const RuntimeResult r = runner.run(frames);
    ASSERT_EQ(r.frames.size(), frames.size());
    for (const ProcessedFrame &f : r.frames) {
        const PreprocessResult &pr = f.result.preprocess;
        EXPECT_EQ(pr.tree, nullptr);
        EXPECT_EQ(pr.rawKnn, nullptr);
        EXPECT_EQ(pr.rawOcc, nullptr);
        EXPECT_EQ(pr.sampled.size(), rc.inputPoints);
    }
}

} // namespace
} // namespace hgpcn
