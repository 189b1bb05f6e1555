/**
 * @file
 * Tests for the sharded serving layer: SensorStream merging,
 * placement policies, the ShardedRunner fleet, report-merge
 * arithmetic, per-sensor ordering under hash affinity and
 * mid-stream shard stops. The concurrency cases here run under
 * ThreadSanitizer and AddressSanitizer in CI
 * (.github/workflows/ci.yml).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/hgpcn_system.h"
#include "datasets/coherent_drive.h"
#include "datasets/sensor_stream.h"
#include "serving/placement.h"
#include "serving/serving_report.h"
#include "serving/sharded_runner.h"
#include "sim/fault_plan.h"

#include "report_digest.h"

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

/** Small multi-LiDAR stream (tiny frames for test speed). */
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

/** Stream of empty frames with given stamps/tags (placement only). */
SensorStream
stampedStream(const std::vector<double> &stamps,
              const std::vector<std::size_t> &tags,
              std::size_t sensor_count)
{
    SensorStream stream;
    stream.sensorCount = sensor_count;
    for (std::size_t i = 0; i < stamps.size(); ++i) {
        Frame frame;
        frame.name = std::string("f").append(std::to_string(i));
        frame.timestamp = stamps[i];
        stream.frames.push_back(std::move(frame));
        stream.sensors.push_back(tags[i]);
    }
    return stream;
}

/** RAII warn() capture: malformed-frame rejects are asserted on,
 * not printed into the test log. */
class WarningCapture
{
  public:
    WarningCapture()
    {
        previous = setLogSink(
            [this](LogLevel level, const std::string &msg) {
                if (level == LogLevel::Warn)
                    lines.push_back(msg);
            });
    }
    ~WarningCapture() { setLogSink(previous); }

    std::vector<std::string> lines;

  private:
    LogSink previous;
};

// ------------------------------------------------------ SensorStream

TEST(SensorStream, MergeInterleavesByTimestamp)
{
    const SensorStream stream = tinyLidarStream(2, 3);
    ASSERT_EQ(stream.size(), 6u);
    EXPECT_EQ(stream.sensorCount, 2u);
    for (std::size_t i = 1; i < stream.size(); ++i) {
        EXPECT_LT(stream.frames[i - 1].timestamp,
                  stream.frames[i].timestamp);
    }
    // Phase offsets interleave the two 10 Hz sensors s0,s1,s0,s1,...
    for (std::size_t i = 0; i < stream.size(); ++i)
        EXPECT_EQ(stream.sensors[i], i % 2);
    // Per-sensor extraction returns capture order.
    const std::vector<Frame> s1 = stream.framesOfSensor(1);
    ASSERT_EQ(s1.size(), 3u);
    for (std::size_t f = 1; f < s1.size(); ++f)
        EXPECT_LT(s1[f - 1].timestamp, s1[f].timestamp);
    EXPECT_NEAR(sensorGenerationFps(stream, 0), 10.0, 1e-9);
    EXPECT_NEAR(sensorGenerationFps(stream, 1), 10.0, 1e-9);
}

TEST(SensorStream, MergeRejectsSharedTimestamps)
{
    // Two same-rate sensors with no phase offset collide on every
    // stamp. Malformed capture data is recoverable: the colliding
    // frames are rejected per frame (warned + counted, with
    // actionable guidance) and the rest of the merge proceeds.
    std::vector<std::vector<Frame>> per_sensor(2);
    for (std::size_t s = 0; s < 2; ++s) {
        for (std::size_t f = 0; f < 2; ++f) {
            Frame frame;
            frame.name = std::string("s")
                             .append(std::to_string(s))
                             .append(".f")
                             .append(std::to_string(f));
            frame.timestamp = 0.1 * static_cast<double>(f);
            per_sensor[s].push_back(std::move(frame));
        }
    }
    WarningCapture capture;
    const SensorStream stream =
        mergeSensorStreams(std::move(per_sensor));
    // Sensor 0 wins every tie (first in selection order); sensor
    // 1's colliding frames are the ones rejected.
    ASSERT_EQ(stream.size(), 2u);
    EXPECT_EQ(stream.rejectedFrames, 2u);
    for (std::size_t i = 0; i < stream.size(); ++i)
        EXPECT_EQ(stream.sensors[i], 0u);
    ASSERT_EQ(capture.lines.size(), 2u);
    for (const std::string &line : capture.lines)
        EXPECT_NE(line.find("phase offsets"), std::string::npos)
            << line;
}

TEST(SensorStream, MergeOfNothingYieldsEmptyStream)
{
    // Degenerate inputs are valid, not fatal: no sensors at all,
    // and sensors that offered no frames.
    const SensorStream none = mergeSensorStreams({});
    EXPECT_EQ(none.size(), 0u);
    EXPECT_EQ(none.sensorCount, 0u);

    const SensorStream idle =
        mergeSensorStreams(std::vector<std::vector<Frame>>(3));
    EXPECT_EQ(idle.size(), 0u);
    EXPECT_EQ(idle.sensorCount, 3u);
    EXPECT_TRUE(idle.framesOfSensor(1).empty());
    // Placement over an empty stream is an empty assignment.
    EXPECT_TRUE(assignShards(idle, 2, PlacementPolicy::LeastLoaded,
                             {1.0, 1.0})
                    .empty());
}

TEST(SensorStream, SingleSensorMergeIsIdentity)
{
    std::vector<std::vector<Frame>> per_sensor(1);
    for (std::size_t f = 0; f < 3; ++f) {
        Frame frame;
        frame.name = std::string("f").append(std::to_string(f));
        frame.timestamp = 0.1 * static_cast<double>(f);
        per_sensor[0].push_back(std::move(frame));
    }
    const SensorStream stream =
        mergeSensorStreams(std::move(per_sensor));
    ASSERT_EQ(stream.size(), 3u);
    EXPECT_EQ(stream.sensorCount, 1u);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(stream.sensors[i], 0u);
        EXPECT_EQ(stream.frames[i].name,
                  std::string("f").append(std::to_string(i)));
    }
    EXPECT_NEAR(sensorGenerationFps(stream, 0), 10.0, 1e-9);
}

TEST(SensorStream, DuplicateTimestampWithinSensorIsRejected)
{
    // A sensor that repeats a stamp mid-sequence is a corrupt
    // capture log: the offending frame is rejected (warned +
    // counted), the well-formed frames around it survive.
    std::vector<std::vector<Frame>> per_sensor(1);
    for (const double t : {0.0, 0.1, 0.1, 0.2}) {
        Frame frame;
        frame.name =
            std::string("f").append(std::to_string(per_sensor[0].size()));
        frame.timestamp = t;
        per_sensor[0].push_back(std::move(frame));
    }
    WarningCapture capture;
    const SensorStream stream =
        mergeSensorStreams(std::move(per_sensor));
    ASSERT_EQ(stream.size(), 3u);
    EXPECT_EQ(stream.rejectedFrames, 1u);
    EXPECT_EQ(stream.frames[0].name, "f0");
    EXPECT_EQ(stream.frames[1].name, "f1");
    EXPECT_EQ(stream.frames[2].name, "f3");
    // The surviving interleave is strictly increasing again.
    for (std::size_t i = 1; i < stream.size(); ++i)
        EXPECT_LT(stream.frames[i - 1].timestamp,
                  stream.frames[i].timestamp);
    ASSERT_EQ(capture.lines.size(), 1u);
    EXPECT_NE(capture.lines[0].find("f2"), std::string::npos)
        << capture.lines[0];
    EXPECT_NE(capture.lines[0].find("strictly increasing"),
              std::string::npos)
        << capture.lines[0];
}

TEST(SensorStream, UnstampedSensorKeepsOnlyItsFirstFrame)
{
    // All-identical stamps read as "unstamped" (the non-LiDAR
    // generators leave 0.0). An unstamped sequence cannot take
    // part in a paced interleave: every frame after the first
    // fails to advance the sensor's clock and is rejected, with a
    // message about stamping — not phase offsets, which would not
    // fix a sensor that carries no timing at all.
    std::vector<std::vector<Frame>> per_sensor(1);
    for (std::size_t f = 0; f < 3; ++f) {
        Frame frame;
        frame.name = std::string("f").append(std::to_string(f));
        frame.timestamp = 0.0;
        per_sensor[0].push_back(std::move(frame));
    }
    WarningCapture capture;
    const SensorStream stream =
        mergeSensorStreams(std::move(per_sensor));
    ASSERT_EQ(stream.size(), 1u);
    EXPECT_EQ(stream.frames[0].name, "f0");
    EXPECT_EQ(stream.rejectedFrames, 2u);
    ASSERT_EQ(capture.lines.size(), 2u);
    for (const std::string &line : capture.lines) {
        EXPECT_NE(line.find("does not advance its timestamp"),
                  std::string::npos)
            << line;
        EXPECT_EQ(line.find("phase offsets"), std::string::npos)
            << line;
    }
}

// --------------------------------------------------------- Placement

TEST(Placement, RoundRobinCyclesShards)
{
    const SensorStream stream = stampedStream(
        {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}, {0, 1, 0, 1, 0, 1}, 2);
    const auto assignment =
        assignShards(stream, 3, PlacementPolicy::RoundRobin);
    const std::vector<std::size_t> expect = {0, 1, 2, 0, 1, 2};
    EXPECT_EQ(assignment, expect);
}

TEST(Placement, HashBySensorPinsEachSensorToOneShard)
{
    const SensorStream stream = tinyLidarStream(4, 3);
    const auto assignment =
        assignShards(stream, 3, PlacementPolicy::HashBySensor);
    std::vector<std::size_t> shard_of(stream.sensorCount,
                                      std::size_t(-1));
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const std::size_t sensor = stream.sensors[i];
        if (shard_of[sensor] == std::size_t(-1))
            shard_of[sensor] = assignment[i];
        EXPECT_EQ(assignment[i], shard_of[sensor])
            << "sensor " << sensor << " split across shards";
    }
    // Deterministic: same stream, same placement.
    EXPECT_EQ(assignment,
              assignShards(stream, 3, PlacementPolicy::HashBySensor));
}

TEST(Placement, LeastLoadedJoinsShortestQueue)
{
    // One serial server per shard, 1 s assumed service: backlogs
    // alternate until t=2.5, by which time both shards drained.
    const SensorStream stream = stampedStream(
        {0.0, 0.1, 0.2, 0.3, 2.5}, {0, 0, 0, 0, 0}, 1);
    const auto assignment = assignShards(
        stream, 2, PlacementPolicy::LeastLoaded, {1.0, 1.0});
    const std::vector<std::size_t> expect = {0, 1, 0, 1, 0};
    EXPECT_EQ(assignment, expect);
}

// ----------------------------------------------------- ShardedRunner

TEST(ShardedRunner, ShardReplicasMatchSingleSystemResults)
{
    // Identically-seeded shard replicas: which shard serves a frame
    // never changes its functional output.
    const SensorStream stream = tinyLidarStream(2, 2);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());

    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.placement = PlacementPolicy::RoundRobin;
    ShardedRunner runner(cfg, tinyClassifier(), sc);
    const ServingResult served = runner.serve(stream);
    ASSERT_EQ(served.frames.size(), stream.size());

    for (const ServedFrame &sf : served.frames) {
        const E2eResult serial =
            system.processFrame(stream.frames[sf.globalIndex].cloud);
        EXPECT_EQ(sf.result.inference.output.labels,
                  serial.inference.output.labels);
        EXPECT_DOUBLE_EQ(sf.result.totalSec(), serial.totalSec());
        EXPECT_EQ(sf.sensor, stream.sensors[sf.globalIndex]);
    }
}

TEST(ShardedRunner, PerSensorOrderPreservedUnderHashAffinity)
{
    const SensorStream stream = tinyLidarStream(3, 4);
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.placement = PlacementPolicy::HashBySensor;
    ShardedRunner runner(cfg, tinyClassifier(), sc);
    const ServingResult served = runner.serve(stream);
    ASSERT_EQ(served.frames.size(), stream.size());

    // Affinity pins each sensor to one shard...
    for (const SensorServingReport &sr : served.report.sensors)
        EXPECT_EQ(sr.shardSpread, 1u);
    // ...so each sensor's frames complete in capture order on the
    // global timeline (served.frames is completion-ordered).
    std::vector<std::size_t> next(stream.sensorCount, 0);
    for (const ServedFrame &sf : served.frames) {
        EXPECT_EQ(sf.sensorIndex, next[sf.sensor])
            << "sensor " << sf.sensor
            << " completed out of capture order";
        ++next[sf.sensor];
    }
}

TEST(ShardedRunner, AggregateThroughputScalesWithShards)
{
    // Batch admission measures machine capacity: two shards process
    // two halves of the stream on independent virtual clocks, so
    // aggregate sustained FPS must scale (acceptance: >= 1.5x).
    const SensorStream stream = tinyLidarStream(4, 4);
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.placement = PlacementPolicy::RoundRobin;
    sc.runner.paceBySensor = false;

    sc.shards = 1;
    ShardedRunner one(cfg, tinyClassifier(), sc);
    sc.shards = 2;
    ShardedRunner two(cfg, tinyClassifier(), sc);

    const ServingResult r1 = one.serve(stream);
    const ServingResult r2 = two.serve(stream);
    ASSERT_EQ(r1.report.framesProcessed, stream.size());
    ASSERT_EQ(r2.report.framesProcessed, stream.size());
    EXPECT_GE(r2.report.sustainedFps,
              1.5 * r1.report.sustainedFps)
        << "2 shards: " << r2.report.sustainedFps << " FPS vs 1: "
        << r1.report.sustainedFps << " FPS";
    // Batch serves race no sensor: verdicts are n/a everywhere.
    EXPECT_FALSE(r2.report.paced);
    for (const SensorServingReport &sr : r2.report.sensors)
        EXPECT_EQ(sr.realTime, RealTimeVerdict::NotApplicable);
}

TEST(ShardedRunner, PacedServeYieldsPerSensorVerdicts)
{
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.placement = PlacementPolicy::HashBySensor;

    // 10 Hz sensors: the tiny model keeps up easily -> YES.
    ShardedRunner runner(cfg, tinyClassifier(), sc);
    const ServingResult ok = runner.serve(tinyLidarStream(2, 3));
    ASSERT_EQ(ok.report.sensors.size(), 2u);
    for (const SensorServingReport &sr : ok.report.sensors) {
        EXPECT_NEAR(sr.generationFps, 10.0, 0.5);
        EXPECT_EQ(sr.realTime, RealTimeVerdict::Yes);
    }

    // 5 kHz sensors: far beyond the modeled hardware -> NO, not a
    // vacuous YES.
    const ServingResult behind =
        runner.serve(tinyLidarStream(2, 3, /*rate=*/5000.0));
    for (const SensorServingReport &sr : behind.report.sensors) {
        EXPECT_GT(sr.generationFps, 1000.0);
        EXPECT_EQ(sr.realTime, RealTimeVerdict::No);
    }
}

TEST(ShardedRunner, ReportMergeArithmetic)
{
    // Synthetic shard outcomes: the merge is pure arithmetic, so
    // every aggregate number is checkable by hand.
    const SensorStream stream = stampedStream(
        {0.0, 0.1, 0.2, 0.3}, {0, 1, 0, 1}, 2);

    std::vector<ShardOutcome> outcomes(2);
    auto fill = [](ShardOutcome &oc, double anchor,
                   std::vector<std::size_t> gidx,
                   std::vector<double> lat,
                   std::vector<double> done) {
        oc.anchorSec = anchor;
        oc.globalIndex = std::move(gidx);
        RuntimeReport &rep = oc.result.report;
        rep.framesIn = oc.globalIndex.size();
        rep.framesProcessed = oc.globalIndex.size();
        rep.paced = true;
        for (std::size_t i = 0; i < oc.globalIndex.size(); ++i) {
            ProcessedFrame pf;
            pf.index = i;
            pf.latencySec = lat[i];
            pf.doneSec = done[i];
            oc.result.frames.push_back(std::move(pf));
        }
    };
    // Shard 0 serves sensor 0 (globals 0,2), clock anchored at 0.0;
    // shard 1 serves sensor 1 (globals 1,3), anchored at 0.1.
    fill(outcomes[0], 0.0, {0, 2}, {0.05, 0.05}, {0.05, 0.25});
    fill(outcomes[1], 0.1, {1, 3}, {0.06, 0.04}, {0.06, 0.24});

    const ServingResult merged = mergeShardOutcomes(
        stream, std::move(outcomes), PlacementPolicy::HashBySensor);
    const ServingReport &rep = merged.report;

    EXPECT_EQ(rep.framesIn, 4u);
    EXPECT_EQ(rep.framesProcessed, 4u);
    EXPECT_TRUE(rep.paced);
    // Last completion: shard 1 frame 1 at 0.1 + 0.24 = 0.34.
    EXPECT_NEAR(rep.makespanSec, 0.34, 1e-12);
    EXPECT_NEAR(rep.sustainedFps, 4.0 / 0.34, 1e-9);
    // Merged latencies sorted: .04 .05 .05 .06.
    EXPECT_DOUBLE_EQ(rep.p50LatencySec, 0.05);
    EXPECT_DOUBLE_EQ(rep.p95LatencySec, 0.06);
    EXPECT_DOUBLE_EQ(rep.maxLatencySec, 0.06);
    EXPECT_NEAR(rep.meanLatencySec, 0.05, 1e-12);

    // Completion order across shard clocks: 0.05, 0.16, 0.25, 0.34.
    ASSERT_EQ(merged.frames.size(), 4u);
    const std::vector<std::size_t> order = {0, 1, 2, 3};
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(merged.frames[i].globalIndex, order[i]);

    // Per-sensor slices: both sensors at (n-1)/span = 5 FPS, served
    // faster than offered.
    ASSERT_EQ(rep.sensors.size(), 2u);
    EXPECT_DOUBLE_EQ(rep.sensors[0].generationFps, 5.0);
    EXPECT_DOUBLE_EQ(rep.sensors[0].sustainedFps, 2.0 / 0.25);
    EXPECT_EQ(rep.sensors[0].realTime, RealTimeVerdict::Yes);
    EXPECT_DOUBLE_EQ(rep.sensors[1].generationFps, 5.0);
    EXPECT_NEAR(rep.sensors[1].sustainedFps, 2.0 / 0.24, 1e-9);
    EXPECT_EQ(rep.sensors[1].realTime, RealTimeVerdict::Yes);
    EXPECT_EQ(rep.sensors[0].shardSpread, 1u);
    EXPECT_EQ(rep.sensors[1].shardSpread, 1u);
}

TEST(ShardedRunner, MidStreamShardStopTruncatesOnlyThatShard)
{
    const SensorStream stream = tinyLidarStream(2, 20);
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.placement = PlacementPolicy::RoundRobin;
    sc.runner.queueCapacity = 2;
    ShardedRunner runner(cfg, tinyClassifier(), sc);

    std::atomic<bool> stop_sent{false};
    const ServingResult served = runner.serve(
        stream, [&](std::size_t shard, const FrameTask &) {
            if (shard == 1 && !stop_sent.exchange(true))
                runner.requestStopShard(1);
        });

    const RuntimeReport &healthy = served.report.shardReports[0];
    const RuntimeReport &stopped = served.report.shardReports[1];
    // The untouched shard drains its whole sub-stream.
    EXPECT_EQ(healthy.framesProcessed, healthy.framesIn);
    EXPECT_EQ(healthy.framesAbandoned, 0u);
    // The stopped shard truncates; nothing is double-counted.
    EXPECT_GT(stopped.framesAbandoned, 0u);
    EXPECT_EQ(stopped.framesProcessed + stopped.framesDropped +
                  stopped.framesAbandoned,
              stopped.framesIn);
    EXPECT_EQ(served.report.framesProcessed +
                  served.report.framesDropped +
                  served.report.framesAbandoned,
              served.report.framesIn);

    // Restart contract: the same fleet serves fully afterwards.
    const ServingResult again = runner.serve(stream);
    EXPECT_EQ(again.report.framesProcessed, stream.size());
    EXPECT_EQ(again.report.framesAbandoned, 0u);
}

TEST(ShardedRunner, EmptyStreamYieldsEmptyReport)
{
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    ShardedRunner runner(cfg, tinyClassifier(), sc);
    const ServingResult served = runner.serve(SensorStream{});
    EXPECT_EQ(served.report.framesIn, 0u);
    EXPECT_TRUE(served.frames.empty());
    EXPECT_EQ(served.report.shardReports.size(), 2u);
}

// ------------------------------------------------ full-report digests

// Every field of each report and every served frame's placement and
// schedule, FNV-1a over the bits (tests/report_digest.h). Recorded
// before the two serving merges were folded onto shared slice
// helpers; a merge refactor must leave every one unchanged. The
// metrics digests pin each run's MetricsSnapshot the same way
// (counters at 0 skipped), and the fault-free runs must tally no
// failed, retried or degraded frame. Re-pinned when the stream's
// carry stopped building raw-cloud KNN and occupancy indices: the
// KNN hit rate reads -1 and no temporal.knn.* / temporal.occ.*
// counter is set; the old code gives the new values once those are
// dropped from the digest, so no other field moved.

TEST(ServingDigest, HashBySensorServe)
{
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.placement = PlacementPolicy::HashBySensor;
    ShardedRunner runner(cfg, tinyClassifier(), sc);
    const ServingResult served = runner.serve(tinyLidarStream(3, 4));
    ASSERT_EQ(served.report.framesProcessed, 12u);
    EXPECT_EQ(digest::servingDigest(served), 0x9669c24c1c2c48e5ull);
    EXPECT_EQ(digest::metricsDigest(served.metrics),
              0xcf9dd224050b1787ull);
    EXPECT_EQ(served.metrics.countOf("frames.failed"), 0u);
    EXPECT_EQ(served.metrics.countOf("frames.retried"), 0u);
    EXPECT_EQ(served.metrics.countOf("frames.degraded"), 0u);
}

TEST(ServingDigest, LeastLoadedMixedFleetServe)
{
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.placement = PlacementPolicy::LeastLoaded;
    sc.backends = {"hgpcn", "mesorasi"};
    sc.runner.maxBatch = 2;
    ShardedRunner runner(cfg, tinyClassifier(), sc);
    const ServingResult served =
        runner.serve(tinyLidarStream(4, 3, /*rate=*/1000.0));
    ASSERT_EQ(served.report.backends.size(), 2u);
    ASSERT_GT(served.report.backends[1].framesDone, 0u);
    EXPECT_EQ(digest::servingDigest(served), 0xb9f78164768f35d7ull);
    EXPECT_EQ(digest::metricsDigest(served.metrics),
              0xf8250742315f2260ull);
    EXPECT_EQ(served.metrics.countOf("frames.failed"), 0u);
    EXPECT_EQ(served.metrics.countOf("frames.retried"), 0u);
    EXPECT_EQ(served.metrics.countOf("frames.degraded"), 0u);
}

TEST(ServingDigest, FaultedServe)
{
    FaultPlan::Config plan_cfg;
    plan_cfg.seed = 5;
    plan_cfg.crashes.push_back({1, 0.1, 0.3});
    plan_cfg.errors.push_back({"", 0.45, 0.0, 1e9});
    const FaultPlan plan(plan_cfg);

    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.placement = PlacementPolicy::HashBySensor;
    sc.faultPlan = &plan;
    sc.faultTolerance.maxAttempts = 2;
    sc.faultTolerance.breaker.failureThreshold = 1000;
    ShardedRunner runner(cfg, tinyClassifier(), sc);
    const ServingResult served = runner.serve(tinyLidarStream(4, 6));
    ASSERT_GT(served.report.framesFailed, 0u);
    ASSERT_GT(served.report.framesRetried, 0u);
    EXPECT_EQ(digest::servingDigest(served), 0xa3c5646414da0f3cull);
    EXPECT_EQ(digest::metricsDigest(served.metrics),
              0xf3c4bb6adb98c2b7ull);
}

TEST(RuntimeDigest, BatchRun)
{
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.paceBySensor = false;
    const RuntimeResult rt = system.runStream(
        tinyLidarStream(1, 12).framesOfSensor(0), rc);
    ASSERT_EQ(rt.report.framesProcessed, 12u);
    EXPECT_EQ(digest::runtimeDigest(rt), 0x4fec62114088b87aull);
    EXPECT_EQ(digest::metricsDigest(rt.metrics),
              0x42494a947563d040ull);
    EXPECT_EQ(rt.metrics.countOf("frames.failed"), 0u);
    EXPECT_EQ(rt.metrics.countOf("frames.retried"), 0u);
    EXPECT_EQ(rt.metrics.countOf("frames.degraded"), 0u);
}

TEST(RuntimeDigest, PacedRun)
{
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    const RuntimeResult rt = system.runStream(
        tinyLidarStream(1, 6, /*rate=*/200.0).framesOfSensor(0),
        StreamRunner::Config{});
    ASSERT_TRUE(rt.report.paced);
    EXPECT_EQ(digest::runtimeDigest(rt), 0xc2370ec0173565b2ull);
    EXPECT_EQ(digest::metricsDigest(rt.metrics),
              0xa5bfeadfc4aacda6ull);
    EXPECT_EQ(rt.metrics.countOf("frames.failed"), 0u);
    EXPECT_EQ(rt.metrics.countOf("frames.retried"), 0u);
    EXPECT_EQ(rt.metrics.countOf("frames.degraded"), 0u);
}

// ------------------------------------------- temporal carry in runners

/** Frames of one coherent drive: 1 % churn, so every frame after the
 * first aligns with the carry. */
std::vector<Frame>
coherentFrames(std::size_t count)
{
    CoherentDrive::Config dc;
    dc.points = 1200;
    dc.churnFraction = 0.01;
    dc.seed = 29;
    const CoherentDrive drive(dc);
    std::vector<Frame> frames;
    for (std::size_t t = 0; t < count; ++t)
        frames.push_back(drive.generate(t));
    return frames;
}

/** A runner's carry updated the octree incrementally after the first
 * frame and built no raw-cloud KNN buckets or occupancy list. */
void
expectOctreeOnlyCarry(const MetricsSnapshot &m, std::size_t frames)
{
    EXPECT_EQ(m.countOf("temporal.frames"), frames);
    EXPECT_EQ(m.countOf("temporal.octree.hits"), frames - 1);
    for (const char *name :
         {"temporal.knn.incremental", "temporal.knn.scratch",
          "temporal.occ.incremental", "temporal.occ.scratch"})
        EXPECT_EQ(m.countOf(name), 0u) << name;
}

/** Labels and Sampled-Points-Table of a frame against its oracle. */
void
expectSameOutputs(const E2eResult &got, const E2eResult &oracle,
                  std::size_t frame)
{
    EXPECT_EQ(got.preprocess.spt, oracle.preprocess.spt) << "frame " << frame;
    EXPECT_EQ(got.inference.output.labels, oracle.inference.output.labels)
        << "frame " << frame;
}

TEST(TemporalCarry, StreamRunnerBuildsOnlyTheOctree)
{
    const std::vector<Frame> frames = coherentFrames(6);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.paceBySensor = false;
    const RuntimeResult cached = system.runStream(frames, rc);
    rc.temporalCache = false;
    const RuntimeResult oracle = system.runStream(frames, rc);

    expectOctreeOnlyCarry(cached.metrics, frames.size());
    EXPECT_GT(cached.report.temporalSubtreeReusePct, 0.0);
    EXPECT_EQ(cached.report.temporalKnnHitPct, -1.0);
    ASSERT_EQ(cached.frames.size(), frames.size());
    ASSERT_EQ(oracle.frames.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
        ASSERT_EQ(cached.frames[i].index, oracle.frames[i].index);
        expectSameOutputs(cached.frames[i].result, oracle.frames[i].result,
                          cached.frames[i].index);
    }
}

TEST(TemporalCarry, ShardedRunnerBuildsOnlyTheOctree)
{
    const SensorStream stream = mergeSensorStreams({coherentFrames(6)});
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 1;
    sc.runner.paceBySensor = false;
    ShardedRunner cached_fleet(cfg, tinyClassifier(), sc);
    const ServingResult cached = cached_fleet.serve(stream);
    sc.runner.temporalCache = false;
    ShardedRunner oracle_fleet(cfg, tinyClassifier(), sc);
    const ServingResult oracle = oracle_fleet.serve(stream);

    expectOctreeOnlyCarry(cached.metrics, stream.size());
    ASSERT_EQ(cached.frames.size(), stream.size());
    ASSERT_EQ(oracle.frames.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        ASSERT_EQ(cached.frames[i].globalIndex, oracle.frames[i].globalIndex);
        expectSameOutputs(cached.frames[i].result, oracle.frames[i].result,
                          cached.frames[i].globalIndex);
    }
}

} // namespace
} // namespace hgpcn
