/**
 * @file
 * Tests for the elastic serving layer: the autoscaler state
 * machine (hand-computed hysteresis/cooldown transitions),
 * admission-control shed sets, the epoch report-merge arithmetic,
 * the seeded traffic generator, deterministic replay of a full
 * elastic serve, per-sensor ordering across scale events and the
 * ShardedRunner resize/stop regression paths. The concurrency
 * cases run under ThreadSanitizer and AddressSanitizer in CI
 * (.github/workflows/ci.yml).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/hgpcn_system.h"
#include "datasets/sensor_stream.h"
#include "datasets/traffic_gen.h"
#include "serving/admission.h"
#include "serving/autoscaler.h"
#include "serving/serving_report.h"
#include "serving/sharded_runner.h"

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

/** Random cloud with enough points for the tiny classifier. */
Frame
tinyFrame(double stamp, std::uint64_t seed)
{
    Frame frame;
    frame.timestamp = stamp;
    Rng rng(seed);
    frame.cloud.reserve(300);
    for (std::size_t p = 0; p < 300; ++p) {
        frame.cloud.add({rng.uniform(0.0f, 10.0f),
                         rng.uniform(0.0f, 10.0f),
                         rng.uniform(0.0f, 3.0f)});
    }
    return frame;
}

/**
 * Stream with a per-epoch frame count per sensor: epoch e emits
 * framesPerEpoch[e] frames for *each* sensor, evenly spaced, with
 * per-sensor phase offsets keeping stamps distinct.
 */
SensorStream
phasedStream(std::size_t sensors, double epoch_sec,
             const std::vector<std::size_t> &frames_per_epoch)
{
    std::vector<std::pair<double, std::size_t>> order;
    for (std::size_t e = 0; e < frames_per_epoch.size(); ++e) {
        for (std::size_t s = 0; s < sensors; ++s) {
            const std::size_t k = frames_per_epoch[e];
            for (std::size_t i = 0; i < k; ++i) {
                const double phase =
                    static_cast<double>(s + 1) /
                    static_cast<double>(sensors + 1);
                const double t =
                    epoch_sec *
                    (static_cast<double>(e) +
                     (static_cast<double>(i) + phase) /
                         static_cast<double>(k));
                order.push_back({t, s});
            }
        }
    }
    std::sort(order.begin(), order.end());
    SensorStream stream;
    stream.sensorCount = sensors;
    for (std::size_t i = 0; i < order.size(); ++i) {
        stream.frames.push_back(
            tinyFrame(order[i].first, 77 + i));
        stream.sensors.push_back(order[i].second);
    }
    return stream;
}

EpochSignals
signals(std::size_t shards, double util, double offered = 0.0,
        double sustained = 0.0, std::size_t backlog = 0)
{
    EpochSignals sig;
    sig.activeShards = shards;
    sig.utilization = util;
    sig.offeredFps = offered;
    sig.sustainedFps = sustained;
    sig.backlogFrames = backlog;
    return sig;
}

// -------------------------------------------------------- Autoscaler

TEST(Autoscaler, ScalesUpOnUtilizationAfterHold)
{
    AutoscalerConfig cfg;
    cfg.minShards = 1;
    cfg.maxShards = 4;
    cfg.upHoldEpochs = 2;
    cfg.cooldownEpochs = 0;
    Autoscaler scaler(cfg);

    // First overloaded epoch: 1/2 — hold.
    ScaleDecision d = scaler.step(signals(2, 0.90));
    EXPECT_EQ(d.action, ScaleAction::Hold);
    EXPECT_EQ(d.shards, 2u);
    // Second consecutive: fire.
    d = scaler.step(signals(2, 0.95));
    EXPECT_EQ(d.action, ScaleAction::Up);
    EXPECT_EQ(d.shards, 3u);
    // Counters reset by the action: next overloaded epoch is 1/2.
    d = scaler.step(signals(3, 0.95));
    EXPECT_EQ(d.action, ScaleAction::Hold);
}

TEST(Autoscaler, CooldownBlocksButAccumulates)
{
    AutoscalerConfig cfg;
    cfg.maxShards = 8;
    cfg.upHoldEpochs = 1;
    cfg.cooldownEpochs = 2;
    Autoscaler scaler(cfg);

    ScaleDecision d = scaler.step(signals(1, 0.95));
    EXPECT_EQ(d.action, ScaleAction::Up);
    EXPECT_EQ(d.shards, 2u);
    // Two cooldown boundaries pass with no action...
    d = scaler.step(signals(2, 0.95));
    EXPECT_EQ(d.action, ScaleAction::Hold);
    EXPECT_EQ(d.reason, "cooldown");
    d = scaler.step(signals(2, 0.95));
    EXPECT_EQ(d.action, ScaleAction::Hold);
    EXPECT_EQ(d.reason, "cooldown");
    // ...but the overload counter accumulated through them, so the
    // next boundary acts immediately.
    d = scaler.step(signals(2, 0.95));
    EXPECT_EQ(d.action, ScaleAction::Up);
    EXPECT_EQ(d.shards, 3u);
}

TEST(Autoscaler, ScaleDownNeedsConsecutiveUnderload)
{
    AutoscalerConfig cfg;
    cfg.minShards = 1;
    cfg.downHoldEpochs = 2;
    cfg.cooldownEpochs = 0;
    Autoscaler scaler(cfg);

    ScaleDecision d = scaler.step(signals(3, 0.10));
    EXPECT_EQ(d.action, ScaleAction::Hold);
    // A steady epoch (between the thresholds) resets the counter.
    d = scaler.step(signals(3, 0.50));
    EXPECT_EQ(d.action, ScaleAction::Hold);
    EXPECT_EQ(d.reason, "steady");
    d = scaler.step(signals(3, 0.10));
    EXPECT_EQ(d.action, ScaleAction::Hold);
    d = scaler.step(signals(3, 0.10));
    EXPECT_EQ(d.action, ScaleAction::Down);
    EXPECT_EQ(d.shards, 2u);
}

TEST(Autoscaler, BacklogAndFallingBehindCountAsOverload)
{
    AutoscalerConfig cfg;
    cfg.upHoldEpochs = 1;
    cfg.cooldownEpochs = 0;
    cfg.behindTolerance = 0.05;

    // Backlog alone, at low occupancy: 9 > 4 per-shard tolerance.
    // (3 in-flight frames would be normal pipeline depth — Hold.)
    Autoscaler a(cfg);
    ScaleDecision d = a.step(signals(1, 0.50, 10.0, 10.0, 9));
    EXPECT_EQ(d.action, ScaleAction::Up);
    Autoscaler a2(cfg);
    d = a2.step(signals(1, 0.50, 10.0, 10.0, 3));
    EXPECT_EQ(d.action, ScaleAction::Hold);

    // Falling behind alone: sustained 9 < offered 10 * 0.95.
    Autoscaler b(cfg);
    d = b.step(signals(1, 0.20, 10.0, 9.0));
    EXPECT_EQ(d.action, ScaleAction::Up);

    // Within tolerance: sustained 9.6 >= 9.5 — not overloaded, and
    // util 0.20 < 0.35 makes it underloaded instead.
    Autoscaler c(cfg);
    d = c.step(signals(1, 0.20, 10.0, 9.6));
    EXPECT_EQ(d.action, ScaleAction::Hold);
    EXPECT_EQ(d.reason, "underloaded 1/2");
}

TEST(Autoscaler, ClampsAtFleetBounds)
{
    AutoscalerConfig cfg;
    cfg.minShards = 2;
    cfg.maxShards = 3;
    cfg.upHoldEpochs = 1;
    cfg.downHoldEpochs = 1;
    cfg.cooldownEpochs = 0;
    Autoscaler scaler(cfg);

    ScaleDecision d = scaler.step(signals(3, 0.95));
    EXPECT_EQ(d.action, ScaleAction::Hold);
    EXPECT_EQ(d.reason, "overloaded at maxShards");
    d = scaler.step(signals(2, 0.05));
    EXPECT_EQ(d.action, ScaleAction::Hold);
    EXPECT_EQ(d.reason, "underloaded at minShards");
    // upStep larger than the remaining room clamps to maxShards.
    AutoscalerConfig wide = cfg;
    wide.upStep = 5;
    Autoscaler w(wide);
    d = w.step(signals(2, 0.95));
    EXPECT_EQ(d.action, ScaleAction::Up);
    EXPECT_EQ(d.shards, 3u);
}

// --------------------------------------------------------- Admission

TEST(Admission, AdmitsEverythingUnderCapacity)
{
    AdmissionConfig cfg;
    cfg.headroom = 0.9;
    const ShedDecision d = decideAdmission(
        {2.0, 3.0, 1.0}, {}, 10.0, cfg);
    EXPECT_TRUE(d.shedSensors.empty());
    EXPECT_EQ(d.admitted, std::vector<bool>({true, true, true}));
    EXPECT_DOUBLE_EQ(d.admittedFps, 6.0);
    EXPECT_DOUBLE_EQ(d.shedFps, 0.0);
}

TEST(Admission, ShedsLowestPriorityFirstThenHighestId)
{
    AdmissionConfig cfg;
    cfg.headroom = 1.0;
    // Four 1-fps sensors, priorities 1,0,0,2; capacity 2 fps.
    // Shed order: tier 0 highest id first (2), then (1); load now
    // fits (2 <= 2), so the tier-1 sensor survives.
    const ShedDecision d = decideAdmission(
        {1.0, 1.0, 1.0, 1.0}, {1, 0, 0, 2}, 2.0, cfg);
    EXPECT_EQ(d.shedSensors,
              std::vector<std::size_t>({1, 2}));
    EXPECT_EQ(d.admitted,
              std::vector<bool>({true, false, false, true}));
    EXPECT_DOUBLE_EQ(d.admittedFps, 2.0);
    EXPECT_DOUBLE_EQ(d.shedFps, 2.0);
}

TEST(Admission, KeepsAtLeastOneLoadedSensor)
{
    AdmissionConfig cfg;
    // Zero capacity: everything would shed — the survivor is the
    // last in shed order: highest priority, lowest id within it.
    const ShedDecision d = decideAdmission(
        {1.0, 1.0, 1.0}, {0, 2, 2}, 0.0, cfg);
    EXPECT_EQ(d.shedSensors, std::vector<std::size_t>({0, 2}));
    EXPECT_EQ(d.admitted,
              std::vector<bool>({false, true, false}));
}

TEST(Admission, IdleSensorsNeverShed)
{
    AdmissionConfig cfg;
    // Sensors 0 and 2 are idle: shedding them frees nothing, so
    // they stay admitted even at zero capacity.
    const ShedDecision d = decideAdmission(
        {0.0, 5.0, 0.0, 5.0}, {}, 0.0, cfg);
    EXPECT_EQ(d.shedSensors, std::vector<std::size_t>({3}));
    EXPECT_EQ(d.admitted,
              std::vector<bool>({true, true, true, false}));
}

TEST(Admission, DisabledAdmitsEverything)
{
    AdmissionConfig cfg;
    cfg.enabled = false;
    const ShedDecision d = decideAdmission(
        {9.0, 9.0}, {}, 1.0, cfg);
    EXPECT_TRUE(d.shedSensors.empty());
    EXPECT_DOUBLE_EQ(d.admittedFps, 18.0);
}

// --------------------------------------------- mergeEpochResults

/** Hand-built two-epoch merge: 5 frames, 2 sensors, a completion
 * straddling the epoch boundary (backlog), one cross-epoch
 * out-of-order completion (exercises the in-order clamp) and one
 * shed frame. */
TEST(EpochMerge, HandComputedArithmetic)
{
    SensorStream stream;
    stream.sensorCount = 2;
    const double stamps[] = {0.1, 0.2, 1.1, 1.15, 1.3};
    const std::size_t tags[] = {0, 1, 0, 1, 0};
    for (std::size_t i = 0; i < 5; ++i) {
        Frame frame;
        frame.name = std::string("f").append(std::to_string(i));
        frame.timestamp = stamps[i];
        stream.frames.push_back(std::move(frame));
        stream.sensors.push_back(tags[i]);
    }

    auto served = [](std::size_t local, std::size_t shard,
                     double done, double lat) {
        ServedFrame sf;
        sf.globalIndex = local;
        sf.shard = shard;
        sf.doneSec = done;
        sf.latencySec = lat;
        return sf;
    };

    std::vector<EpochOutcome> epochs(2);
    // Epoch 0 [0,1): frames 0,1 on shard 0; frame 1 completes at
    // 1.5 — past the boundary.
    epochs[0].startSec = 0.0;
    epochs[0].endSec = 1.0;
    epochs[0].activeShards = 1;
    epochs[0].globalIndex = {0, 1};
    epochs[0].result.frames = {served(0, 0, 0.5, 0.4),
                               served(1, 0, 1.5, 1.3)};
    {
        ServingReport &r = epochs[0].result.report;
        r.framesIn = 2;
        r.framesProcessed = 2;
        r.paced = true;
        r.shardReports.resize(1);
        r.shardReports[0].framesIn = 2;
        r.shardReports[0].framesProcessed = 2;
        r.shardReports[0].makespanSec = 1.4;
        // Batch occupancy: 2 dispatches (one of 3, one solo).
        r.shardReports[0].configuredMaxBatch = 4;
        r.shardReports[0].batchCount = 2;
        r.shardReports[0].batchedFrames = 3;
        r.shardReports[0].soloFrames = 1;
        r.shardReports[0].meanBatchSize = 2.0;
        r.shardReports[0].maxBatchSize = 3;
    }
    // Epoch 1 [1,2): frames 2 (s0, shard 0) and 3 (s1, shard 1)
    // admitted, frame 4 (s0) shed. Frame 3 completes at 1.2 —
    // *before* sensor 1's epoch-0 frame finished at 1.5.
    epochs[1].startSec = 1.0;
    epochs[1].endSec = 2.0;
    epochs[1].activeShards = 2;
    epochs[1].globalIndex = {2, 3};
    epochs[1].shedGlobalIndex = {4};
    epochs[1].result.frames = {served(0, 0, 1.4, 0.3),
                               served(1, 1, 1.2, 0.1)};
    {
        ServingReport &r = epochs[1].result.report;
        r.framesIn = 2;
        r.framesProcessed = 2;
        r.paced = true;
        r.shardReports.resize(2);
        r.shardReports[0].framesIn = 1;
        r.shardReports[0].framesProcessed = 1;
        r.shardReports[0].makespanSec = 0.3;
        r.shardReports[0].configuredMaxBatch = 4;
        r.shardReports[0].batchCount = 1;
        r.shardReports[0].soloFrames = 1;
        r.shardReports[0].meanBatchSize = 1.0;
        r.shardReports[0].maxBatchSize = 1;
        r.shardReports[1].framesIn = 1;
        r.shardReports[1].framesProcessed = 1;
        r.shardReports[1].makespanSec = 0.1;
    }

    const ServingResult out = mergeEpochResults(
        stream, std::move(epochs), PlacementPolicy::HashBySensor,
        {"hgpcn", "hgpcn"});
    const ServingReport &rep = out.report;

    // Conservation: 5 = 4 processed + 1 shed.
    EXPECT_EQ(rep.framesIn, 5u);
    EXPECT_EQ(rep.framesProcessed, 4u);
    EXPECT_EQ(rep.framesDropped, 0u);
    EXPECT_EQ(rep.framesAbandoned, 0u);
    EXPECT_EQ(rep.framesShed, 1u);
    EXPECT_EQ(rep.shardCount, 2u);
    EXPECT_TRUE(rep.paced);

    // The in-order clamp: sensor 1's epoch-1 frame cannot deliver
    // before its epoch-0 predecessor (1.5); the wait joins its
    // latency (0.1 + 0.3).
    ASSERT_EQ(out.frames.size(), 4u);
    const ServedFrame *g3 = nullptr;
    for (const ServedFrame &sf : out.frames) {
        if (sf.globalIndex == 3)
            g3 = &sf;
    }
    ASSERT_NE(g3, nullptr);
    EXPECT_DOUBLE_EQ(g3->doneSec, 1.5);
    EXPECT_DOUBLE_EQ(g3->latencySec, 0.4);
    EXPECT_EQ(g3->sensor, 1u);
    EXPECT_EQ(g3->sensorIndex, 1u);

    // Global completion order: ties on doneSec break by stream
    // position (frame 1 at 1.5 precedes frame 3 at 1.5).
    EXPECT_EQ(out.frames[0].globalIndex, 0u);
    EXPECT_EQ(out.frames[1].globalIndex, 2u);
    EXPECT_EQ(out.frames[2].globalIndex, 1u);
    EXPECT_EQ(out.frames[3].globalIndex, 3u);

    // Aggregate: makespan = first stamp 0.1 -> last delivery 1.5;
    // latencies {0.4, 1.3, 0.3, 0.4} -> p50 0.4, max 1.3.
    EXPECT_NEAR(rep.makespanSec, 1.4, 1e-12);
    EXPECT_NEAR(rep.sustainedFps, 4.0 / 1.4, 1e-12);
    EXPECT_DOUBLE_EQ(rep.p50LatencySec, 0.4);
    EXPECT_DOUBLE_EQ(rep.maxLatencySec, 1.3);

    // Per-shard aggregation across epochs: shard 0 served both
    // epochs (counts sum, spans sum), shard 1 only epoch 1.
    ASSERT_EQ(rep.shardReports.size(), 2u);
    EXPECT_EQ(rep.shardReports[0].framesProcessed, 3u);
    EXPECT_NEAR(rep.shardReports[0].makespanSec, 1.7, 1e-12);
    EXPECT_EQ(rep.shardReports[1].framesProcessed, 1u);

    // Batch occupancy of shard 0: counts sum, the peak and the cap
    // take the larger, and the mean is re-derived from the summed
    // counts (5 frames / 3 dispatches), not averaged (1.5).
    const RuntimeReport &s0 = rep.shardReports[0];
    EXPECT_EQ(s0.batchCount, 3u);
    EXPECT_EQ(s0.batchedFrames, 3u);
    EXPECT_EQ(s0.soloFrames, 2u);
    EXPECT_DOUBLE_EQ(s0.meanBatchSize, 5.0 / 3.0);
    EXPECT_EQ(s0.maxBatchSize, 3u);
    EXPECT_EQ(s0.configuredMaxBatch, 4u);

    // Per-sensor slices: shed is attributed to sensor 0.
    ASSERT_EQ(rep.sensors.size(), 2u);
    EXPECT_EQ(rep.sensors[0].framesIn, 3u);
    EXPECT_EQ(rep.sensors[0].framesDone, 2u);
    EXPECT_EQ(rep.sensors[0].framesMissed, 1u);
    EXPECT_EQ(rep.sensors[0].framesShed, 1u);
    EXPECT_EQ(rep.sensors[1].framesIn, 2u);
    EXPECT_EQ(rep.sensors[1].framesDone, 2u);
    EXPECT_EQ(rep.sensors[1].framesShed, 0u);

    // Per-backend view: one backend spanning both shards.
    ASSERT_EQ(rep.backends.size(), 1u);
    EXPECT_EQ(rep.backends[0].backend, "hgpcn");
    EXPECT_EQ(rep.backends[0].shards, 2u);
    EXPECT_EQ(rep.backends[0].framesDone, 4u);
}

// -------------------------------------------------------- TrafficGen

TEST(TrafficGen, DeterministicAndStrictlyIncreasing)
{
    TrafficGen::Config cfg;
    cfg.sensors = 8;
    cfg.durationSec = 3.0;
    cfg.baseRateHz = 5.0;
    cfg.rateJitter = 0.3;
    cfg.burstFactor = 3.0;
    cfg.diurnalAmplitude = 0.4;
    cfg.hotPlugFraction = 0.4;
    cfg.dropFraction = 0.3;
    cfg.priorityTiers = 3;
    cfg.cloudPoints = 32;
    cfg.seed = 42;
    const TrafficGen gen(cfg);

    const TrafficTrace a = gen.generate();
    const TrafficTrace b = gen.generate();
    ASSERT_GT(a.stream.size(), 0u);
    ASSERT_EQ(a.stream.size(), b.stream.size());
    for (std::size_t i = 0; i < a.stream.size(); ++i) {
        EXPECT_EQ(a.stream.frames[i].timestamp,
                  b.stream.frames[i].timestamp);
        EXPECT_EQ(a.stream.sensors[i], b.stream.sensors[i]);
        EXPECT_EQ(a.stream.frames[i].name,
                  b.stream.frames[i].name);
    }
    // Strict global monotonicity (hence per-sensor too).
    for (std::size_t i = 1; i < a.stream.size(); ++i) {
        EXPECT_LT(a.stream.frames[i - 1].timestamp,
                  a.stream.frames[i].timestamp);
    }
    // Churn windows honored (nudges move stamps forward <= 0.1 us
    // each; give them a millisecond of slack).
    for (std::size_t s = 0; s < cfg.sensors; ++s) {
        const std::vector<Frame> frames =
            a.stream.framesOfSensor(s);
        for (const Frame &frame : frames) {
            EXPECT_GE(frame.timestamp, gen.joinSecOf(s));
            EXPECT_LT(frame.timestamp,
                      gen.leaveSecOf(s) + 1e-3);
        }
    }
    // Priorities land in the configured tiers.
    for (std::size_t s = 0; s < cfg.sensors; ++s) {
        EXPECT_GE(a.priority[s], 0);
        EXPECT_LT(a.priority[s],
                  static_cast<int>(cfg.priorityTiers));
    }
}

TEST(TrafficGen, RateEnvelopeBoundsArrivalGaps)
{
    TrafficGen::Config cfg;
    cfg.sensors = 4;
    cfg.durationSec = 4.0;
    cfg.baseRateHz = 10.0;
    cfg.rateJitter = 0.2;
    cfg.burstFactor = 2.5;
    cfg.diurnalAmplitude = 0.3;
    cfg.cloudPoints = 16;
    cfg.seed = 7;
    const TrafficGen gen(cfg);
    const TrafficTrace trace = gen.generate();

    // rateAt stays inside the closed-form envelope when active.
    for (std::size_t s = 0; s < cfg.sensors; ++s) {
        for (double t = 0.05; t < cfg.durationSec; t += 0.31) {
            const double r = gen.rateAt(s, t);
            if (r > 0.0) {
                EXPECT_GE(r, gen.minRateHz() - 1e-12);
                EXPECT_LE(r, gen.maxRateHz() + 1e-12);
            }
        }
    }
    // Arrival gaps stay inside the jittered envelope.
    const double min_gap =
        (1.0 / gen.maxRateHz()) * (1.0 - cfg.rateJitter) - 1e-3;
    const double max_gap =
        (1.0 / gen.minRateHz()) * (1.0 + cfg.rateJitter) + 1e-3;
    for (std::size_t s = 0; s < cfg.sensors; ++s) {
        const std::vector<Frame> frames =
            trace.stream.framesOfSensor(s);
        for (std::size_t f = 1; f < frames.size(); ++f) {
            const double gap = frames[f].timestamp -
                               frames[f - 1].timestamp;
            EXPECT_GE(gap, min_gap);
            EXPECT_LE(gap, max_gap);
        }
    }
}

// ------------------------------------------- ShardedRunner elasticity

TEST(ShardedElastic, ResizeAndStopUseActiveCountNotConfig)
{
    HgPcnSystem::Config system;
    ShardedRunner::Config cfg;
    cfg.shards = 2;
    ShardedRunner runner(system, tinyClassifier(), cfg);
    EXPECT_EQ(runner.shardCount(), 2u);

    // Shrink below the construction-time count: the stop paths
    // must range over the *active* prefix (1 shard), not
    // Config::shards (2) — this was the regression.
    runner.setShardCount(1);
    EXPECT_EQ(runner.shardCount(), 1u);
    runner.requestStop();

    // Grow past the construction-time count and serve: new shards
    // are built on demand, and a pre-serve fleet stop belongs to
    // the serve it aborted, not this one.
    runner.setShardCount(4);
    EXPECT_EQ(runner.shardCount(), 4u);
    SensorStream stream = phasedStream(4, 1.0, {3});
    ServingResult out = runner.serve(stream);
    EXPECT_EQ(out.report.shardCount, 4u);
    EXPECT_EQ(out.report.framesProcessed, stream.size());
    EXPECT_EQ(out.report.framesAbandoned, 0u);

    // Per-shard stop on a grown shard index is valid...
    runner.requestStopShard(3);
    // ...and parking + reactivating it clears the latch: the next
    // serve processes everything.
    runner.setShardCount(2);
    runner.setShardCount(4);
    out = runner.serve(stream);
    EXPECT_EQ(out.report.framesProcessed, stream.size());
    EXPECT_EQ(out.report.framesAbandoned, 0u);

    // Out-of-range stop is fatal at the *active* bound.
    runner.setShardCount(2);
    EXPECT_DEATH(runner.requestStopShard(2), "out of range");
}

// ------------------------------------------------------ ElasticRunner

ElasticRunner::Config
tinyElasticConfig(double epoch_sec, std::size_t initial_shards)
{
    ElasticRunner::Config cfg;
    cfg.epochSec = epoch_sec;
    cfg.fleet.shards = initial_shards;
    cfg.autoscaler.minShards = 1;
    cfg.autoscaler.maxShards = 4;
    cfg.autoscaler.upHoldEpochs = 1;
    cfg.autoscaler.downHoldEpochs = 2;
    cfg.autoscaler.cooldownEpochs = 1;
    cfg.admission.enabled = false;
    return cfg;
}

TEST(ElasticRunner, ScaleEventsPreservePerSensorOrdering)
{
    HgPcnSystem::Config system;
    const PointNet2Spec spec = tinyClassifier();

    // Calibrate the traffic to the modeled service time so the
    // load pattern (2 heavy epochs, then 4 light) is
    // machine-independent: heavy epochs offer ~2x one shard's
    // modeled capacity, light epochs ~0.2x.
    ElasticRunner probe(system, spec,
                        tinyElasticConfig(1.0, 1));
    const double svc =
        probe.fleet().shardBackend(0).estimateServiceSec();
    ASSERT_GT(svc, 0.0);
    // 24 service-times per epoch; heavy epochs offer 24 frames per
    // sensor x 3 sensors = 3x one shard's modeled capacity (the
    // backlog signal fires no matter how the stages pipeline),
    // light epochs 3 frames total (~0.1x — underloaded).
    const double epoch_sec = 24.0 * svc;
    const std::size_t sensors = 3;
    const SensorStream stream = phasedStream(
        sensors, epoch_sec, {24, 24, 1, 1, 1, 1});

    ElasticRunner elastic(system, spec,
                          tinyElasticConfig(epoch_sec, 1));
    const ElasticResult result = elastic.serve(stream);

    // The overloaded prefix forces a scale-up, the idle tail a
    // scale-down.
    bool saw_up = false;
    bool saw_down = false;
    for (const ScaleEvent &event : result.events) {
        if (event.action == ScaleAction::Up)
            saw_up = true;
        if (event.action == ScaleAction::Down)
            saw_down = true;
        EXPECT_NE(event.fromShards, event.toShards);
    }
    EXPECT_TRUE(saw_up) << result.decisionLog();
    EXPECT_TRUE(saw_down) << result.decisionLog();

    // Per-sensor delivery stays in capture order across every
    // reconfiguration, with non-decreasing completion times.
    std::map<std::size_t, std::size_t> next_index;
    std::map<std::size_t, double> last_done;
    for (const ServedFrame &sf : result.serving.frames) {
        auto it = next_index.find(sf.sensor);
        if (it != next_index.end()) {
            EXPECT_GT(sf.sensorIndex, it->second)
                << "sensor " << sf.sensor;
            EXPECT_GE(sf.doneSec, last_done[sf.sensor]);
        }
        next_index[sf.sensor] = sf.sensorIndex;
        last_done[sf.sensor] = sf.doneSec;
    }

    // Conservation across the elastic serve.
    const ServingReport &rep = result.serving.report;
    EXPECT_EQ(rep.framesIn,
              rep.framesProcessed + rep.framesDropped +
                  rep.framesAbandoned + rep.framesShed);

    // Shard-seconds track the width trajectory exactly.
    double expected = 0.0;
    for (const EpochLog &ep : result.epochs)
        expected += static_cast<double>(ep.activeShards) *
                    epoch_sec;
    EXPECT_DOUBLE_EQ(result.shardSeconds, expected);
}

TEST(ElasticRunner, ReplayIsDeterministicAndReusable)
{
    HgPcnSystem::Config system;
    const PointNet2Spec spec = tinyClassifier();

    TrafficGen::Config traffic;
    traffic.sensors = 5;
    traffic.durationSec = 3.0;
    traffic.baseRateHz = 4.0;
    traffic.burstFactor = 2.0;
    traffic.diurnalAmplitude = 0.3;
    traffic.hotPlugFraction = 0.4;
    traffic.dropFraction = 0.4;
    traffic.priorityTiers = 2;
    traffic.cloudPoints = 300;
    traffic.seed = 11;
    const TrafficTrace trace = TrafficGen(traffic).generate();
    ASSERT_GT(trace.stream.size(), 0u);

    ElasticRunner::Config cfg = tinyElasticConfig(1.0, 2);
    cfg.admission.enabled = true;

    // Same trace through two independent runners AND through the
    // same runner twice: identical decisions, events and report.
    ElasticRunner a(system, spec, cfg);
    ElasticRunner b(system, spec, cfg);
    const ElasticResult r1 = a.serve(trace.stream,
                                     trace.priority);
    const ElasticResult r2 = b.serve(trace.stream,
                                     trace.priority);
    const ElasticResult r3 = a.serve(trace.stream,
                                     trace.priority);

    EXPECT_EQ(r1.decisionLog(), r2.decisionLog());
    EXPECT_EQ(r1.decisionLog(), r3.decisionLog());
    EXPECT_EQ(r1.events.size(), r2.events.size());
    EXPECT_EQ(r1.serving.report.toString(),
              r2.serving.report.toString());
    EXPECT_EQ(r1.serving.report.toString(),
              r3.serving.report.toString());
    ASSERT_EQ(r1.serving.frames.size(),
              r2.serving.frames.size());
    for (std::size_t i = 0; i < r1.serving.frames.size(); ++i) {
        EXPECT_EQ(r1.serving.frames[i].globalIndex,
                  r2.serving.frames[i].globalIndex);
        EXPECT_EQ(r1.serving.frames[i].doneSec,
                  r2.serving.frames[i].doneSec);
        EXPECT_EQ(r1.serving.frames[i].latencySec,
                  r2.serving.frames[i].latencySec);
    }

    // A churned-out sensor that offered nothing gets
    // NotApplicable, never a vacuous YES.
    for (const SensorServingReport &sr :
         r1.serving.report.sensors) {
        if (sr.framesIn == 0) {
            EXPECT_EQ(sr.realTime,
                      RealTimeVerdict::NotApplicable);
        }
    }
}

TEST(ElasticRunner, AdmissionShedsExactLowestPrioritySet)
{
    HgPcnSystem::Config system;
    const PointNet2Spec spec = tinyClassifier();

    // Freeze the fleet at 1 shard and pin the capacity model:
    // 1 / 0.5 s = 2 fps, 0.9 headroom -> 1.8 fps budget. Three
    // sensors offer 2 fps each (4 frames / 2 s epoch): admission
    // must shed down to one sensor, lowest priority first — sensor
    // 1 (priority 0), then sensor 2 (priority 1, higher id than
    // nothing else in its tier), keeping sensor 0 (priority 2).
    ElasticRunner::Config cfg;
    cfg.epochSec = 2.0;
    cfg.fleet.shards = 1;
    cfg.fleet.assumedServiceSec = 0.5;
    cfg.autoscaler.minShards = 1;
    cfg.autoscaler.maxShards = 1;
    cfg.admission.enabled = true;
    cfg.admission.headroom = 0.9;

    const SensorStream stream = phasedStream(3, 2.0, {4});
    ElasticRunner elastic(system, spec, cfg);
    const ElasticResult result =
        elastic.serve(stream, {2, 0, 1});

    ASSERT_EQ(result.epochs.size(), 1u);
    EXPECT_EQ(result.epochs[0].shedSensors,
              (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(result.epochs[0].framesShed, 8u);
    EXPECT_EQ(result.epochs[0].framesAdmitted, 4u);

    const ServingReport &rep = result.serving.report;
    EXPECT_EQ(rep.framesShed, 8u);
    EXPECT_EQ(rep.sensors[0].framesShed, 0u);
    EXPECT_EQ(rep.sensors[1].framesShed, 4u);
    EXPECT_EQ(rep.sensors[2].framesShed, 4u);
    EXPECT_EQ(rep.sensors[1].framesDone, 0u);
    EXPECT_EQ(rep.framesIn,
              rep.framesProcessed + rep.framesDropped +
                  rep.framesAbandoned + rep.framesShed);
}

TEST(ElasticRunner, SheddingServeDigest)
{
    // A mixed-backend elastic serve that sheds, scales and batches:
    // FNV-1a over every report field and every served frame
    // (tests/report_digest.h), recorded before the epoch merge was
    // folded onto shared slice helpers.
    HgPcnSystem::Config system;
    const PointNet2Spec spec = tinyClassifier();
    ElasticRunner probe(system, spec, tinyElasticConfig(1.0, 1));
    const double svc =
        probe.fleet().shardBackend(0).estimateServiceSec();
    ASSERT_GT(svc, 0.0);
    const double epoch_sec = 24.0 * svc;
    const SensorStream stream =
        phasedStream(3, epoch_sec, {24, 24, 1, 1, 1, 1});

    ElasticRunner::Config cfg = tinyElasticConfig(epoch_sec, 2);
    cfg.admission.enabled = true;
    cfg.fleet.backends = {"hgpcn", "mesorasi"};
    cfg.fleet.runner.maxBatch = 2;
    ElasticRunner elastic(system, spec, cfg);
    const ElasticResult result = elastic.serve(stream, {2, 0, 1});

    ASSERT_GT(result.serving.report.framesShed, 0u);
    ASSERT_FALSE(result.events.empty());
    EXPECT_EQ(digest::servingDigest(result.serving), 0x3b180af5450f99f9ull);
    EXPECT_EQ(digest::metricsDigest(result.serving.metrics),
              0x4e287a108ecc7ce3ull);
    EXPECT_EQ(result.serving.metrics.countOf("frames.failed"), 0u);
    EXPECT_EQ(result.serving.metrics.countOf("frames.retried"), 0u);
    EXPECT_EQ(result.serving.metrics.countOf("frames.degraded"), 0u);
}

} // namespace
} // namespace hgpcn
