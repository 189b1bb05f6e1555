/**
 * @file
 * Tests for the fault-tolerance stack: FaultPlan window arithmetic
 * and keyed transient-error draws, circuit-breaker pinned
 * transitions, the dispatch-time failover/retry/deadline resolution
 * (serving/failover.h), fault accounting and conservation through
 * ShardedRunner, degraded-fidelity serving, byte-identical faulted
 * replay, and the zero-fault inertness oracle: an empty plan (or
 * clean directives) must reproduce the no-fault schedule event for
 * event. The concurrency cases run under ThreadSanitizer and
 * AddressSanitizer in CI (.github/workflows/ci.yml).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/hgpcn_system.h"
#include "datasets/sensor_stream.h"
#include "obs/trace.h"
#include "runtime/stream_runner.h"
#include "serving/admission.h"
#include "serving/autoscaler.h"
#include "serving/failover.h"
#include "serving/health.h"
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

/** Random cloud with enough points for the tiny classifier. */
Frame
tinyFrame(double stamp, std::uint64_t seed)
{
    Frame frame;
    frame.timestamp = stamp;
    frame.name = std::string("f").append(std::to_string(seed));
    Rng rng(seed);
    frame.cloud.reserve(300);
    for (std::size_t p = 0; p < 300; ++p) {
        frame.cloud.add({rng.uniform(0.0f, 10.0f),
                         rng.uniform(0.0f, 10.0f),
                         rng.uniform(0.0f, 3.0f)});
    }
    return frame;
}

/** Tagged stream from explicit (stamp, sensor) pairs. */
SensorStream
taggedStream(const std::vector<std::pair<double, std::size_t>> &seq,
             std::size_t sensor_count)
{
    SensorStream stream;
    stream.sensorCount = sensor_count;
    for (std::size_t i = 0; i < seq.size(); ++i) {
        stream.frames.push_back(tinyFrame(seq[i].first, 31 + i));
        stream.sensors.push_back(seq[i].second);
    }
    return stream;
}

/** Evenly spaced multi-sensor stream over [0, duration). */
SensorStream
evenStream(std::size_t sensors, std::size_t frames_per_sensor,
           double duration)
{
    std::vector<std::pair<double, std::size_t>> seq;
    const std::size_t total = sensors * frames_per_sensor;
    for (std::size_t i = 0; i < total; ++i) {
        seq.push_back({duration * static_cast<double>(i) /
                           static_cast<double>(total),
                       i % sensors});
    }
    return taggedStream(seq, sensors);
}

/** A 1-shard resolution over @p stream with @p plan and @p cfg;
 * a zero service time makes deadlines account backoff only. */
FaultResolution
resolveOneShard(const SensorStream &stream, const FaultPlan &plan,
                const FaultToleranceConfig &cfg,
                const std::vector<double> &service_sec = {0.0})
{
    std::vector<std::size_t> assignment(stream.size(), 0);
    std::vector<CircuitBreaker> health;
    return resolveFaultSchedule(stream, assignment, {"hgpcn"},
                                service_sec, plan, cfg, health);
}

bool
identicalServes(const ServingResult &a, const ServingResult &b)
{
    if (a.report.toString() != b.report.toString())
        return false;
    if (a.frames.size() != b.frames.size())
        return false;
    for (std::size_t i = 0; i < a.frames.size(); ++i) {
        if (a.frames[i].globalIndex != b.frames[i].globalIndex ||
            a.frames[i].shard != b.frames[i].shard ||
            a.frames[i].doneSec != b.frames[i].doneSec ||
            a.frames[i].latencySec != b.frames[i].latencySec)
            return false;
    }
    return true;
}

// --------------------------------------------------------- FaultPlan

TEST(FaultPlan, EmptyAndIneffectiveWindowsAreInert)
{
    EXPECT_TRUE(FaultPlan().empty());
    EXPECT_TRUE(FaultPlan(FaultPlan::Config{}).empty());

    // Windows that cannot fire do not arm the plan: a rate-0
    // storm and a 1x slowdown inject nothing, so the serving layer
    // skips resolution entirely.
    FaultPlan::Config cfg;
    cfg.errors.push_back({"", 0.0, 0.0, 100.0});
    cfg.slowdowns.push_back({0, 0.0, 100.0, 1.0});
    EXPECT_TRUE(FaultPlan(cfg).empty());

    // Any crash window arms the plan, conservatively.
    FaultPlan::Config armed = cfg;
    armed.crashes.push_back({1, 1.0, 2.0});
    EXPECT_FALSE(FaultPlan(armed).empty());
}

TEST(FaultPlan, WindowArithmeticIsHalfOpen)
{
    FaultPlan::Config cfg;
    cfg.crashes.push_back({1, 1.0, 2.0});
    cfg.slowdowns.push_back({2, 0.0, 10.0, 1.5});
    cfg.slowdowns.push_back({2, 5.0, 10.0, 2.0});
    cfg.errors.push_back({"hgpcn", 0.25, 0.0, 4.0});
    cfg.errors.push_back({"", 0.4, 3.0, 5.0});
    const FaultPlan plan(cfg);

    EXPECT_FALSE(plan.shardCrashed(1, 0.999));
    EXPECT_TRUE(plan.shardCrashed(1, 1.0)); // start inclusive
    EXPECT_TRUE(plan.shardCrashed(1, 1.999));
    EXPECT_FALSE(plan.shardCrashed(1, 2.0)); // end exclusive
    EXPECT_FALSE(plan.shardCrashed(0, 1.5)); // other shard

    // Overlapping slowdowns multiply; other shards are untouched.
    EXPECT_DOUBLE_EQ(plan.slowdown(2, 1.0), 1.5);
    EXPECT_DOUBLE_EQ(plan.slowdown(2, 7.0), 3.0);
    EXPECT_DOUBLE_EQ(plan.slowdown(0, 7.0), 1.0);

    // Error rate: max over matching windows; empty backend name in
    // a window matches every backend.
    EXPECT_DOUBLE_EQ(plan.errorRate("hgpcn", 1.0), 0.25);
    EXPECT_DOUBLE_EQ(plan.errorRate("hgpcn", 3.5), 0.4);
    EXPECT_DOUBLE_EQ(plan.errorRate("mesorasi", 1.0), 0.0);
    EXPECT_DOUBLE_EQ(plan.errorRate("mesorasi", 4.5), 0.4);
    EXPECT_DOUBLE_EQ(plan.errorRate("hgpcn", 5.0), 0.0);
}

TEST(FaultPlan, TransientErrorDrawsAreKeyedAndDeterministic)
{
    FaultPlan::Config cfg;
    cfg.seed = 7;
    cfg.errors.push_back({"", 0.5, 0.0, 10.0});
    const FaultPlan plan(cfg);
    const FaultPlan replay(cfg);

    // Rate 1 always errors, rate 0 never does.
    FaultPlan::Config sure = cfg;
    sure.errors[0].rate = 1.0;
    EXPECT_TRUE(FaultPlan(sure).transientError("hgpcn", 0, 0, 1,
                                               1.0));
    EXPECT_FALSE(plan.transientError("hgpcn", 0, 0, 1, 99.0));

    // Same key => same outcome, across plan instances; the draw
    // depends on every key component.
    bool attempt_matters = false;
    bool frame_matters = false;
    for (std::size_t f = 0; f < 64; ++f) {
        for (std::uint32_t a = 1; a <= 3; ++a) {
            const bool err =
                plan.transientError("hgpcn", 0, f, a, 1.0);
            EXPECT_EQ(err, replay.transientError("hgpcn", 0, f, a,
                                                 1.0));
            if (err != plan.transientError("hgpcn", 0, f, a + 1,
                                           1.0))
                attempt_matters = true;
            if (err != plan.transientError("hgpcn", 0, f + 64, a,
                                           1.0))
                frame_matters = true;
        }
    }
    EXPECT_TRUE(attempt_matters);
    EXPECT_TRUE(frame_matters);

    // A different seed reshuffles the draws somewhere.
    FaultPlan::Config other = cfg;
    other.seed = 8;
    const FaultPlan reseeded(other);
    bool differs = false;
    for (std::size_t f = 0; f < 64 && !differs; ++f) {
        differs = plan.transientError("hgpcn", 0, f, 1, 1.0) !=
                  reseeded.transientError("hgpcn", 0, f, 1, 1.0);
    }
    EXPECT_TRUE(differs);
}

// ---------------------------------------------------- CircuitBreaker

TEST(CircuitBreaker, PinnedTransitionSequence)
{
    CircuitBreakerConfig cfg;
    cfg.failureThreshold = 3;
    cfg.openSec = 1.0;
    cfg.halfOpenSuccesses = 2;
    CircuitBreaker breaker(cfg);

    // Closed absorbs threshold-1 failures; the threshold-th trips.
    EXPECT_EQ(breaker.state(0.0), BreakerState::Closed);
    breaker.onFailure(0.1);
    breaker.onFailure(0.2);
    EXPECT_EQ(breaker.state(0.2), BreakerState::Closed);
    EXPECT_EQ(breaker.consecutiveFailures(), 2u);
    breaker.onFailure(0.3);
    EXPECT_EQ(breaker.state(0.3), BreakerState::Open);

    // Open until openSec elapses, then observably Half-Open —
    // state() is const; observation never mutates.
    EXPECT_EQ(breaker.state(1.2), BreakerState::Open);
    EXPECT_EQ(breaker.state(1.3), BreakerState::HalfOpen);
    EXPECT_EQ(breaker.state(1.2999), BreakerState::Open);

    // halfOpenSuccesses probes close it and clear the history.
    breaker.onSuccess(1.4);
    EXPECT_EQ(breaker.state(1.4), BreakerState::HalfOpen);
    breaker.onSuccess(1.5);
    EXPECT_EQ(breaker.state(1.5), BreakerState::Closed);
    EXPECT_EQ(breaker.consecutiveFailures(), 0u);

    // A failed probe re-opens immediately, restarting the window.
    breaker.onFailure(2.0);
    breaker.onFailure(2.1);
    breaker.onFailure(2.2);
    EXPECT_EQ(breaker.state(2.2), BreakerState::Open);
    breaker.onFailure(3.5); // Half-Open probe fails at 3.5
    EXPECT_EQ(breaker.state(3.6), BreakerState::Open);
    EXPECT_EQ(breaker.state(4.6), BreakerState::HalfOpen);
}

TEST(CircuitBreaker, SuccessResetsConsecutiveFailures)
{
    CircuitBreakerConfig cfg;
    cfg.failureThreshold = 3;
    CircuitBreaker breaker(cfg);
    breaker.onFailure(0.1);
    breaker.onFailure(0.2);
    breaker.onSuccess(0.3);
    breaker.onFailure(0.4);
    breaker.onFailure(0.5);
    EXPECT_EQ(breaker.state(0.5), BreakerState::Closed);
    breaker.onFailure(0.6);
    EXPECT_EQ(breaker.state(0.6), BreakerState::Open);
}

TEST(CircuitBreaker, NamesAndGaugesArePinned)
{
    EXPECT_STREQ(breakerStateName(BreakerState::Closed), "closed");
    EXPECT_STREQ(breakerStateName(BreakerState::Open), "open");
    EXPECT_STREQ(breakerStateName(BreakerState::HalfOpen),
                 "half-open");
    EXPECT_DOUBLE_EQ(breakerStateGauge(BreakerState::Closed), 0.0);
    EXPECT_DOUBLE_EQ(breakerStateGauge(BreakerState::HalfOpen),
                     1.0);
    EXPECT_DOUBLE_EQ(breakerStateGauge(BreakerState::Open), 2.0);
}

// ---------------------------------------------------------- Failover

TEST(Failover, BackoffArithmeticIsPinned)
{
    // Rate-1 storm: every attempt errors, so every frame burns
    // maxAttempts and the full exponential backoff ladder.
    FaultPlan::Config plan_cfg;
    plan_cfg.errors.push_back({"", 1.0, 0.0, 100.0});
    const FaultPlan plan(plan_cfg);

    FaultToleranceConfig ft;
    ft.maxAttempts = 3;
    ft.backoffBaseSec = 0.002;
    ft.backoffMultiplier = 2.0;
    ft.breaker.failureThreshold = 1000; // keep the breaker out

    const SensorStream stream = taggedStream({{0.5, 0}}, 1);
    const FaultResolution res =
        resolveOneShard(stream, plan, ft, {0.01});
    ASSERT_EQ(res.directives.size(), 1u);
    const FrameFaultDirective &d = res.directives[0];
    EXPECT_TRUE(d.failed);
    EXPECT_EQ(d.attempts, 3u);
    // base + base*mult: the refused attempt after maxAttempts
    // charges nothing.
    EXPECT_DOUBLE_EQ(d.backoffSec, 0.002 + 0.004);

    // A deadline cuts the ladder early: after attempt 1, the next
    // try would cost 3*svc + backoff = 0.036 > 0.025, so the frame
    // fails at attempt 2 with only the first backoff charged.
    FaultToleranceConfig tight = ft;
    tight.deadlineSec = 0.025;
    const FaultResolution cut =
        resolveOneShard(stream, plan, tight, {0.01});
    EXPECT_TRUE(cut.directives[0].failed);
    EXPECT_EQ(cut.directives[0].attempts, 2u);
    EXPECT_DOUBLE_EQ(cut.directives[0].backoffSec, 0.002);
}

TEST(Failover, ExactFailoverSensorSets)
{
    // 6 sensors homed sensor%3 on a 3-shard fleet; shard 1 is down
    // for [1, 2). Its sensors (1 and 4) must fail over to the
    // ascending survivor list {0, 2} by sensor % 2 — sensor 1 to
    // shard 2, sensor 4 to shard 0 — and return home afterwards.
    FaultPlan::Config plan_cfg;
    plan_cfg.crashes.push_back({1, 1.0, 2.0});
    const FaultPlan plan(plan_cfg);

    std::vector<std::pair<double, std::size_t>> seq;
    for (std::size_t round = 0; round < 3; ++round) {
        for (std::size_t sensor = 0; sensor < 6; ++sensor) {
            seq.push_back({0.5 + static_cast<double>(round) +
                               0.01 * static_cast<double>(sensor),
                           sensor});
        }
    }
    const SensorStream stream = taggedStream(seq, 6);
    std::vector<std::size_t> assignment;
    for (const std::size_t sensor : stream.sensors)
        assignment.push_back(sensor % 3);

    FaultToleranceConfig ft;
    std::vector<CircuitBreaker> health;
    const FaultResolution res = resolveFaultSchedule(
        stream, assignment, {"hgpcn", "hgpcn", "hgpcn"},
        {0.0, 0.0, 0.0}, plan, ft, health);

    for (std::size_t i = 0; i < stream.size(); ++i) {
        const std::size_t sensor = stream.sensors[i];
        const double t = stream.frames[i].timestamp;
        std::size_t expect = sensor % 3;
        if (expect == 1 && t >= 1.0 && t < 2.0)
            expect = sensor == 1 ? 2 : 0;
        EXPECT_EQ(res.assignment[i], expect)
            << "frame " << i << " sensor " << sensor << " t " << t;
        EXPECT_FALSE(res.directives[i].failed);
    }
    EXPECT_EQ(res.framesRedirected, 2u);

    // Redirect events in arrival order, then the return-home pair.
    ASSERT_EQ(res.failovers.size(), 4u);
    EXPECT_EQ(res.failovers[0].sensor, 1u);
    EXPECT_EQ(res.failovers[0].fromShard, 1u);
    EXPECT_EQ(res.failovers[0].toShard, 2u);
    EXPECT_EQ(res.failovers[1].sensor, 4u);
    EXPECT_EQ(res.failovers[1].fromShard, 1u);
    EXPECT_EQ(res.failovers[1].toShard, 0u);
    EXPECT_EQ(res.failovers[2].sensor, 1u);
    EXPECT_EQ(res.failovers[2].fromShard, 2u);
    EXPECT_EQ(res.failovers[2].toShard, 1u);
    EXPECT_EQ(res.failovers[3].sensor, 4u);
    EXPECT_EQ(res.failovers[3].fromShard, 0u);
    EXPECT_EQ(res.failovers[3].toShard, 1u);
}

TEST(Failover, WholeFleetDownFailsFramesOutright)
{
    FaultPlan::Config plan_cfg;
    plan_cfg.crashes.push_back({0, 0.0, 10.0});
    const FaultPlan plan(plan_cfg);

    const SensorStream stream =
        taggedStream({{1.0, 0}, {2.0, 0}}, 1);
    const FaultResolution res =
        resolveOneShard(stream, plan, FaultToleranceConfig{});
    for (const FrameFaultDirective &d : res.directives) {
        EXPECT_TRUE(d.failed);
        EXPECT_EQ(d.attempts, 1u);
    }
    EXPECT_EQ(res.framesRedirected, 0u);
    EXPECT_TRUE(res.failovers.empty());
}

TEST(Failover, HalfOpenProbesAreDegraded)
{
    // Rate-1 storm until t=2 trips the breaker; after openSec the
    // first frames to arrive see Half-Open and run degraded.
    FaultPlan::Config plan_cfg;
    plan_cfg.errors.push_back({"", 1.0, 0.0, 2.0});
    const FaultPlan plan(plan_cfg);

    FaultToleranceConfig ft;
    ft.maxAttempts = 2;
    ft.breaker.failureThreshold = 2;
    ft.breaker.openSec = 1.0;
    ft.breaker.halfOpenSuccesses = 2;
    ft.degradeOnHalfOpen = true;

    // Frame at 0.5 trips the breaker (2 failed attempts); 1.0 and
    // 1.4 arrive Open (all shards down -> failed); 1.6 and 1.7
    // arrive Half-Open (probes, degraded, storm over... the storm
    // still covers t<2, so use stamps past it).
    const SensorStream stream = taggedStream(
        {{0.5, 0}, {1.0, 0}, {2.1, 0}, {2.2, 0}, {2.3, 0}}, 1);
    const FaultResolution res =
        resolveOneShard(stream, plan, ft);

    EXPECT_TRUE(res.directives[0].failed); // tripped the breaker
    EXPECT_TRUE(res.directives[1].failed); // breaker Open: no shard
    // t=2.1 > openedAt(0.5)+1.0: Half-Open probes run degraded.
    EXPECT_FALSE(res.directives[2].failed);
    EXPECT_TRUE(res.directives[2].degraded);
    EXPECT_FALSE(res.directives[3].failed);
    EXPECT_TRUE(res.directives[3].degraded);
    // Two probe successes close the breaker: full fidelity again.
    EXPECT_FALSE(res.directives[4].degraded);

    // The transition record captures the whole arc.
    ASSERT_EQ(res.transitions.size(), 3u);
    EXPECT_EQ(res.transitions[0].to, BreakerState::Open);
    EXPECT_EQ(res.transitions[1].to, BreakerState::HalfOpen);
    EXPECT_EQ(res.transitions[2].to, BreakerState::Closed);
}

// ------------------------------------------- ShardedRunner accounting

TEST(FaultServing, ConservationAndAttributionWithFailures)
{
    HgPcnSystem::Config system;
    const PointNet2Spec spec = tinyClassifier();

    // A hot storm with few attempts: a healthy fraction of frames
    // terminally fails, exercising the failed-frame accounting.
    FaultPlan::Config plan_cfg;
    plan_cfg.seed = 5;
    plan_cfg.errors.push_back({"", 0.45, 0.0, 1e9});
    const FaultPlan plan(plan_cfg);

    ShardedRunner::Config cfg;
    cfg.shards = 2;
    cfg.placement = PlacementPolicy::HashBySensor;
    cfg.faultPlan = &plan;
    cfg.faultTolerance.maxAttempts = 2;
    cfg.faultTolerance.breaker.failureThreshold = 1000;

    const SensorStream stream = evenStream(4, 12, 1.0);
    ShardedRunner runner(system, spec, cfg);
    const ServingResult result = runner.serve(stream);
    const ServingReport &rep = result.report;

    EXPECT_GT(rep.framesFailed, 0u);
    EXPECT_GT(rep.framesRetried, 0u);
    EXPECT_EQ(rep.framesIn,
              rep.framesProcessed + rep.framesDropped +
                  rep.framesAbandoned + rep.framesShed +
                  rep.framesFailed);

    // Failed frames never appear among the completions.
    EXPECT_EQ(result.frames.size(), rep.framesProcessed);

    // Per-sensor and per-backend slices sum to the aggregate.
    std::size_t sensor_failed = 0;
    std::size_t sensor_retried = 0;
    for (const SensorServingReport &sr : rep.sensors) {
        sensor_failed += sr.framesFailed;
        sensor_retried += sr.framesRetried;
        EXPECT_LE(sr.framesFailed, sr.framesMissed);
        EXPECT_LE(sr.framesRetried, sr.framesDone);
    }
    EXPECT_EQ(sensor_failed, rep.framesFailed);
    EXPECT_EQ(sensor_retried, rep.framesRetried);
    std::size_t backend_failed = 0;
    for (const BackendServingReport &br : rep.backends)
        backend_failed += br.framesFailed;
    EXPECT_EQ(backend_failed, rep.framesFailed);

    // Shard runtime reports carry the same tallies.
    std::size_t shard_failed = 0;
    for (const RuntimeReport &sr : rep.shardReports)
        shard_failed += sr.framesFailed;
    EXPECT_EQ(shard_failed, rep.framesFailed);

    // The report renders the fault line only when faults fired.
    EXPECT_NE(rep.toString().find("failed"), std::string::npos);
}

TEST(FaultServing, ZeroFaultPlanMatchesNoPlanServe)
{
    HgPcnSystem::Config system;
    const PointNet2Spec spec = tinyClassifier();
    const SensorStream stream = evenStream(3, 8, 1.0);

    ShardedRunner::Config bare_cfg;
    bare_cfg.shards = 2;
    ShardedRunner bare(system, spec, bare_cfg);
    const ServingResult clean = bare.serve(stream);

    const FaultPlan zero;
    ShardedRunner::Config zero_cfg = bare_cfg;
    zero_cfg.faultPlan = &zero;
    ShardedRunner zeroed(system, spec, zero_cfg);
    const ServingResult inert = zeroed.serve(stream);

    EXPECT_TRUE(identicalServes(clean, inert));
    EXPECT_EQ(inert.report.framesFailed, 0u);
    EXPECT_EQ(inert.report.framesRetried, 0u);
    EXPECT_EQ(inert.report.framesDegraded, 0u);
    // The inert serve registers no fault counters at all.
    EXPECT_EQ(inert.metrics.countOf("fault.failovers"), 0u);
    EXPECT_EQ(
        inert.report.toString().find("fault-tolerance"),
        std::string::npos);
}

TEST(FaultServing, CleanDirectivesMatchNoDirectives)
{
    // The runtime layer's own inertness: a StreamRunner fed
    // explicitly clean directives schedules byte-identically to
    // one fed none (the pre-fault schedule, pinned).
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    const std::vector<Frame> frames =
        evenStream(1, 8, 0.5).framesOfSensor(0);

    StreamRunner::Config rcfg;
    rcfg.inputPoints = 256;
    StreamRunner runner(system.preprocessor(), system.backend(),
                        rcfg);

    const RuntimeResult plain = runner.run(frames);
    const std::vector<FrameFaultDirective> clean(frames.size());
    const RuntimeResult directed =
        runner.run(frames, {}, nullptr, &clean);

    EXPECT_EQ(plain.report.toString(),
              directed.report.toString());
    ASSERT_EQ(plain.frames.size(), directed.frames.size());
    for (std::size_t i = 0; i < plain.frames.size(); ++i) {
        EXPECT_EQ(plain.frames[i].doneSec,
                  directed.frames[i].doneSec);
        EXPECT_EQ(plain.frames[i].latencySec,
                  directed.frames[i].latencySec);
    }
}

TEST(FaultServing, FaultedReplayIsByteIdentical)
{
    HgPcnSystem::Config system;
    const PointNet2Spec spec = tinyClassifier();

    FaultPlan::Config plan_cfg;
    plan_cfg.seed = 17;
    plan_cfg.crashes.push_back({1, 0.3, 0.6});
    plan_cfg.slowdowns.push_back({0, 0.4, 0.8, 1.5});
    plan_cfg.errors.push_back({"", 0.3, 0.5, 0.9});
    const FaultPlan plan(plan_cfg);

    ShardedRunner::Config cfg;
    cfg.shards = 3;
    cfg.placement = PlacementPolicy::HashBySensor;
    cfg.faultPlan = &plan;
    cfg.faultTolerance.breaker.openSec = 0.2;

    const SensorStream stream = evenStream(6, 8, 1.0);
    ShardedRunner runner(system, spec, cfg);
    ShardedRunner fresh(system, spec, cfg);
    const ServingResult r1 = runner.serve(stream);
    const ServingResult r2 = runner.serve(stream); // same fleet
    const ServingResult r3 = fresh.serve(stream);  // fresh fleet

    EXPECT_TRUE(identicalServes(r1, r2));
    EXPECT_TRUE(identicalServes(r1, r3));
    EXPECT_EQ(r1.metrics.countOf("fault.failovers"),
              r2.metrics.countOf("fault.failovers"));
    EXPECT_EQ(r1.metrics.countOf("fault.frames_redirected"),
              r2.metrics.countOf("fault.frames_redirected"));
    EXPECT_GT(r1.metrics.countOf("fault.frames_redirected"), 0u);
}

TEST(FaultServing, DegradedFramesSampleFewerPoints)
{
    HgPcnSystem::Config system;
    const PointNet2Spec spec = tinyClassifier();
    const SensorStream stream = evenStream(2, 4, 0.5);

    ShardedRunner::Config cfg;
    cfg.shards = 1;
    cfg.faultTolerance.degradedSampleFraction = 0.5;
    ShardedRunner runner(system, spec, cfg);

    // Degrade sensor 1 only; sensor 0 keeps the full K = 256.
    const std::vector<bool> degrade = {false, true};
    const ServingResult result =
        runner.serve(stream, {}, &degrade);
    const ServingReport &rep = result.report;

    EXPECT_EQ(rep.framesDegraded, 4u);
    EXPECT_EQ(rep.sensors[0].framesDegraded, 0u);
    EXPECT_EQ(rep.sensors[1].framesDegraded, 4u);
    for (const ServedFrame &sf : result.frames) {
        const std::size_t expect = sf.sensor == 1 ? 128u : 256u;
        EXPECT_EQ(sf.result.preprocess.sampled.size(), expect)
            << "sensor " << sf.sensor;
    }
    // Degradation alone must not fail or retry anything.
    EXPECT_EQ(rep.framesFailed, 0u);
    EXPECT_EQ(rep.framesRetried, 0u);
    EXPECT_EQ(rep.framesIn, rep.framesProcessed);
}

// ----------------------------------------------------- Elastic layer

TEST(FaultServing, ElasticDegradeInsteadOfShedKeepsSensorsLive)
{
    HgPcnSystem::Config system;
    const PointNet2Spec spec = tinyClassifier();

    // The exact shed scenario of
    // ElasticRunner.AdmissionShedsExactLowestPrioritySet, with
    // degrade-instead-of-shed: the same decision (sensors 1 and 2
    // lose their full-fidelity budget) now keeps every sensor
    // live at half fidelity instead of refusing frames.
    ElasticRunner::Config cfg;
    cfg.epochSec = 2.0;
    cfg.fleet.shards = 1;
    cfg.fleet.assumedServiceSec = 0.5;
    cfg.autoscaler.minShards = 1;
    cfg.autoscaler.maxShards = 1;
    cfg.admission.enabled = true;
    cfg.admission.headroom = 0.9;
    cfg.admission.degradeInsteadOfShed = true;

    std::vector<std::pair<double, std::size_t>> seq;
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t s = 0; s < 3; ++s) {
            seq.push_back({2.0 * (static_cast<double>(i) +
                                  0.2 * static_cast<double>(s) +
                                  0.1) /
                               4.0,
                           s});
        }
    }
    const SensorStream stream = taggedStream(seq, 3);
    ElasticRunner elastic(system, spec, cfg);
    const ElasticResult result =
        elastic.serve(stream, {2, 0, 1});

    ASSERT_EQ(result.epochs.size(), 1u);
    const EpochLog &ep = result.epochs[0];
    EXPECT_TRUE(ep.shedSensors.empty());
    EXPECT_EQ(ep.degradedSensors,
              (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(ep.framesShed, 0u);
    EXPECT_EQ(ep.framesAdmitted, 12u);

    const ServingReport &rep = result.serving.report;
    EXPECT_EQ(rep.framesShed, 0u);
    EXPECT_EQ(rep.framesDegraded,
              rep.sensors[1].framesDone +
                  rep.sensors[2].framesDone);
    EXPECT_GT(rep.framesDegraded, 0u);
    EXPECT_EQ(rep.sensors[0].framesDegraded, 0u);
    // Every sensor still delivered frames.
    for (const SensorServingReport &sr : rep.sensors)
        EXPECT_GT(sr.framesDone, 0u) << "sensor " << sr.sensor;
    EXPECT_EQ(rep.framesIn,
              rep.framesProcessed + rep.framesDropped +
                  rep.framesAbandoned + rep.framesShed);

    // The decision log narrates the degradation — and only when
    // it happens, so zero-fault logs stay byte-compatible.
    EXPECT_NE(result.decisionLog().find("degradedSensors=1,2"),
              std::string::npos)
        << result.decisionLog();
}

TEST(FaultServing, ElasticFaultedServeDigest)
{
    // An elastic serve under a fault plan: shard 1 is down over
    // [0.8, 1.4), across the epoch boundary at 1.0, inside an error
    // storm over [0.5, 1.5). The epoch after the boundary reads the
    // breaker history the first epoch wrote, so the digests pin how
    // long that history lives: across the epochs of one serve, and
    // not across serves.
    HgPcnSystem::Config system;
    const PointNet2Spec spec = tinyClassifier();

    FaultPlan::Config plan_cfg;
    plan_cfg.seed = 23;
    plan_cfg.crashes.push_back({1, 0.8, 1.4});
    plan_cfg.errors.push_back({"", 0.9, 0.5, 1.5});
    const FaultPlan plan(plan_cfg);

    ElasticRunner::Config cfg;
    cfg.epochSec = 1.0;
    cfg.fleet.shards = 2;
    cfg.fleet.placement = PlacementPolicy::LeastLoaded;
    cfg.fleet.faultPlan = &plan;
    cfg.fleet.faultTolerance.breaker.openSec = 0.6;
    cfg.autoscaler.minShards = 2;
    cfg.autoscaler.maxShards = 2;
    cfg.admission.enabled = false;

    const SensorStream stream = evenStream(4, 12, 3.0);
    ElasticRunner elastic(system, spec, cfg);
    ElasticRunner fresh(system, spec, cfg);
    const ElasticResult r1 = elastic.serve(stream);
    const ElasticResult r2 = elastic.serve(stream); // same fleet
    const ElasticResult r3 = fresh.serve(stream);   // fresh fleet

    EXPECT_TRUE(identicalServes(r1.serving, r2.serving));
    EXPECT_TRUE(identicalServes(r1.serving, r3.serving));
    EXPECT_EQ(r1.decisionLog(), r2.decisionLog());
    EXPECT_EQ(r1.decisionLog(), r3.decisionLog());
    EXPECT_GT(r1.serving.metrics.countOf("fault.frames_redirected"),
              0u);
    EXPECT_EQ(digest::servingDigest(r1.serving), 0x32c991d5e973bd2cull);
    EXPECT_EQ(digest::metricsDigest(r1.serving.metrics),
              0xe09d1d3526f72043ull);
}

// ------------------------------------------------------------ Traces

TEST(FaultServing, FaultEventsAppearInTheVirtualTrace)
{
    HgPcnSystem::Config system;
    const PointNet2Spec spec = tinyClassifier();

    FaultPlan::Config plan_cfg;
    plan_cfg.seed = 3;
    plan_cfg.crashes.push_back({1, 0.2, 0.6});
    plan_cfg.errors.push_back({"", 0.5, 0.0, 1e9});
    const FaultPlan plan(plan_cfg);

    ShardedRunner::Config cfg;
    cfg.shards = 2;
    cfg.faultPlan = &plan;
    cfg.faultTolerance.maxAttempts = 2;
    cfg.faultTolerance.breaker.failureThreshold = 3;
    cfg.faultTolerance.breaker.openSec = 0.2;

    const SensorStream stream = evenStream(4, 8, 1.0);
    ShardedRunner runner(system, spec, cfg);

    Tracer::global().setEnabled(false);
    Tracer::global().clear();
    Tracer::global().setEnabled(true);
    const ServingResult result = runner.serve(stream);
    Tracer::global().setEnabled(false);

    bool saw_retry = false;
    bool saw_fail = false;
    bool saw_failover = false;
    bool saw_breaker = false;
    for (const TraceEvent &ev : Tracer::global().snapshot()) {
        if (ev.clock != TraceClock::Virtual)
            continue;
        if (ev.name.rfind("retry:", 0) == 0)
            saw_retry = true;
        if (ev.name.rfind("fail:", 0) == 0)
            saw_fail = true;
        if (ev.name.rfind("failover:", 0) == 0)
            saw_failover = true;
        if (ev.name.rfind("breaker:", 0) == 0)
            saw_breaker = true;
    }
    Tracer::global().clear();

    EXPECT_GT(result.report.framesRetried, 0u);
    EXPECT_TRUE(saw_retry);
    EXPECT_TRUE(saw_fail);
    EXPECT_TRUE(saw_failover);
    EXPECT_TRUE(saw_breaker);
}

} // namespace
} // namespace hgpcn
