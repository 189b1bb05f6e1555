/**
 * @file
 * Tests for the execution-backend subsystem (src/backends): the
 * registry, the four built-in backends against the engine and
 * device models that time them, the cost-model service estimate,
 * the backend-parameterized StreamRunner and heterogeneous
 * ShardedRunner fleets with per-backend report attribution, and
 * digests pinning every built-in's solo and batched outputs. The
 * fleet cases run under ThreadSanitizer and AddressSanitizer in CI
 * (.github/workflows/ci.yml).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "backends/backend_registry.h"
#include "backends/cpu_brute_backend.h"
#include "backends/hgpcn_backend.h"
#include "backends/mesorasi_backend.h"
#include "backends/point_acc_backend.h"
#include "common/rng.h"
#include "core/hgpcn_system.h"
#include "datasets/sensor_stream.h"
#include "obs/trace.h"
#include "serving/placement.h"
#include "serving/sharded_runner.h"
#include "report_digest.h"
#include "sim/device_model.h"

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

/** The brute-force functional run the baseline models time. */
RunOutput
bruteRun(const PointNet2 &net, const PointCloud &input,
         const InferenceEngine::Config &cfg)
{
    RunOptions opts;
    opts.ds = DsMethod::BruteKnn;
    opts.centroid = cfg.centroid;
    opts.seed = cfg.seed;
    return net.run(input, opts);
}

// ---------------------------------------------------------- Registry

TEST(BackendRegistry, ListsTheFourBuiltins)
{
    const std::vector<std::string> names =
        BackendRegistry::instance().names();
    for (const char *builtin :
         {"cpu-brute", "hgpcn", "mesorasi", "pointacc"}) {
        EXPECT_TRUE(BackendRegistry::instance().contains(builtin))
            << builtin;
        EXPECT_NE(std::find(names.begin(), names.end(), builtin),
                  names.end())
            << builtin;
    }
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(BackendRegistry, CreateBindsTheNamedBackend)
{
    const PointNet2 net(tinyClassifier());
    const InferenceEngine::Config cfg;
    for (const char *name :
         {"hgpcn", "mesorasi", "pointacc", "cpu-brute"}) {
        const auto backend = makeBackend(name, cfg, net);
        ASSERT_NE(backend, nullptr);
        EXPECT_EQ(backend->name(), name);
        EXPECT_EQ(&backend->model(), &net);
    }
}

TEST(BackendRegistry, UnknownBackendIsFatalAndListsKnown)
{
    const PointNet2 net(tinyClassifier());
    EXPECT_EXIT(makeBackend("tpu", InferenceEngine::Config{}, net),
                ::testing::ExitedWithCode(1),
                "unknown execution backend 'tpu'.*hgpcn");
}

TEST(BackendRegistry, DuplicateRegistrationIsFatal)
{
    EXPECT_EXIT(BackendRegistry::instance().registerFactory(
                    "hgpcn",
                    [](const InferenceEngine::Config &,
                       const PointNet2 &)
                        -> std::unique_ptr<ExecutionBackend> {
                        return nullptr;
                    }),
                ::testing::ExitedWithCode(1),
                "already registered");
}

TEST(BackendRegistry, CustomBackendRoundTrips)
{
    /** Fixed-latency stub: custom accelerator models plug in
     * without touching the library. */
    class StubBackend : public ExecutionBackend
    {
      public:
        explicit StubBackend(const PointNet2 &net) : net_(net) {}
        const std::string &name() const override { return nm; }
        const std::string &resource() const override { return res; }
        BackendInference
        infer(const PointCloud &, FrameWorkspace *) const override
        {
            BackendInference out;
            out.backend = nm;
            out.dsSec = 1e-3;
            out.fcSec = 2e-3;
            out.dsFcOverlap = false;
            return out;
        }
        const PointNet2 &model() const override { return net_; }

      private:
        const PointNet2 &net_;
        std::string nm = "stub-test";
        std::string res = "stub";
    };

    BackendRegistry::instance().registerFactory(
        "stub-test",
        [](const InferenceEngine::Config &, const PointNet2 &net) {
            return std::make_unique<StubBackend>(net);
        });
    const PointNet2 net(tinyClassifier());
    const auto backend =
        makeBackend("stub-test", InferenceEngine::Config{}, net);
    EXPECT_EQ(backend->name(), "stub-test");
    const BackendInference run = backend->infer(PointCloud{});
    EXPECT_DOUBLE_EQ(run.totalSec(), 3e-3); // serial: ds + fc
    EXPECT_DOUBLE_EQ(backend->estimateServiceSec(), 3e-3);
}

TEST(ExecutionBackend, BaseInferBatchLoopsSoloInfer)
{
    /** A backend that overrides only infer(): a real functional
     * run with size-dependent modeled latencies, batched by the
     * base inferBatch() loop. */
    class SoloOnlyBackend : public ExecutionBackend
    {
      public:
        explicit SoloOnlyBackend(const PointNet2 &net) : net_(net) {}
        const std::string &name() const override { return nm; }
        const std::string &resource() const override { return nm; }
        BackendInference
        infer(const PointCloud &input, FrameWorkspace *) const override
        {
            RunOptions opts;
            opts.ds = DsMethod::BruteKnn;
            BackendInference out;
            out.backend = nm;
            out.output = net_.run(input, opts);
            out.dsSec = 1e-6 * static_cast<double>(input.size());
            out.fcSec = 3e-6 * static_cast<double>(input.size());
            out.dsFcOverlap = false;
            return out;
        }
        const PointNet2 &model() const override { return net_; }

      private:
        const PointNet2 &net_;
        std::string nm = "solo-only";
    };

    const PointNet2 net(tinyClassifier());
    const SoloOnlyBackend solo_only(net);
    const ExecutionBackend &backend = solo_only;
    std::vector<PointCloud> clouds;
    for (std::size_t f = 0; f < 3; ++f) {
        Rng rng(90 + f);
        PointCloud cloud;
        for (std::size_t p = 0; p < 256 + 16 * f; ++p) {
            cloud.add({rng.uniform(0.0f, 1.0f),
                       rng.uniform(0.0f, 1.0f),
                       rng.uniform(0.0f, 1.0f)});
        }
        clouds.push_back(std::move(cloud));
    }
    const std::vector<const PointCloud *> inputs = {
        &clouds[0], &clouds[1], &clouds[2]};

    Tracer::global().setEnabled(false);
    Tracer::global().clear();
    Tracer::global().setEnabled(true);
    const BatchInference batch = backend.inferBatch(inputs);
    Tracer::global().setEnabled(false);
    std::size_t batch_spans = 0;
    for (const TraceEvent &ev : Tracer::global().snapshot()) {
        if (ev.name == "infer:solo-only:batch3")
            ++batch_spans;
    }
    Tracer::global().clear();
#ifdef HGPCN_TRACING_DISABLED
    EXPECT_EQ(batch_spans, 0u);
#else
    EXPECT_EQ(batch_spans, 1u);
#endif

    ASSERT_EQ(batch.frames.size(), 3u);
    double total = 0.0;
    for (std::size_t f = 0; f < 3; ++f) {
        const BackendInference solo = backend.infer(clouds[f]);
        const BackendInference &got = batch.frames[f];
        EXPECT_EQ(got.output.labels, solo.output.labels);
        EXPECT_EQ(got.output.logits.data(), solo.output.logits.data());
        EXPECT_EQ(got.dsSec, solo.dsSec);
        EXPECT_EQ(got.fcSec, solo.fcSec);
        total += got.totalSec();
    }
    EXPECT_EQ(batch.batchSec, total);
}

// ---------------------------------------------- Backends vs models

TEST(HgpcnBackend, MatchesInferenceEngineBitForBit)
{
    const PointNet2 net(tinyClassifier());
    const InferenceEngine engine;
    const HgpcnBackend backend(engine, net);
    const PointCloud input = backendProbeCloud(256);

    const InferenceResult serial = engine.run(net, input, nullptr);
    const BackendInference lifted = backend.infer(input);

    EXPECT_EQ(lifted.backend, "hgpcn");
    EXPECT_EQ(lifted.output.labels, serial.output.labels);
    EXPECT_DOUBLE_EQ(lifted.dsSec, serial.dsu.pipelinedSec);
    EXPECT_DOUBLE_EQ(lifted.fcSec, serial.fcu.totalSec());
    EXPECT_DOUBLE_EQ(lifted.totalSec(), serial.totalSec());
}

TEST(MesorasiBackend, InferTimesTheBruteTrace)
{
    const PointNet2 net(tinyClassifier());
    const InferenceEngine::Config cfg;
    const MesorasiBackend backend(cfg, net);
    const PointCloud input = backendProbeCloud(256);

    const RunOutput brute = bruteRun(net, input, cfg);
    const BackendInference timed = backend.time(brute.trace);

    const BackendInference lifted = backend.infer(input);
    EXPECT_EQ(lifted.backend, "mesorasi");
    EXPECT_EQ(lifted.output.labels, brute.labels);
    EXPECT_DOUBLE_EQ(lifted.dsSec, timed.dsSec);
    EXPECT_DOUBLE_EQ(lifted.fcSec, timed.fcSec);
    EXPECT_DOUBLE_EQ(lifted.totalSec(), timed.totalSec());
}

TEST(PointAccBackend, InferTimesTheBruteTrace)
{
    const PointNet2 net(tinyClassifier());
    const InferenceEngine::Config cfg;
    const PointAccBackend backend(cfg, net);
    const PointCloud input = backendProbeCloud(256);

    const RunOutput brute = bruteRun(net, input, cfg);
    const BackendInference timed = backend.time(brute.trace);

    const BackendInference lifted = backend.infer(input);
    EXPECT_EQ(lifted.backend, "pointacc");
    EXPECT_EQ(lifted.output.labels, brute.labels);
    EXPECT_DOUBLE_EQ(lifted.dsSec, timed.dsSec);
    EXPECT_DOUBLE_EQ(lifted.fcSec, timed.fcSec);
    EXPECT_DOUBLE_EQ(lifted.totalSec(), timed.totalSec());
}

TEST(CpuBruteBackend, SerialSumMatchesDeviceModel)
{
    const PointNet2 net(tinyClassifier());
    const InferenceEngine::Config cfg;
    const CpuBruteBackend backend(cfg, net);
    const PointCloud input = backendProbeCloud(256);

    const RunOutput brute = bruteRun(net, input, cfg);
    const DeviceModel cpu(DeviceModel::xeonW2255());

    const BackendInference lifted = backend.infer(input);
    EXPECT_EQ(lifted.backend, "cpu-brute");
    EXPECT_EQ(lifted.output.labels, brute.labels);
    EXPECT_FALSE(lifted.dsFcOverlap);
    EXPECT_DOUBLE_EQ(lifted.totalSec(),
                     lifted.dsSec + lifted.fcSec);
    EXPECT_DOUBLE_EQ(lifted.totalSec(),
                     cpu.inferenceSec(brute.trace));
}

TEST(ExecutionBackend, ServiceEstimateIsDeterministicAndCached)
{
    const PointNet2 net(tinyClassifier());
    const InferenceEngine engine;
    const HgpcnBackend a(engine, net);
    const HgpcnBackend b(engine, net);
    const double first = a.estimateServiceSec();
    EXPECT_GT(first, 0.0);
    EXPECT_DOUBLE_EQ(a.estimateServiceSec(), first); // cached
    EXPECT_DOUBLE_EQ(b.estimateServiceSec(), first); // reproducible
    // The probe is the backend's own cycle model on a K-point frame.
    EXPECT_DOUBLE_EQ(first,
                     a.infer(backendProbeCloud(256)).totalSec());
}

// ------------------------------------------------- Fixed outputs

/** Labels and modeled seconds (by bit pattern) of one frame. */
void
hashInference(digest::Fnv1a &fnv, const BackendInference &r)
{
    fnv.value(r.output.labels.size());
    for (std::size_t label : r.output.labels)
        fnv.value(label);
    fnv.value(r.dsSec);
    fnv.value(r.fcSec);
    fnv.value(r.totalSec());
    fnv.value(r.dsFcOverlap);
}

/** FNV-1a over two solo infer() calls and one 3-frame inferBatch()
 * of registry backend @p name: pins every modeled number and label
 * of both execution paths. */
std::uint64_t
backendDigest(const char *name)
{
    const PointNet2 net(tinyClassifier());
    const auto backend = makeBackend(name, InferenceEngine::Config{}, net);
    digest::Fnv1a fnv;
    for (std::size_t points : {256u, 160u})
        hashInference(fnv, backend->infer(backendProbeCloud(points)));

    std::vector<PointCloud> clouds;
    for (std::size_t points : {256u, 224u, 192u})
        clouds.push_back(backendProbeCloud(points));
    std::vector<const PointCloud *> ptrs;
    for (const PointCloud &c : clouds)
        ptrs.push_back(&c);
    const BatchInference batch = backend->inferBatch(ptrs);
    for (const BackendInference &f : batch.frames)
        hashInference(fnv, f);
    fnv.value(batch.batchSec);
    return fnv.h;
}

TEST(BackendDigest, Hgpcn)
{
    EXPECT_EQ(backendDigest("hgpcn"), 0x14215042c6b654bcull);
}

TEST(BackendDigest, Mesorasi)
{
    EXPECT_EQ(backendDigest("mesorasi"), 0x9dbabbf53a24c9d3ull);
}

TEST(BackendDigest, PointAcc)
{
    EXPECT_EQ(backendDigest("pointacc"), 0x2f32c916d49a2274ull);
}

TEST(BackendDigest, CpuBrute)
{
    EXPECT_EQ(backendDigest("cpu-brute"), 0x92b979d4e7181af5ull);
}

// -------------------------------------- Backend-parameterized runner

TEST(StreamRunner, NonFpgaBackendFreesTheFpgaForDownSampling)
{
    // A GPU backend occupies its own device, so the "fpga" resource
    // carries only the down-sampler and the inference stage reports
    // the backend's resource.
    const SensorStream stream = tinyLidarStream(1, 3);
    const std::vector<Frame> frames = stream.framesOfSensor(0);

    const PreprocessingEngine pre;
    const PointNet2 net(tinyClassifier());
    const MesorasiBackend backend(InferenceEngine::Config{}, net);

    StreamRunner::Config rc;
    rc.inputPoints = 256;
    StreamRunner runner(pre, backend, rc);
    const RuntimeResult rt = runner.run(frames);

    ASSERT_EQ(rt.report.stages.size(), 3u);
    EXPECT_EQ(rt.report.stages[1].resource, "fpga");
    EXPECT_EQ(rt.report.stages[2].resource, "gpu");
    EXPECT_EQ(rt.report.framesProcessed, frames.size());
}

// ------------------------------------------- Heterogeneous serving

TEST(ShardedRunner, MixedFleetAttributesPerBackend)
{
    // Acceptance: a 2-backend fleet yields a ServingReport whose
    // per-backend slices carry the right counts and verdicts.
    const SensorStream stream = tinyLidarStream(2, 3);
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.placement = PlacementPolicy::RoundRobin;
    sc.backends = {"hgpcn", "mesorasi"};
    ShardedRunner runner(cfg, tinyClassifier(), sc);
    EXPECT_EQ(runner.shardBackend(0).name(), "hgpcn");
    EXPECT_EQ(runner.shardBackend(1).name(), "mesorasi");

    const ServingResult served = runner.serve(stream);
    const ServingReport &rep = served.report;

    ASSERT_EQ(rep.shardBackends.size(), 2u);
    EXPECT_EQ(rep.shardBackends[0], "hgpcn");
    EXPECT_EQ(rep.shardBackends[1], "mesorasi");

    ASSERT_EQ(rep.backends.size(), 2u);
    const BackendServingReport &hg = rep.backends[0];
    const BackendServingReport &me = rep.backends[1];
    EXPECT_EQ(hg.backend, "hgpcn");
    EXPECT_EQ(me.backend, "mesorasi");
    EXPECT_EQ(hg.shards, 1u);
    EXPECT_EQ(me.shards, 1u);
    // Round-robin over 6 frames: 3 each, all completed.
    EXPECT_EQ(hg.framesIn, 3u);
    EXPECT_EQ(me.framesIn, 3u);
    EXPECT_EQ(hg.framesDone + me.framesDone,
              rep.framesProcessed);
    EXPECT_EQ(hg.framesMissed, 0u);
    EXPECT_EQ(me.framesMissed, 0u);
    // Paced serve: both backends race the traffic routed to them.
    EXPECT_GT(hg.offeredFps, 0.0);
    EXPECT_GT(me.offeredFps, 0.0);
    EXPECT_NE(hg.realTime, RealTimeVerdict::NotApplicable);
    EXPECT_NE(me.realTime, RealTimeVerdict::NotApplicable);
    EXPECT_GT(hg.sustainedFps, 0.0);
    EXPECT_GT(me.sustainedFps, 0.0);
    EXPECT_GE(hg.maxLatencySec, hg.p99LatencySec);
    EXPECT_GE(me.maxLatencySec, me.p99LatencySec);

    // Frames completed on the shard of their attributed backend.
    for (const ServedFrame &sf : served.frames)
        EXPECT_EQ(sf.shard, sf.globalIndex % 2);

    // Per-sensor Section VII-E verdicts stay present and tri-state.
    ASSERT_EQ(rep.sensors.size(), 2u);
    for (const SensorServingReport &sr : rep.sensors)
        EXPECT_NE(sr.realTime, RealTimeVerdict::NotApplicable);
}

TEST(ShardedRunner, HomogeneousShorthandAndUnknownBackend)
{
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.backends = {"pointacc"}; // one name -> whole fleet
    ShardedRunner runner(cfg, tinyClassifier(), sc);
    EXPECT_EQ(runner.shardBackend(0).name(), "pointacc");
    EXPECT_EQ(runner.shardBackend(1).name(), "pointacc");

    sc.backends = {"hgpcn", "warp-drive"};
    EXPECT_EXIT(ShardedRunner(cfg, tinyClassifier(), sc),
                ::testing::ExitedWithCode(1),
                "unknown execution backend 'warp-drive'");
}

TEST(Placement, LeastLoadedHonorsPerShardServiceTimes)
{
    // Two shards, one 10x slower: the fast shard drains between
    // arrivals more often and must absorb strictly more frames.
    SensorStream stream;
    stream.sensorCount = 1;
    for (std::size_t i = 0; i < 6; ++i) {
        Frame frame;
        frame.name = std::string("f").append(std::to_string(i));
        frame.timestamp = 0.05 * static_cast<double>(i);
        stream.frames.push_back(std::move(frame));
        stream.sensors.push_back(0);
    }
    const auto assignment =
        assignShards(stream, 2, PlacementPolicy::LeastLoaded,
                     std::vector<double>{0.1, 1.0});
    // Hand-simulated join-shortest-queue with retirement:
    const std::vector<std::size_t> expect = {0, 1, 0, 0, 0, 1};
    EXPECT_EQ(assignment, expect);
}

TEST(ShardedRunner, LeastLoadedDerivesServiceFromBackendEstimates)
{
    // Satellite fix: with assumedServiceSec unset, join-shortest-
    // queue retires each shard's backlog at its own backend's
    // cost-model estimate. Pace the sensors between the two
    // estimates so the faster backend keeps draining while the
    // slower one queues — the faster backend must then be handed
    // more frames than a homogeneity-assuming dispatcher would
    // give the slow one.
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.placement = PlacementPolicy::LeastLoaded;
    sc.backends = {"hgpcn", "cpu-brute"};
    ShardedRunner runner(cfg, tinyClassifier(), sc);

    const double fast = runner.shardBackend(0).estimateServiceSec();
    const double slow = runner.shardBackend(1).estimateServiceSec();
    ASSERT_GT(slow, fast) << "cpu-brute should be the slow backend";

    const double period = std::sqrt(fast * slow); // between the two
    const SensorStream stream =
        tinyLidarStream(2, 6, /*rate_hz=*/1.0 / (2.0 * period));

    const ServingResult served = runner.serve(stream);
    ASSERT_EQ(served.report.backends.size(), 2u);
    const BackendServingReport &hg = served.report.backends[0];
    const BackendServingReport &cpu = served.report.backends[1];
    EXPECT_EQ(hg.backend, "hgpcn");
    EXPECT_EQ(cpu.backend, "cpu-brute");
    EXPECT_EQ(hg.framesIn + cpu.framesIn, stream.size());
    EXPECT_GT(hg.framesIn, cpu.framesIn)
        << "service-aware JSQ must favor the faster backend";
}

} // namespace
} // namespace hgpcn
