/**
 * @file
 * Cross-module property sweeps (parameterized gtest suites).
 *
 * Each suite states one invariant and drives it across a grid of
 * configurations: sampler kinds x K, cloud distributions x octree
 * configs, VEG modes x gathering sizes, traffic traces x elastic
 * serving. These are the regression nets behind the paper's
 * claims.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>

#include "common/rng.h"
#include "core/hgpcn_system.h"
#include "datasets/coherent_drive.h"
#include "datasets/traffic_gen.h"
#include "gather/brute_gatherers.h"
#include "serving/autoscaler.h"
#include "gather/veg_gatherer.h"
#include "sampling/approx_ois_sampler.h"
#include "sampling/fps_sampler.h"
#include "sampling/ois_fps_sampler.h"
#include "sampling/random_sampler.h"
#include "serving/sharded_runner.h"
#include "sim/bitonic_sorter.h"
#include "sim/fault_plan.h"
#include "sim/systolic_array.h"

namespace hgpcn
{
namespace
{

// ------------------------------------------------ cloud generators

/** Synthetic distribution families exercising different octrees. */
enum class CloudKind
{
    Uniform,
    Clustered,
    Planar,
    Diagonal,
    WithDuplicates,
};

const char *
toString(CloudKind kind)
{
    switch (kind) {
      case CloudKind::Uniform:
        return "Uniform";
      case CloudKind::Clustered:
        return "Clustered";
      case CloudKind::Planar:
        return "Planar";
      case CloudKind::Diagonal:
        return "Diagonal";
      case CloudKind::WithDuplicates:
        return "WithDuplicates";
    }
    return "?";
}

PointCloud
makeCloud(CloudKind kind, std::size_t n, std::uint64_t seed)
{
    PointCloud cloud;
    cloud.reserve(n);
    Rng rng(seed);
    switch (kind) {
      case CloudKind::Uniform:
        for (std::size_t i = 0; i < n; ++i) {
            cloud.add({rng.uniform(0.0f, 1.0f),
                       rng.uniform(0.0f, 1.0f),
                       rng.uniform(0.0f, 1.0f)});
        }
        break;
      case CloudKind::Clustered:
        for (std::size_t i = 0; i < n; ++i) {
            const float cx = (i % 4) * 0.25f + 0.1f;
            const float cy = ((i / 4) % 4) * 0.25f + 0.1f;
            cloud.add(
                {cx + 0.01f * static_cast<float>(rng.normal()),
                 cy + 0.01f * static_cast<float>(rng.normal()),
                 0.5f + 0.01f * static_cast<float>(rng.normal())});
        }
        break;
      case CloudKind::Planar:
        for (std::size_t i = 0; i < n; ++i) {
            cloud.add({rng.uniform(0.0f, 1.0f),
                       rng.uniform(0.0f, 1.0f),
                       0.3f + rng.uniform(0.0f, 0.002f)});
        }
        break;
      case CloudKind::Diagonal:
        for (std::size_t i = 0; i < n; ++i) {
            const float t = rng.uniform(0.0f, 1.0f);
            cloud.add({t + rng.uniform(0.0f, 0.01f),
                       t + rng.uniform(0.0f, 0.01f),
                       t + rng.uniform(0.0f, 0.01f)});
        }
        break;
      case CloudKind::WithDuplicates:
        for (std::size_t i = 0; i < n; ++i) {
            if (i % 3 == 0) {
                cloud.add({0.5f, 0.5f, 0.5f});
            } else {
                cloud.add({rng.uniform(0.0f, 1.0f),
                           rng.uniform(0.0f, 1.0f),
                           rng.uniform(0.0f, 1.0f)});
            }
        }
        break;
    }
    return cloud;
}

// -------------------------------------------- sampler x K invariants

/** Factory of every sampler implementation. */
std::unique_ptr<Sampler>
makeSampler(const std::string &kind)
{
    if (kind == "FPS")
        return std::make_unique<FpsSampler>(3);
    if (kind == "FPS-naive")
        return std::make_unique<NaiveFpsSampler>(3);
    if (kind == "RS")
        return std::make_unique<RandomSampler>(3);
    if (kind == "RS+reinforce")
        return std::make_unique<ReinforcedRandomSampler>(3);
    if (kind == "OIS")
        return std::make_unique<OisFpsSampler>();
    if (kind == "OIS-approx")
        return std::make_unique<ApproxOisSampler>();
    return nullptr;
}

class SamplerSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::size_t>>
{
};

TEST_P(SamplerSweep, ReturnsKDistinctValidIndices)
{
    const auto [kind, k] = GetParam();
    const PointCloud cloud = makeCloud(CloudKind::Uniform, 600, 11);
    auto sampler = makeSampler(kind);
    ASSERT_NE(sampler, nullptr);
    const SampleResult result = sampler->sample(cloud, k);
    ASSERT_EQ(result.indices.size(), k);
    std::set<PointIndex> unique(result.indices.begin(),
                                result.indices.end());
    EXPECT_EQ(unique.size(), k);
    for (PointIndex i : result.indices)
        EXPECT_LT(i, cloud.size());
}

TEST_P(SamplerSweep, DeterministicAcrossRuns)
{
    const auto [kind, k] = GetParam();
    const PointCloud cloud = makeCloud(CloudKind::Clustered, 600, 13);
    auto a = makeSampler(kind);
    auto b = makeSampler(kind);
    EXPECT_EQ(a->sample(cloud, k).indices,
              b->sample(cloud, k).indices);
}

TEST_P(SamplerSweep, HandlesClusteredAndDuplicateClouds)
{
    const auto [kind, k] = GetParam();
    for (const CloudKind cloud_kind :
         {CloudKind::Clustered, CloudKind::WithDuplicates,
          CloudKind::Planar}) {
        const PointCloud cloud = makeCloud(cloud_kind, 500, 17);
        auto sampler = makeSampler(kind);
        const SampleResult result = sampler->sample(cloud, k);
        std::set<PointIndex> unique(result.indices.begin(),
                                    result.indices.end());
        EXPECT_EQ(unique.size(), k) << toString(cloud_kind);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SamplerSweep,
    ::testing::Combine(::testing::Values("FPS", "FPS-naive", "RS",
                                         "RS+reinforce", "OIS",
                                         "OIS-approx"),
                       ::testing::Values(std::size_t{1},
                                         std::size_t{16},
                                         std::size_t{128})),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        for (auto &c : name)
            if (c == '+' || c == '-')
                c = '_';
        return name + "_k" + std::to_string(std::get<1>(info.param));
    });

// ------------------------------------- octree x distribution sweep

class OctreeDistributionSweep
    : public ::testing::TestWithParam<CloudKind>
{
};

TEST_P(OctreeDistributionSweep, BuildInvariantsHold)
{
    const PointCloud cloud = makeCloud(GetParam(), 1500, 19);
    Octree::Config cfg;
    cfg.maxDepth = 10;
    cfg.leafCapacity = 8;
    const Octree tree = Octree::build(cloud, cfg);
    EXPECT_GT(tree.validate(), 0u);

    // Codes sorted, permutation valid, leaves partition the range.
    const auto &codes = tree.pointCodes();
    for (std::size_t i = 1; i < codes.size(); ++i)
        EXPECT_LE(codes[i - 1], codes[i]);
    std::set<PointIndex> perm(tree.permutation().begin(),
                              tree.permutation().end());
    EXPECT_EQ(perm.size(), cloud.size());

    std::size_t leaf_points = 0;
    for (const OctreeNode &node : tree.nodes())
        if (node.isLeaf())
            leaf_points += node.count();
    EXPECT_EQ(leaf_points, cloud.size());
}

TEST_P(OctreeDistributionSweep, OisSamplesAllDistributions)
{
    const PointCloud cloud = makeCloud(GetParam(), 1200, 23);
    OisFpsSampler sampler;
    const SampleResult result = sampler.sample(cloud, 200);
    std::set<PointIndex> unique(result.indices.begin(),
                                result.indices.end());
    EXPECT_EQ(unique.size(), 200u);
}

TEST_P(OctreeDistributionSweep, FindLeafConsistentWithVoxelRange)
{
    const PointCloud cloud = makeCloud(GetParam(), 800, 29);
    Octree::Config cfg;
    cfg.maxDepth = 9;
    const Octree tree = Octree::build(cloud, cfg);
    for (PointIndex i = 0; i < 50; ++i) {
        const Vec3 &p = tree.reorderedCloud().position(
            (i * 13) % static_cast<PointIndex>(cloud.size()));
        const NodeIndex leaf = tree.findLeaf(p);
        const auto [first, last] = tree.voxelRange(
            tree.node(leaf).code, tree.node(leaf).level);
        EXPECT_EQ(first, tree.node(leaf).pointBegin);
        EXPECT_EQ(last, tree.node(leaf).pointEnd);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, OctreeDistributionSweep,
    ::testing::Values(CloudKind::Uniform, CloudKind::Clustered,
                      CloudKind::Planar, CloudKind::Diagonal,
                      CloudKind::WithDuplicates),
    [](const auto &info) { return toString(info.param); });

// ----------------------------------------- VEG mode x K sweep

class VegSweep : public ::testing::TestWithParam<
                     std::tuple<VegMode, std::size_t>>
{
};

TEST_P(VegSweep, KUniqueNeighborsOnEveryDistribution)
{
    const auto [mode, k] = GetParam();
    for (const CloudKind kind :
         {CloudKind::Uniform, CloudKind::Clustered,
          CloudKind::Planar}) {
        const PointCloud cloud = makeCloud(kind, 1200, 31);
        Octree::Config cfg;
        cfg.maxDepth = 10;
        const Octree tree = Octree::build(cloud, cfg);
        VegKnn::Config veg_cfg;
        veg_cfg.mode = mode;
        VegKnn veg(tree, veg_cfg);
        std::vector<PointIndex> centrals;
        for (PointIndex c = 0; c < 16; ++c)
            centrals.push_back(c * 70);
        const GatherResult result = veg.gather(centrals, k);
        for (std::size_t c = 0; c < centrals.size(); ++c) {
            const auto neigh = result.of(c);
            std::set<PointIndex> unique(neigh.begin(), neigh.end());
            EXPECT_EQ(unique.size(), k)
                << toString(kind) << " centroid " << c;
        }
    }
}

TEST_P(VegSweep, TracesAccountForK)
{
    const auto [mode, k] = GetParam();
    const PointCloud cloud = makeCloud(CloudKind::Uniform, 1500, 37);
    Octree::Config cfg;
    cfg.maxDepth = 10;
    const Octree tree = Octree::build(cloud, cfg);
    VegKnn::Config veg_cfg;
    veg_cfg.mode = mode;
    VegKnn veg(tree, veg_cfg);
    std::vector<PointIndex> centrals = {10, 500, 999};
    const GatherResult result = veg.gather(centrals, k);
    for (const VegTrace &trace : result.traces) {
        EXPECT_GE(trace.innerPoints + trace.lastRingPoints, k);
        EXPECT_GT(trace.tableLookups, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VegSweep,
    ::testing::Combine(::testing::Values(VegMode::Paper,
                                         VegMode::Strict,
                                         VegMode::SemiApprox),
                       ::testing::Values(std::size_t{4},
                                         std::size_t{16},
                                         std::size_t{64})),
    [](const auto &info) {
        std::string mode = toString(std::get<0>(info.param));
        for (auto &c : mode)
            if (c == '-')
                c = '_';
        return mode + "_k" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------- strict == brute (sweep)

class StrictExactSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(StrictExactSweep, StrictVegMatchesBruteDistances)
{
    const std::size_t k = GetParam();
    const PointCloud cloud = makeCloud(CloudKind::Clustered, 900, 41);
    Octree::Config cfg;
    cfg.maxDepth = 10;
    const Octree tree = Octree::build(cloud, cfg);
    VegKnn::Config veg_cfg;
    veg_cfg.mode = VegMode::Strict;
    VegKnn veg(tree, veg_cfg);
    BruteKnn brute(tree.reorderedCloud());
    std::vector<PointIndex> centrals = {5, 250, 777};
    const auto rv = veg.gather(centrals, k);
    const auto rb = brute.gather(centrals, k);
    for (std::size_t c = 0; c < centrals.size(); ++c) {
        const Vec3 anchor =
            tree.reorderedCloud().position(centrals[c]);
        float worst_v = 0.0f, worst_b = 0.0f;
        for (PointIndex i : rv.of(c)) {
            worst_v = std::max(
                worst_v,
                tree.reorderedCloud().position(i).distSq(anchor));
        }
        for (PointIndex i : rb.of(c)) {
            worst_b = std::max(
                worst_b,
                tree.reorderedCloud().position(i).distSq(anchor));
        }
        EXPECT_FLOAT_EQ(worst_v, worst_b);
    }
}

INSTANTIATE_TEST_SUITE_P(Ks, StrictExactSweep,
                         ::testing::Values(std::size_t{2},
                                           std::size_t{8},
                                           std::size_t{32},
                                           std::size_t{96}));

// ------------------------------------------- hardware-model sweeps

class BitonicSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BitonicSweep, TopKNeverExceedsTwiceFullSortPlusMerges)
{
    const std::size_t lanes = GetParam();
    const BitonicSorterSim sorter(lanes);
    for (std::uint64_t n = 4; n <= (1u << 14); n *= 4) {
        EXPECT_GT(sorter.topKCycles(n, 16), 0u);
        EXPECT_GE(sorter.sortCycles(2 * n), sorter.sortCycles(n));
    }
}

INSTANTIATE_TEST_SUITE_P(Lanes, BitonicSweep,
                         ::testing::Values(std::size_t{8},
                                           std::size_t{64},
                                           std::size_t{256}));

class SystolicSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t,
                                                 std::size_t>>
{
};

TEST_P(SystolicSweep, SplittingMNeverPaysLessThanFused)
{
    const auto [rows, cols] = GetParam();
    const SystolicArraySim array(rows, cols);
    // Fill/drain amortizes over M: one big GEMM is never slower
    // than two half-size ones.
    const std::uint64_t fused = array.gemmCycles(1000, 64, 64);
    const std::uint64_t split = array.gemmCycles(500, 64, 64) +
                                array.gemmCycles(500, 64, 64);
    EXPECT_LE(fused, split);
}

TEST_P(SystolicSweep, CyclesScaleWithTiles)
{
    const auto [rows, cols] = GetParam();
    const SystolicArraySim array(rows, cols);
    const std::uint64_t base = array.gemmCycles(128, rows, cols);
    EXPECT_EQ(array.gemmCycles(128, rows * 2, cols), 2 * base);
    EXPECT_EQ(array.gemmCycles(128, rows, cols * 2), 2 * base);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SystolicSweep,
    ::testing::Combine(::testing::Values(std::size_t{8},
                                         std::size_t{16},
                                         std::size_t{32}),
                       ::testing::Values(std::size_t{8},
                                         std::size_t{16})));

// ------------------------------------------- traffic / elastic serving

/** (seed, burstFactor, diurnalAmplitude, churn on/off) grid. */
class TrafficSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, double, double, bool>>
{
  protected:
    TrafficGen::Config config() const
    {
        const auto [seed, burst, diurnal, churn] = GetParam();
        TrafficGen::Config cfg;
        cfg.sensors = 6;
        cfg.durationSec = 3.0;
        cfg.baseRateHz = 6.0;
        cfg.rateJitter = 0.25;
        cfg.burstFactor = burst;
        cfg.burstPeriodSec = 1.0;
        cfg.diurnalAmplitude = diurnal;
        cfg.diurnalPeriodSec = 3.0;
        cfg.hotPlugFraction = churn ? 0.5 : 0.0;
        cfg.dropFraction = churn ? 0.5 : 0.0;
        cfg.priorityTiers = 3;
        cfg.cloudPoints = 16;
        cfg.seed = seed;
        return cfg;
    }
};

TEST_P(TrafficSweep, StampsStrictlyIncreaseWithinChurnWindows)
{
    const TrafficGen gen(config());
    const TrafficTrace trace = gen.generate();
    ASSERT_GT(trace.stream.size(), 0u);
    // Strict global monotonicity implies strict per-sensor
    // monotonicity under any placement split.
    for (std::size_t i = 1; i < trace.stream.size(); ++i) {
        EXPECT_LT(trace.stream.frames[i - 1].timestamp,
                  trace.stream.frames[i].timestamp);
    }
    // Every arrival falls inside its sensor's churn window
    // (distinct-stamp nudges move stamps forward <= 0.1 us each).
    for (std::size_t s = 0; s < config().sensors; ++s) {
        for (const Frame &frame :
             trace.stream.framesOfSensor(s)) {
            EXPECT_GE(frame.timestamp, trace.joinSec[s]);
            EXPECT_LT(frame.timestamp, trace.leaveSec[s] + 1e-3);
        }
    }
}

TEST_P(TrafficSweep, ArrivalGapsWithinClosedFormEnvelope)
{
    const TrafficGen::Config cfg = config();
    const TrafficGen gen(cfg);
    const TrafficTrace trace = gen.generate();
    // The burst/diurnal envelope bounds every consecutive gap:
    // rate in [minRateHz, maxRateHz] while active, jitter scales a
    // gap by at most (1 +- rateJitter).
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
            EXPECT_GE(gap, min_gap) << "sensor " << s;
            EXPECT_LE(gap, max_gap) << "sensor " << s;
        }
        // And the instantaneous rate honors the same envelope.
        for (double t = 0.1; t < cfg.durationSec; t += 0.37) {
            const double r = gen.rateAt(s, t);
            if (r > 0.0) {
                EXPECT_GE(r, gen.minRateHz() - 1e-12);
                EXPECT_LE(r, gen.maxRateHz() + 1e-12);
            }
        }
    }
}

TEST_P(TrafficSweep, ElasticServeConservesEveryFrame)
{
    TrafficGen::Config traffic = config();
    traffic.cloudPoints = 300; // enough for the K=256 classifier
    traffic.baseRateHz = 3.0;  // keep the functional work small
    const TrafficTrace trace = TrafficGen(traffic).generate();

    PointNet2Spec spec = PointNet2Spec::classification(5);
    spec.inputPoints = 256;
    spec.sa[0].npoint = 64;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 16;
    spec.sa[1].k = 8;

    ElasticRunner::Config cfg;
    cfg.epochSec = 0.5;
    cfg.fleet.shards = 1;
    // Pinned capacity model far below the offered load, so
    // admission sheds on every parameter point.
    cfg.fleet.assumedServiceSec = 0.15;
    cfg.autoscaler.minShards = 1;
    cfg.autoscaler.maxShards = 2;
    cfg.admission.enabled = true;

    HgPcnSystem::Config system;
    ElasticRunner elastic(system, spec, cfg);
    const ElasticResult result =
        elastic.serve(trace.stream, trace.priority);

    // Conservation: every offered frame is exactly one of
    // processed / dropped / abandoned / shed, in the aggregate and
    // per sensor.
    const ServingReport &rep = result.serving.report;
    EXPECT_EQ(rep.framesIn, trace.stream.size());
    EXPECT_EQ(rep.framesIn,
              rep.framesProcessed + rep.framesDropped +
                  rep.framesAbandoned + rep.framesShed);
    EXPECT_GT(rep.framesShed, 0u);
    std::size_t sensor_in = 0;
    std::size_t sensor_shed = 0;
    for (const SensorServingReport &sr : rep.sensors) {
        EXPECT_EQ(sr.framesIn, sr.framesDone + sr.framesMissed);
        EXPECT_LE(sr.framesShed, sr.framesMissed);
        sensor_in += sr.framesIn;
        sensor_shed += sr.framesShed;
    }
    EXPECT_EQ(sensor_in, rep.framesIn);
    EXPECT_EQ(sensor_shed, rep.framesShed);
    // Epoch logs tell the same story as the merged report.
    std::size_t log_shed = 0;
    std::size_t log_offered = 0;
    for (const EpochLog &ep : result.epochs) {
        log_shed += ep.framesShed;
        log_offered += ep.framesOffered;
    }
    EXPECT_EQ(log_shed, rep.framesShed);
    EXPECT_EQ(log_offered, rep.framesIn);
}

INSTANTIATE_TEST_SUITE_P(
    Traces, TrafficSweep,
    ::testing::Combine(::testing::Values(std::uint64_t{1},
                                         std::uint64_t{77}),
                       ::testing::Values(1.0, 4.0),
                       ::testing::Values(0.0, 0.45),
                       ::testing::Bool()));

// --------------------------------------- temporally-coherent drives

/** (churnFraction, seed) grid over the coherent drive generator. */
class DriveSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>>
{
  protected:
    CoherentDrive::Config config() const
    {
        const auto [churn, seed] = GetParam();
        CoherentDrive::Config cfg;
        cfg.points = 600;
        cfg.churnFraction = churn;
        cfg.seed = seed;
        return cfg;
    }
};

TEST_P(DriveSweep, OverlapMatchesClosedFormEnvelope)
{
    const CoherentDrive drive(config());
    const std::size_t P = config().points;
    const Frame base = drive.generate(2);
    for (std::size_t delta : {1u, 2u, 5u}) {
        const Frame later = drive.generate(2 + delta);
        // Retained slots are bitwise identical at equal index —
        // count them and compare against the closed form exactly.
        std::size_t shared = 0;
        for (PointIndex i = 0; i < P; ++i) {
            const Vec3 &a = base.cloud.position(i);
            const Vec3 &b = later.cloud.position(i);
            if (std::memcmp(&a.x, &b.x, sizeof(float)) == 0 &&
                std::memcmp(&a.y, &b.y, sizeof(float)) == 0 &&
                std::memcmp(&a.z, &b.z, sizeof(float)) == 0)
                ++shared;
        }
        EXPECT_EQ(static_cast<double>(shared) /
                      static_cast<double>(P),
                  drive.overlapFraction(delta))
            << "delta " << delta;
    }
}

TEST_P(DriveSweep, BoundsArePinnedAndStampsMonotone)
{
    const CoherentDrive drive(config());
    const Frame f0 = drive.generate(0);
    const Aabb b0 = f0.cloud.bounds();
    std::vector<Frame> frames;
    for (std::size_t t = 0; t < 6; ++t)
        frames.push_back(drive.generate(t));
    for (const Frame &frame : frames) {
        const Aabb b = frame.cloud.bounds();
        EXPECT_EQ(std::memcmp(&b.lo.x, &b0.lo.x, sizeof(float)), 0);
        EXPECT_EQ(std::memcmp(&b.hi.x, &b0.hi.x, sizeof(float)), 0);
        EXPECT_EQ(frame.cloud.size(), config().points);
    }
    EXPECT_DOUBLE_EQ(streamGenerationFps(frames),
                     config().frameRateHz);
    // Determinism: regenerating a frame reproduces it bitwise.
    const Frame again = drive.generate(3);
    for (PointIndex i = 0; i < config().points; ++i) {
        const Vec3 &a = frames[3].cloud.position(i);
        const Vec3 &b = again.cloud.position(i);
        EXPECT_EQ(std::memcmp(&a.x, &b.x, sizeof(Vec3)), 0);
    }
}

TEST_P(DriveSweep, TemporalCacheEndToEndMatchesOracle)
{
    // The acceptance pin: streaming with the cross-frame cache on
    // must be bit-identical to the from-scratch oracle — sampled
    // tables, inference outputs and every modeled number.
    const CoherentDrive drive(config());
    std::vector<Frame> frames;
    for (std::size_t t = 0; t < 4; ++t)
        frames.push_back(drive.generate(t));

    PointNet2Spec spec = PointNet2Spec::classification(5);
    spec.inputPoints = 256;
    spec.sa[0].npoint = 64;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 16;
    spec.sa[1].k = 8;
    HgPcnSystem::Config sys_cfg;
    sys_cfg.inputPoints = spec.inputPoints;
    const HgPcnSystem system(sys_cfg, spec);

    StreamRunner::Config rc;
    rc.inputPoints = spec.inputPoints;
    rc.paceBySensor = false;
    rc.temporalCache = true;
    const RuntimeResult cached = system.runStream(frames, rc);
    rc.temporalCache = false;
    const RuntimeResult oracle = system.runStream(frames, rc);

    ASSERT_EQ(cached.frames.size(), oracle.frames.size());
    for (std::size_t i = 0; i < cached.frames.size(); ++i) {
        const E2eResult &a = cached.frames[i].result;
        const E2eResult &b = oracle.frames[i].result;
        EXPECT_EQ(a.preprocess.spt, b.preprocess.spt) << "frame " << i;
        EXPECT_EQ(a.preprocess.octreeTableBytes,
                  b.preprocess.octreeTableBytes);
        EXPECT_EQ(a.preprocess.octreeBuildSec,
                  b.preprocess.octreeBuildSec);
        EXPECT_EQ(a.preprocess.dsu.totalSec(),
                  b.preprocess.dsu.totalSec());
        EXPECT_EQ(a.inference.output.labels, b.inference.output.labels);
        ASSERT_EQ(a.inference.output.logits.rows(),
                  b.inference.output.logits.rows());
        for (std::size_t r = 0; r < a.inference.output.logits.rows();
             ++r) {
            for (std::size_t c = 0;
                 c < a.inference.output.logits.cols(); ++c) {
                EXPECT_EQ(a.inference.output.logits.at(r, c),
                          b.inference.output.logits.at(r, c));
            }
        }
        EXPECT_EQ(cached.frames[i].latencySec,
                  oracle.frames[i].latencySec);
    }
    EXPECT_EQ(cached.report.sustainedFps, oracle.report.sustainedFps);
}

INSTANTIATE_TEST_SUITE_P(
    Drives, DriveSweep,
    ::testing::Combine(::testing::Values(0.0, 0.1, 0.5, 1.0),
                       ::testing::Values(std::uint64_t{3},
                                         std::uint64_t{29})));

// ------------------------------------------- fault-tolerant serving

/** (transient error rate, shards, maxBatch) grid: conservation and
 * byte-identical replay must hold at every point — including the
 * rate-0 corner, where the fault layer must also stay inert. */
class FaultSweep
    : public ::testing::TestWithParam<
          std::tuple<double, std::size_t, std::size_t>>
{
  protected:
    /** 4-sensor phase-offset stream over [0, 1). */
    static SensorStream
    stream()
    {
        SensorStream s;
        s.sensorCount = 4;
        Rng rng(11);
        for (std::size_t i = 0; i < 24; ++i) {
            Frame frame;
            frame.timestamp =
                static_cast<double>(i) / 24.0;
            frame.name = std::string("p").append(std::to_string(i));
            frame.cloud.reserve(300);
            for (std::size_t p = 0; p < 300; ++p) {
                frame.cloud.add({rng.uniform(0.0f, 10.0f),
                                 rng.uniform(0.0f, 10.0f),
                                 rng.uniform(0.0f, 3.0f)});
            }
            s.frames.push_back(std::move(frame));
            s.sensors.push_back(i % 4);
        }
        return s;
    }

    static PointNet2Spec
    spec()
    {
        PointNet2Spec spec = PointNet2Spec::classification(5);
        spec.inputPoints = 256;
        spec.sa[0].npoint = 64;
        spec.sa[0].k = 8;
        spec.sa[1].npoint = 16;
        spec.sa[1].k = 8;
        return spec;
    }

    FaultPlan::Config
    planConfig() const
    {
        const auto [rate, shards, batch] = GetParam();
        FaultPlan::Config plan;
        plan.seed = 23;
        plan.errors.push_back({"", rate, 0.0, 0.7});
        // Cover failover in the multi-shard points; with one shard
        // the crash window exercises the all-down terminal path.
        plan.slowdowns.push_back({0, 0.2, 0.5, 1.5});
        plan.crashes.push_back({shards - 1, 0.3, 0.45});
        return plan;
    }

    ShardedRunner::Config
    fleetConfig(const FaultPlan *plan) const
    {
        const auto [rate, shards, batch] = GetParam();
        ShardedRunner::Config cfg;
        cfg.shards = shards;
        cfg.runner.maxBatch = batch;
        cfg.runner.batchTimeoutVirtualSec =
            batch > 1 ? 0.005 : 0.0;
        cfg.faultPlan = plan;
        cfg.faultTolerance.maxAttempts = 2;
        cfg.faultTolerance.backoffBaseSec = 0.001;
        cfg.faultTolerance.breaker.failureThreshold = 5;
        cfg.faultTolerance.breaker.openSec = 0.1;
        return cfg;
    }
};

TEST_P(FaultSweep, ConservationHoldsAtEveryGridPoint)
{
    const auto [rate, shards, batch] = GetParam();
    const FaultPlan plan(planConfig());
    HgPcnSystem::Config system;
    ShardedRunner runner(system, spec(), fleetConfig(&plan));
    const ServingResult result = runner.serve(stream());
    const ServingReport &rep = result.report;

    EXPECT_EQ(rep.framesIn, 24u);
    EXPECT_EQ(rep.framesIn,
              rep.framesProcessed + rep.framesDropped +
                  rep.framesAbandoned + rep.framesShed +
                  rep.framesFailed);
    EXPECT_EQ(result.frames.size(), rep.framesProcessed);
    EXPECT_LE(rep.framesRetried, rep.framesProcessed);
    EXPECT_LE(rep.framesDegraded, rep.framesProcessed);

    std::size_t sensor_in = 0;
    std::size_t sensor_failed = 0;
    for (const SensorServingReport &sr : rep.sensors) {
        EXPECT_EQ(sr.framesIn, sr.framesDone + sr.framesMissed);
        EXPECT_LE(sr.framesFailed, sr.framesMissed);
        sensor_in += sr.framesIn;
        sensor_failed += sr.framesFailed;
    }
    EXPECT_EQ(sensor_in, rep.framesIn);
    EXPECT_EQ(sensor_failed, rep.framesFailed);
    std::size_t backend_failed = 0;
    for (const BackendServingReport &br : rep.backends)
        backend_failed += br.framesFailed;
    EXPECT_EQ(backend_failed, rep.framesFailed);

    if (rate == 0.0) {
        // The only fault source left is the crash window; no
        // transient error can fire, so nothing retries.
        EXPECT_EQ(rep.framesRetried, 0u);
    }
}

TEST_P(FaultSweep, FaultedServeReplaysByteIdentically)
{
    const FaultPlan plan(planConfig());
    HgPcnSystem::Config system;
    ShardedRunner first(system, spec(), fleetConfig(&plan));
    ShardedRunner second(system, spec(), fleetConfig(&plan));
    const ServingResult r1 = first.serve(stream());
    const ServingResult r2 = second.serve(stream());

    EXPECT_EQ(r1.report.toString(), r2.report.toString());
    ASSERT_EQ(r1.frames.size(), r2.frames.size());
    for (std::size_t i = 0; i < r1.frames.size(); ++i) {
        EXPECT_EQ(r1.frames[i].globalIndex,
                  r2.frames[i].globalIndex);
        EXPECT_EQ(r1.frames[i].shard, r2.frames[i].shard);
        EXPECT_EQ(r1.frames[i].doneSec, r2.frames[i].doneSec);
        EXPECT_EQ(r1.frames[i].latencySec,
                  r2.frames[i].latencySec);
    }
    EXPECT_EQ(r1.metrics.countOf("fault.failovers"),
              r2.metrics.countOf("fault.failovers"));
    EXPECT_EQ(r1.metrics.countOf("fault.breaker_trips"),
              r2.metrics.countOf("fault.breaker_trips"));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FaultSweep,
    ::testing::Combine(::testing::Values(0.0, 0.3, 0.9),
                       ::testing::Values(std::size_t{1},
                                         std::size_t{3}),
                       ::testing::Values(std::size_t{1},
                                         std::size_t{3})));

} // namespace
} // namespace hgpcn
