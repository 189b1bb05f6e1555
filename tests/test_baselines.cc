/**
 * @file
 * Tests for the PointACC and Mesorasi baseline accelerator models:
 * the backends' time() over hand-built brute-force traces.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "backends/mesorasi_backend.h"
#include "backends/point_acc_backend.h"
#include "sim/bitonic_sorter.h"
#include "sim/fcu_dla.h"

namespace hgpcn
{
namespace
{

/** The replica the backends under test bind to (time() never runs
 * it). */
const PointNet2 &
net()
{
    static const PointNet2 replica(PointNet2Spec::classification(5));
    return replica;
}

const PointAccBackend &
pointAcc()
{
    static const PointAccBackend backend(InferenceEngine::Config{},
                                         net());
    return backend;
}

const MesorasiBackend &
mesorasi()
{
    static const MesorasiBackend backend(InferenceEngine::Config{},
                                         net());
    return backend;
}

ExecutionTrace
bruteTrace(std::uint64_t centroids, std::uint64_t k,
           std::uint64_t input_points)
{
    ExecutionTrace trace;
    GatherOp op;
    op.layer = "sa0";
    op.method = "KNN-brute";
    op.centroids = centroids;
    op.k = k;
    op.inputPoints = input_points;
    op.stats.set("gather.distance_computations",
                 centroids * input_points);
    op.stats.set("gather.sort_candidates", centroids * input_points);
    trace.gathers.push_back(op);
    trace.gemms.push_back(
        {"sa0.fc0", centroids * k, 3 + 64, 64});
    return trace;
}

// -------------------------------------------------------- PointACC

TEST(PointAcc, MappingScalesWithInputSize)
{
    const auto small = pointAcc().time(bruteTrace(512, 32, 1024));
    const auto large = pointAcc().time(bruteTrace(512, 32, 16384));
    EXPECT_GT(large.dsSec, small.dsSec);
}

TEST(PointAcc, SortCandidatesAreFullRange)
{
    // Every centroid streams the full 4096-point cloud through 4
    // distance units and a full-range bitonic top-K.
    const SimConfig cfg = SimConfig::defaults();
    const BitonicSorterSim sorter(cfg.fpga.bitonicLanes);
    const std::uint64_t cycles =
        512u * ((4096u + 3u) / 4u + sorter.topKCycles(4096, 32));
    const auto result = pointAcc().time(bruteTrace(512, 32, 4096));
    EXPECT_DOUBLE_EQ(result.dsSec, static_cast<double>(cycles) /
                                       cfg.fpga.acceleratorClockHz);
}

TEST(PointAcc, TotalIsOverlapMax)
{
    const auto result = pointAcc().time(bruteTrace(512, 32, 4096));
    EXPECT_TRUE(result.dsFcOverlap);
    EXPECT_DOUBLE_EQ(result.totalSec(),
                     std::max(result.dsSec, result.fcSec));
}

TEST(PointAcc, FcMatchesSharedFcuModel)
{
    const auto trace = bruteTrace(256, 16, 2048);
    const auto result = pointAcc().time(trace);
    EXPECT_DOUBLE_EQ(result.fcSec, FcuSim(SimConfig::defaults())
                                       .run(trace)
                                       .totalSec());
}

// -------------------------------------------------------- Mesorasi

TEST(Mesorasi, DsRunsOnGpuModel)
{
    const auto trace = bruteTrace(512, 32, 4096);
    const auto result = mesorasi().time(trace);
    const DeviceModel gpu(DeviceModel::tx2MobileGpu());
    EXPECT_DOUBLE_EQ(result.dsSec, gpu.dsSec(trace));
}

TEST(Mesorasi, DelayedAggregationShrinksFc)
{
    const auto trace = bruteTrace(512, 32, 1024);
    const auto result = mesorasi().time(trace);
    // Grouped rows = 512*32 = 16k but unique inputs = 1024: the
    // delayed-aggregation FC must be far below the grouped FC.
    const double grouped_fc =
        FcuSim(SimConfig::defaults()).run(trace).totalSec();
    EXPECT_LT(result.fcSec, grouped_fc);
}

TEST(Mesorasi, DsDominatesTotal)
{
    // Paper Section VII-D: "the inference speed is still largely
    // limited by the latency of the data structuring step".
    const auto result = mesorasi().time(bruteTrace(1024, 32, 4096));
    EXPECT_DOUBLE_EQ(result.totalSec(), result.dsSec);
    EXPECT_GT(result.dsSec, result.fcSec);
}

TEST(Mesorasi, NonSaLayersNotScaled)
{
    ExecutionTrace trace;
    trace.gemms.push_back({"head.fc0", 1024, 128, 64});
    const auto result = mesorasi().time(trace);
    EXPECT_DOUBLE_EQ(result.fcSec, FcuSim(SimConfig::defaults())
                                       .run(trace)
                                       .totalSec());
}

} // namespace
} // namespace hgpcn
