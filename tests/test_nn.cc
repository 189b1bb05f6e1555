/**
 * @file
 * Tests for the neural substrate: tensor ops, MLP blocks and the
 * PointNet++ reference models (shapes, determinism, permutation
 * invariance, trace bookkeeping).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <span>
#include <string>

#include "common/rng.h"
#include "core/frame_workspace.h"
#include "core/preprocessing_engine.h"
#include "datasets/kitti_like.h"
#include "gather/brute_gatherers.h"
#include "gather/veg_gatherer.h"
#include "knn/top_k.h"
#include "nn/gemm_kernel.h"
#include "nn/mlp.h"
#include "nn/pointnet2.h"
#include "nn/tensor.h"
#include "octree/octree.h"

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

/** a * b through the library's GEMM, b packed for it. */
Tensor
gemm(const Tensor &a, const Tensor &b)
{
    Tensor out(a.rows(), b.cols());
    Tensor::matmulRowsInto(a, PackedPanels(b), out, 0, a.rows());
    return out;
}

/** @p t + bias[j] in every row, one add per element. */
Tensor
plusRowBias(Tensor t, const std::vector<float> &bias)
{
    for (std::size_t i = 0; i < t.rows(); ++i)
        for (std::size_t j = 0; j < t.cols(); ++j)
            t.at(i, j) = t.at(i, j) + bias[j];
    return t;
}

// --------------------------------------------------------------- Tensor

TEST(Tensor, MatmulKnownValues)
{
    Tensor a(2, 2), b(2, 2);
    a.at(0, 0) = 1;
    a.at(0, 1) = 2;
    a.at(1, 0) = 3;
    a.at(1, 1) = 4;
    b.at(0, 0) = 5;
    b.at(0, 1) = 6;
    b.at(1, 0) = 7;
    b.at(1, 1) = 8;
    const Tensor c = gemm(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 19);
    EXPECT_FLOAT_EQ(c.at(0, 1), 22);
    EXPECT_FLOAT_EQ(c.at(1, 0), 43);
    EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

TEST(Tensor, MatmulIdentity)
{
    Rng rng(1);
    Tensor a(3, 3);
    a.randomize(rng, 1.0f);
    Tensor eye(3, 3);
    for (int i = 0; i < 3; ++i)
        eye.at(i, i) = 1.0f;
    const Tensor c = gemm(a, eye);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_FLOAT_EQ(c.at(i, j), a.at(i, j));
}

TEST(Tensor, ReluClampsNegatives)
{
    Tensor t(1, 3);
    t.at(0, 0) = -1.0f;
    t.at(0, 1) = 0.0f;
    t.at(0, 2) = 2.0f;
    t.reluInPlace();
    EXPECT_FLOAT_EQ(t.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(t.at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(t.at(0, 2), 2.0f);
}

TEST(Tensor, MaxPoolGroupsTakesColumnwiseMax)
{
    Tensor t(4, 2);
    t.at(0, 0) = 1;
    t.at(1, 0) = 5;
    t.at(2, 0) = 3;
    t.at(3, 0) = 2;
    t.at(0, 1) = -1;
    t.at(1, 1) = -5;
    t.at(2, 1) = -3;
    t.at(3, 1) = -2;
    Tensor pooled(2, 2);
    t.maxPoolGroupsRowsInto(2, 0, 4, pooled, 0);
    EXPECT_FLOAT_EQ(pooled.at(0, 0), 5);
    EXPECT_FLOAT_EQ(pooled.at(0, 1), -1);
    EXPECT_FLOAT_EQ(pooled.at(1, 0), 3);
    EXPECT_FLOAT_EQ(pooled.at(1, 1), -2);
}

TEST(Tensor, ArgmaxRow)
{
    Tensor t(1, 4);
    t.at(0, 2) = 9.0f;
    EXPECT_EQ(t.argmaxRow(0), 2u);
}

// ------------------------------------------------------------------ Mlp

TEST(Mlp, OutputShapeFollowsWidths)
{
    Rng rng(2);
    const Mlp mlp(8, {16, 32}, rng);
    ExecutionTrace trace;
    Tensor x(5, 8);
    x.randomize(rng, 1.0f);
    FrameWorkspace ws;
    ws.beginFrame();
    const Tensor &y = mlp.forwardArena(x, "t", trace, ws, 1);
    EXPECT_EQ(y.rows(), 5u);
    EXPECT_EQ(y.cols(), 32u);
    EXPECT_EQ(mlp.outWidth(), 32u);
}

TEST(Mlp, TraceRecordsEveryGemm)
{
    Rng rng(3);
    const Mlp mlp(4, {8, 8, 2}, rng);
    ExecutionTrace trace;
    Tensor x(10, 4);
    FrameWorkspace ws;
    ws.beginFrame();
    mlp.forwardArena(x, "net", trace, ws, 1);
    ASSERT_EQ(trace.gemms.size(), 3u);
    EXPECT_EQ(trace.gemms[0].m, 10u);
    EXPECT_EQ(trace.gemms[0].k, 4u);
    EXPECT_EQ(trace.gemms[0].n, 8u);
    EXPECT_EQ(trace.gemms[2].n, 2u);
    EXPECT_EQ(trace.gemms[0].layer, "net.fc0");
}

TEST(Mlp, FinalReluOptional)
{
    Rng rng(4);
    // Without final ReLU some outputs should be negative.
    const Mlp mlp(4, {8, 8}, rng, /*final_relu=*/false);
    ExecutionTrace trace;
    Tensor x(20, 4);
    x.randomize(rng, 2.0f);
    FrameWorkspace ws;
    ws.beginFrame();
    const Tensor &y = mlp.forwardArena(x, "t", trace, ws, 1);
    bool has_negative = false;
    for (std::size_t r = 0; r < y.rows(); ++r)
        for (std::size_t c = 0; c < y.cols(); ++c)
            has_negative |= y.at(r, c) < 0.0f;
    EXPECT_TRUE(has_negative);
}

TEST(Mlp, DeterministicGivenSeed)
{
    Rng rng_a(5), rng_b(5);
    const Mlp a(4, {8}, rng_a), b(4, {8}, rng_b);
    ExecutionTrace ta, tb;
    Tensor x(3, 4);
    x.at(0, 0) = 1.0f;
    FrameWorkspace ws;
    ws.beginFrame();
    const Tensor &ya = a.forwardArena(x, "t", ta, ws, 1);
    const Tensor &yb = b.forwardArena(x, "t", tb, ws, 1);
    for (std::size_t c = 0; c < ya.cols(); ++c)
        EXPECT_FLOAT_EQ(ya.at(0, c), yb.at(0, c));
}

// ----------------------------------------------------------- GemmOp

TEST(GemmOp, MacsIsProduct)
{
    const GemmOp op{"x", 10, 20, 30};
    EXPECT_EQ(op.macs(), 6000u);
}

TEST(ExecutionTrace, TotalsAggregate)
{
    ExecutionTrace trace;
    trace.gemms.push_back({"a", 2, 3, 4});
    trace.gemms.push_back({"b", 1, 1, 1});
    EXPECT_EQ(trace.totalMacs(), 25u);

    GatherOp op;
    op.stats.set("gather.distance_computations", 7);
    op.stats.set("gather.sort_candidates", 9);
    trace.gathers.push_back(op);
    EXPECT_EQ(trace.totalGatherDistances(), 7u);
    EXPECT_EQ(trace.totalSortCandidates(), 9u);
}

// ------------------------------------------------------- model specs

TEST(PointNet2Spec, TableOneConfigurations)
{
    const auto cls = PointNet2Spec::classification();
    EXPECT_EQ(cls.inputPoints, 1024u);
    EXPECT_EQ(cls.numClasses, 40u);
    EXPECT_FALSE(cls.segmentation);
    EXPECT_EQ(cls.sa.size(), 3u);
    EXPECT_EQ(cls.sa.back().npoint, 0u); // group-all

    const auto ps = PointNet2Spec::partSegmentation();
    EXPECT_EQ(ps.inputPoints, 2048u);
    EXPECT_TRUE(ps.segmentation);
    EXPECT_EQ(ps.fp.size(), ps.sa.size());

    const auto seg = PointNet2Spec::semanticSegmentation();
    EXPECT_EQ(seg.inputPoints, 4096u);
    EXPECT_EQ(seg.sa.size(), 4u);

    const auto kitti = PointNet2Spec::outdoorSegmentation();
    EXPECT_EQ(kitti.inputPoints, 16384u);
    EXPECT_EQ(kitti.sa[0].npoint, 4096u);
}

// --------------------------------------------------- classification

TEST(PointNet2, ClassificationShapes)
{
    PointNet2Spec spec = PointNet2Spec::classification(10);
    spec.inputPoints = 256;
    spec.sa[0].npoint = 64;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 16;
    spec.sa[1].k = 8;
    const PointNet2 net(spec, 42);
    const PointCloud cloud = randomCloud(256, 7);
    const RunOutput out = net.run(cloud);
    EXPECT_EQ(out.logits.rows(), 1u);
    EXPECT_EQ(out.logits.cols(), 10u);
    EXPECT_EQ(out.labels.size(), 1u);
    EXPECT_LT(out.labels[0], 10u);
}

TEST(PointNet2, DeterministicAcrossRuns)
{
    PointNet2Spec spec = PointNet2Spec::classification(5);
    spec.sa[0].npoint = 32;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 8;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    const PointCloud cloud = randomCloud(128, 8);
    RunOptions opts;
    opts.seed = 3;
    const RunOutput a = net.run(cloud, opts);
    const RunOutput b = net.run(cloud, opts);
    for (std::size_t c = 0; c < a.logits.cols(); ++c)
        EXPECT_FLOAT_EQ(a.logits.at(0, c), b.logits.at(0, c));
}

TEST(PointNet2, GroupAllPermutationInvariant)
{
    // The PointNet symmetric-function property: with group-all only
    // (no sampling randomness), shuffling input points must not
    // change the logits.
    PointNet2Spec spec;
    spec.name = "tiny";
    spec.inputPoints = 64;
    spec.numClasses = 4;
    spec.sa = {{0, 0, 0.0f, {16, 32}}};
    spec.head = {16};
    const PointNet2 net(spec, 42);

    const PointCloud cloud = randomCloud(64, 9);
    std::vector<PointIndex> perm(64);
    std::iota(perm.begin(), perm.end(), 0u);
    Rng rng(10);
    for (std::size_t i = 0; i < perm.size(); ++i)
        std::swap(perm[i], perm[i + rng.below(perm.size() - i)]);
    const PointCloud shuffled = cloud.reordered(perm);

    const RunOutput a = net.run(cloud);
    const RunOutput b = net.run(shuffled);
    for (std::size_t c = 0; c < a.logits.cols(); ++c)
        EXPECT_NEAR(a.logits.at(0, c), b.logits.at(0, c), 1e-3f);
}

TEST(PointNet2, TraceCoversAllSaLayersAndHead)
{
    PointNet2Spec spec = PointNet2Spec::classification(10);
    spec.sa[0].npoint = 32;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 8;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    const RunOutput out = net.run(randomCloud(128, 11));
    // 3 SA layers x 3 MLP layers + head (2 hidden + logits).
    EXPECT_EQ(out.trace.gemms.size(), 9u + 3u);
    // Two gathering SA layers (group-all gathers nothing).
    EXPECT_EQ(out.trace.gathers.size(), 2u);
    EXPECT_GT(out.trace.totalMacs(), 0u);
}

TEST(PointNet2, FpsCentroidsSupported)
{
    PointNet2Spec spec = PointNet2Spec::classification(4);
    spec.sa[0].npoint = 16;
    spec.sa[0].k = 4;
    spec.sa[1].npoint = 4;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    RunOptions opts;
    opts.centroid = CentroidMethod::Fps;
    const RunOutput out = net.run(randomCloud(64, 12), opts);
    EXPECT_EQ(out.logits.cols(), 4u);
}

// ------------------------------------------------------ segmentation

TEST(PointNet2, SegmentationPerPointOutputs)
{
    PointNet2Spec spec = PointNet2Spec::semanticSegmentation(6);
    spec.inputPoints = 256;
    spec.sa[0].npoint = 64;
    spec.sa[1].npoint = 32;
    spec.sa[2].npoint = 16;
    spec.sa[3].npoint = 8;
    for (auto &sa : spec.sa)
        sa.k = 8;
    const PointNet2 net(spec, 42);
    const PointCloud cloud = randomCloud(256, 13);
    const RunOutput out = net.run(cloud);
    EXPECT_EQ(out.logits.rows(), 256u);
    EXPECT_EQ(out.logits.cols(), 6u);
    EXPECT_EQ(out.labels.size(), 256u);
    for (std::size_t label : out.labels)
        EXPECT_LT(label, 6u);
}

TEST(PointNet2, SegmentationTraceHasFpGathers)
{
    PointNet2Spec spec = PointNet2Spec::partSegmentation(8);
    spec.inputPoints = 128;
    spec.sa[0].npoint = 32;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 8;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    const RunOutput out = net.run(randomCloud(128, 14));
    // 2 SA gathers + 3 FP 3-NN gathers.
    EXPECT_EQ(out.trace.gathers.size(), 5u);
}

// -------------------------------------------------------- DS methods

class DsMethodTest : public ::testing::TestWithParam<DsMethod>
{
};

TEST_P(DsMethodTest, AllMethodsProduceValidLogits)
{
    PointNet2Spec spec = PointNet2Spec::classification(5);
    spec.sa[0].npoint = 32;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 8;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    RunOptions opts;
    opts.ds = GetParam();
    const RunOutput out = net.run(randomCloud(256, 15), opts);
    EXPECT_EQ(out.logits.cols(), 5u);
    for (std::size_t c = 0; c < 5; ++c)
        EXPECT_TRUE(std::isfinite(out.logits.at(0, c)));
}

INSTANTIATE_TEST_SUITE_P(Methods, DsMethodTest,
                         ::testing::Values(DsMethod::BruteKnn,
                                           DsMethod::BruteBq,
                                           DsMethod::Veg,
                                           DsMethod::VegBq,
                                           DsMethod::VegStrict));

TEST(PointNet2, VegAndBruteAgreeWithStrictGathering)
{
    // With identical centroids (same seed) and exact gathering,
    // VEG-strict and brute KNN must produce identical logits.
    PointNet2Spec spec = PointNet2Spec::classification(4);
    spec.sa[0].npoint = 16;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 4;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    const PointCloud cloud = randomCloud(128, 16);

    RunOptions brute_opts;
    brute_opts.ds = DsMethod::BruteKnn;
    brute_opts.seed = 5;
    RunOptions veg_opts;
    veg_opts.ds = DsMethod::VegStrict;
    veg_opts.seed = 5;

    const RunOutput a = net.run(cloud, brute_opts);
    const RunOutput b = net.run(cloud, veg_opts);
    for (std::size_t c = 0; c < a.logits.cols(); ++c)
        EXPECT_NEAR(a.logits.at(0, c), b.logits.at(0, c), 1e-3f);
}

TEST(PointNet2, VegWorkloadBelowBrute)
{
    PointNet2Spec spec = PointNet2Spec::semanticSegmentation(4);
    spec.inputPoints = 512;
    spec.sa[0].npoint = 128;
    spec.sa[1].npoint = 64;
    spec.sa[2].npoint = 32;
    spec.sa[3].npoint = 8;
    for (auto &sa : spec.sa)
        sa.k = 8;
    const PointNet2 net(spec, 42);
    const PointCloud cloud = randomCloud(512, 17);

    RunOptions brute_opts;
    brute_opts.ds = DsMethod::BruteKnn;
    RunOptions veg_opts;
    veg_opts.ds = DsMethod::Veg;

    const RunOutput brute = net.run(cloud, brute_opts);
    const RunOutput veg = net.run(cloud, veg_opts);
    EXPECT_LT(veg.trace.totalSortCandidates() * 2,
              brute.trace.totalSortCandidates());
}

TEST(PointNet2, InputOctreeReusedForFirstLayer)
{
    PointNet2Spec spec = PointNet2Spec::classification(4);
    spec.sa[0].npoint = 16;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 4;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    const PointCloud cloud = randomCloud(128, 18);

    Octree::Config tree_cfg;
    tree_cfg.maxDepth = 8;
    Octree tree = Octree::build(cloud, tree_cfg);

    RunOptions opts;
    opts.ds = DsMethod::Veg;
    opts.inputOctree = &tree;
    // Reuse requires the reordered cloud as input.
    const RunOutput out = net.run(tree.reorderedCloud(), opts);
    EXPECT_EQ(out.logits.cols(), 4u);
    // First SA gather must not have paid an octree build.
    ASSERT_FALSE(out.trace.gathers.empty());
    EXPECT_EQ(out.trace.gathers[0].stats.get("octree.host_reads"), 0u);
}

TEST(PointNet2, FeatureCloudSupported)
{
    PointNet2Spec spec = PointNet2Spec::classification(3);
    spec.inputFeatureDim = 2;
    spec.sa[0].npoint = 8;
    spec.sa[0].k = 4;
    spec.sa[1].npoint = 4;
    spec.sa[1].k = 2;
    const PointNet2 net(spec, 42);
    PointCloud cloud(2);
    Rng rng(19);
    for (int i = 0; i < 64; ++i) {
        const float f[] = {rng.uniform(0.0f, 1.0f),
                           rng.uniform(0.0f, 1.0f)};
        cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                   rng.uniform(0.0f, 1.0f)},
                  f);
    }
    const RunOutput out = net.run(cloud);
    EXPECT_EQ(out.logits.cols(), 3u);
}

// ------------------------------------------------- GEMM kernel

/** How a scalar reference rounds each multiply-add term. */
enum class Rounding
{
    /** std::fma, rounded once: the GEMM kernel's order. */
    Fused,
    /** A separate multiply and add, each rounded: the kernel's order
     * before it fused (-ffp-contract=off keeps this loop unfused). */
    Separate,
};

/** The scalar reference the GEMM kernel must match bit for bit with
 * Rounding::Fused: acc = 0, then acc + a[i][k] * b[k][j] for ascending
 * k, each term rounded as @p rounding says. */
Tensor
naiveMatmul(const Tensor &a, const Tensor &b, Rounding rounding)
{
    Tensor out(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
            float acc = 0.0f;
            for (std::size_t k = 0; k < a.cols(); ++k)
                acc = rounding == Rounding::Fused
                          ? std::fma(a.at(i, k), b.at(k, j), acc)
                          : acc + a.at(i, k) * b.at(k, j);
            out.at(i, j) = acc;
        }
    }
    return out;
}

/** A [rows, cols] tensor of NaNs, so an element the kernel fails to
 * write cannot pass for a computed one. */
Tensor
poisoned(std::size_t rows, std::size_t cols)
{
    Tensor t(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        std::fill(t.row(r), t.row(r) + cols, std::nanf(""));
    return t;
}

/** Same bits everywhere, except that any two NaNs match: when two
 * NaNs meet in an add, either payload may survive. */
::testing::AssertionResult
sameBits(const Tensor &got, const Tensor &expect)
{
    if (got.rows() != expect.rows() || got.cols() != expect.cols())
        return ::testing::AssertionFailure() << "shape mismatch";
    for (std::size_t i = 0; i < got.data().size(); ++i) {
        const float g = got.data()[i];
        const float e = expect.data()[i];
        if (std::isnan(g) && std::isnan(e))
            continue;
        if (std::memcmp(&g, &e, sizeof g) != 0)
            return ::testing::AssertionFailure()
                   << "element " << i << ": got " << g << ", expected "
                   << e;
    }
    return ::testing::AssertionSuccess();
}

/** The kernel variants this host can execute (always the
 * baseline). */
std::vector<gemm_kernel::Isa>
runnableVariants()
{
    std::vector<gemm_kernel::Isa> variants;
    for (const auto isa :
         {gemm_kernel::Isa::Avx2, gemm_kernel::Isa::Baseline})
        if (gemm_kernel::hostRuns(isa))
            variants.push_back(isa);
    return variants;
}

TEST(Tensor, GemmMatchesFusedScalarLoopBitForBit)
{
    // Register tiling reorders memory access, never the floating-
    // point sums: every shape across the 3- and 6-row tile and
    // 16-column panel edges must reproduce the fused scalar loop
    // exactly, through the dispatched kernel and through each variant
    // by name. The unfused loop must differ somewhere, or these checks
    // could not tell the two roundings apart.
    Rng rng(3);
    std::size_t unfused_differs = 0;
    for (const std::size_t m : {1u, 5u, 6u, 7u, 13u, 64u}) {
        for (const std::size_t n : {1u, 8u, 15u, 16u, 17u, 33u, 130u}) {
            for (const std::size_t k : {1u, 3u, 67u}) {
                Tensor a(m, k), b(k, n);
                a.randomize(rng, 1.0f);
                b.randomize(rng, 1.0f);
                const Tensor expect = naiveMatmul(a, b, Rounding::Fused);
                unfused_differs += !sameBits(
                    naiveMatmul(a, b, Rounding::Separate), expect);
                const PackedPanels packed(b);
                Tensor got = poisoned(m, n);
                Tensor::matmulRowsInto(a, packed, got, 0, m);
                ASSERT_TRUE(sameBits(got, expect))
                    << m << "x" << k << "x" << n;
                for (const auto isa : runnableVariants()) {
                    Tensor out = poisoned(m, n);
                    gemm_kernel::matmulRowsInto(isa, a, packed, out, 0,
                                                m);
                    ASSERT_TRUE(sameBits(out, expect))
                        << m << "x" << k << "x" << n << " variant "
                        << static_cast<int>(isa);
                }
            }
        }
    }
    EXPECT_GT(unfused_differs, 0u);
}

TEST(Tensor, MatmulRowRangesComposeExactly)
{
    // Ranges that start and end mid-tile, as intra-op threads split
    // them; rows outside a range are left untouched.
    Rng rng(5);
    Tensor a(20, 67), b(67, 33);
    a.randomize(rng, 1.0f);
    b.randomize(rng, 1.0f);
    const Tensor whole = naiveMatmul(a, b, Rounding::Fused);
    const PackedPanels packed(b);
    const std::size_t cuts[] = {0, 4, 9, 16, 17, 20};
    Tensor split = poisoned(20, 33);
    for (std::size_t c = 0; c + 1 < std::size(cuts); ++c)
        Tensor::matmulRowsInto(a, packed, split, cuts[c], cuts[c + 1]);
    EXPECT_TRUE(sameBits(split, whole));
    for (const auto isa : runnableVariants()) {
        Tensor out = poisoned(20, 33);
        for (std::size_t c = 0; c + 1 < std::size(cuts); ++c)
            gemm_kernel::matmulRowsInto(isa, a, packed, out, cuts[c],
                                        cuts[c + 1]);
        EXPECT_TRUE(sameBits(out, whole)) << static_cast<int>(isa);

        Tensor part = poisoned(20, 33);
        gemm_kernel::matmulRowsInto(isa, a, packed, part, 7, 11);
        for (std::size_t r = 0; r < 20; ++r)
            for (std::size_t j = 0; j < 33; ++j)
                EXPECT_EQ(std::isnan(part.at(r, j)), r < 7 || r >= 11)
                    << r << "," << j;
    }
}

TEST(Tensor, FusedBiasReluMatchesSeparatePasses)
{
    Rng rng(9);
    for (const std::size_t n : {15u, 16u, 130u}) {
        Tensor a(13, 67), b(67, n);
        a.randomize(rng, 1.0f);
        b.randomize(rng, 1.0f);
        std::vector<float> bias(n);
        for (float &v : bias)
            v = rng.uniform(-1.0f, 1.0f);
        const Tensor biased =
            plusRowBias(naiveMatmul(a, b, Rounding::Fused), bias);
        Tensor activated = biased;
        activated.reluInPlace();
        Tensor relu_only = naiveMatmul(a, b, Rounding::Fused);
        relu_only.reluInPlace();

        const PackedPanels packed(b);
        for (const auto isa : runnableVariants()) {
            Tensor out = poisoned(13, n);
            gemm_kernel::matmulRowsInto(isa, a, packed, out, 0, 13,
                                        {bias.data(), false});
            EXPECT_TRUE(sameBits(out, biased)) << n;
            gemm_kernel::matmulRowsInto(isa, a, packed, out, 0, 13,
                                        {bias.data(), true});
            EXPECT_TRUE(sameBits(out, activated)) << n;
            gemm_kernel::matmulRowsInto(isa, a, packed, out, 0, 13,
                                        {nullptr, true});
            EXPECT_TRUE(sameBits(out, relu_only)) << n;
        }
    }
}

// Delayed aggregation's layer 1: relu((a * b + prior) + bias), each
// add rounded separately; with no k terms only the epilogue runs.
TEST(Tensor, GemmAccumulateAddsPriorBeforeBias)
{
    Rng rng(10);
    for (const std::size_t kk : {0u, 3u, 67u}) {
        for (const std::size_t n : {15u, 16u, 130u}) {
            Tensor a(13, kk), b(kk, n), prior(13, n);
            a.randomize(rng, 1.0f);
            b.randomize(rng, 1.0f);
            prior.randomize(rng, 1.0f);
            std::vector<float> bias(n);
            for (float &v : bias)
                v = rng.uniform(-1.0f, 1.0f);
            Tensor expect = naiveMatmul(a, b, Rounding::Fused);
            for (std::size_t i = 0; i < 13; ++i)
                for (std::size_t j = 0; j < n; ++j) {
                    const float v =
                        (expect.at(i, j) + prior.at(i, j)) + bias[j];
                    expect.at(i, j) = v > 0.0f ? v : 0.0f;
                }
            const PackedPanels packed(b);
            for (const auto isa : runnableVariants()) {
                Tensor out = prior;
                gemm_kernel::matmulRowsInto(isa, a, packed, out, 0, 13,
                                            {bias.data(), true, true});
                EXPECT_TRUE(sameBits(out, expect)) << kk << " x " << n;
            }
        }
    }
}

TEST(Tensor, GemmSpecialValuesMatchReference)
{
    // +-0, NaN and +-Inf flow through the tile as through the scalar
    // loop, and the fused ReLU maps NaN to +0 like reluInPlace().
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::nanf("");
    const float specials[] = {0.0f, -0.0f, inf, -inf, nan, 1.5f, -2.0f};
    Rng rng(11);
    Tensor a(7, 5), b(5, 17);
    for (std::size_t i = 0; i < 7; ++i)
        for (std::size_t k = 0; k < 5; ++k)
            a.at(i, k) = i < 2 ? rng.uniform(-1.0f, 1.0f)
                               : specials[(i * 5 + k) % 7];
    for (std::size_t k = 0; k < 5; ++k)
        for (std::size_t j = 0; j < 17; ++j)
            b.at(k, j) = (k + j) % 3 == 0 ? -0.0f
                                          : rng.uniform(-1.0f, 1.0f);
    b.at(0, 3) = inf;
    b.at(2, 5) = nan;
    std::vector<float> bias(17);
    for (std::size_t j = 0; j < 17; ++j)
        bias[j] = specials[j % 7];

    const Tensor plain = naiveMatmul(a, b, Rounding::Fused);
    Tensor activated = plusRowBias(plain, bias);
    activated.reluInPlace();
    const PackedPanels packed(b);
    for (const auto isa : runnableVariants()) {
        Tensor out = poisoned(7, 17);
        gemm_kernel::matmulRowsInto(isa, a, packed, out, 0, 7);
        EXPECT_TRUE(sameBits(out, plain)) << static_cast<int>(isa);
        gemm_kernel::matmulRowsInto(isa, a, packed, out, 0, 7,
                                    {bias.data(), true});
        // No NaN survives ReLU, so this comparison is exact.
        EXPECT_EQ(std::memcmp(out.data().data(),
                              activated.data().data(),
                              out.data().size() * sizeof(float)),
                  0)
            << static_cast<int>(isa);
        for (const float v : out.data()) {
            EXPECT_FALSE(std::isnan(v));
            EXPECT_FALSE(std::signbit(v));
        }
    }
}

TEST(PointNet2, WorkspaceAndThreadsDoNotChangeOutputs)
{
    PointNet2Spec spec = PointNet2Spec::classification(4);
    spec.sa[0].npoint = 32;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 8;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    PointCloud cloud;
    Rng rng(23);
    for (int i = 0; i < 128; ++i) {
        cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                   rng.uniform(0.0f, 1.0f)});
    }

    RunOptions base; // private per-call workspace
    const RunOutput a = net.run(cloud, base);

    FrameWorkspace ws;
    RunOptions pooled = base;
    pooled.workspace = &ws;
    pooled.intraOpThreads = 2;
    const RunOutput b = net.run(cloud, pooled);
    const RunOutput c = net.run(cloud, pooled); // arena now warm

    EXPECT_EQ(a.logits.data(), b.logits.data());
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(b.logits.data(), c.logits.data());
}

// ----------------------------------------------- fixed network outputs

/** FNV-1a accumulator over raw bytes. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    template <typename T>
    void
    value(const T &v)
    {
        unsigned char raw[sizeof v];
        std::memcpy(raw, &v, sizeof v);
        for (const unsigned char b : raw) {
            h ^= b;
            h *= 0x100000001b3ull;
        }
    }

    void
    text(const std::string &s)
    {
        value(s.size());
        for (const char c : s)
            value(c);
    }
};

/** FNV-1a over the bytes of a logits tensor. */
std::uint64_t
logitsDigest(const Tensor &logits)
{
    Fnv1a fnv;
    for (const float v : logits.data())
        fnv.value(v);
    return fnv.h;
}

/** FNV-1a over a whole trace: every GEMM's name and shape, every
 * gather's header, counters and per-centroid VEG traces. */
std::uint64_t
traceDigest(const ExecutionTrace &trace)
{
    Fnv1a fnv;
    for (const GemmOp &g : trace.gemms) {
        fnv.text(g.layer);
        fnv.value(g.m);
        fnv.value(g.k);
        fnv.value(g.n);
    }
    for (const GatherOp &op : trace.gathers) {
        fnv.text(op.layer);
        fnv.text(op.method);
        fnv.value(op.centroids);
        fnv.value(op.k);
        fnv.value(op.inputPoints);
        for (const auto &[name, v] : op.stats.all()) {
            fnv.text(name);
            fnv.value(v);
        }
        for (const VegTrace &t : op.traces) {
            fnv.value(t.rings);
            fnv.value(t.innerPoints);
            fnv.value(t.lastRingPoints);
            fnv.value(t.tableLookups);
        }
    }
    return fnv.h;
}

// ------------------------------------------------ scalar reference

/** The order a reference runs layer 1 of every sampling SA level
 * and every FP level in. */
enum class Layer1
{
    /** Delayed aggregation, the library's order: layer 1's feature
     * rows multiply each point once (P = F * W_f, G = F * W_coarse);
     * an SA row is relu(((p - c) * W_xyz + P[nb]) + b) and an FP row
     * relu((f_skip * W_skip + sum_j w_j * G[nb_j]) + b). */
    Delayed,
    /** The order before delayed aggregation: one dot product per
     * grouped row [p - c; f] or [interpolated f; f_skip]. */
    Grouped,
};

/** One layer's weights [in, out] and bias, drawn as Linear draws
 * them. */
struct RefLayer
{
    Tensor w;
    std::vector<float> b;
};

using RefMlp = std::vector<RefLayer>;

RefMlp
refMlp(std::size_t in, const std::vector<std::size_t> &widths, Rng &rng)
{
    RefMlp mlp;
    for (const std::size_t out : widths) {
        RefLayer layer{Tensor(in, out), std::vector<float>(out)};
        layer.w.randomize(
            rng, std::sqrt(2.0f / static_cast<float>(in > 0 ? in : 1)));
        for (float &b : layer.b)
            b = rng.uniform(-0.01f, 0.01f);
        mlp.push_back(std::move(layer));
        in = out;
    }
    return mlp;
}

/** A PointNet2's weights, replayed from its seed in the
 * constructor's draw order (SA levels, FP levels, head). */
struct RefNetwork
{
    PointNet2Spec spec;
    std::vector<RefMlp> sa, fp;
    RefMlp head;

    RefNetwork(const PointNet2Spec &s, std::uint64_t weight_seed) : spec(s)
    {
        Rng rng(weight_seed);
        const std::size_t levels = spec.sa.size();
        std::vector<std::size_t> width(levels + 1, spec.inputFeatureDim);
        for (std::size_t i = 0; i < levels; ++i) {
            sa.push_back(refMlp(3 + width[i], spec.sa[i].mlp, rng));
            width[i + 1] = spec.sa[i].mlp.back();
        }
        std::size_t head_in = width[levels];
        if (spec.segmentation) {
            for (std::size_t t = 0; t < levels; ++t) {
                const std::size_t above = t + 1 == levels
                                              ? width[levels]
                                              : spec.fp[t + 1].mlp.back();
                fp.push_back(refMlp(above + width[t], spec.fp[t].mlp, rng));
            }
            head_in = spec.fp[0].mlp.back();
        }
        std::vector<std::size_t> head_widths = spec.head;
        head_widths.push_back(spec.numClasses);
        head = refMlp(head_in, head_widths, rng);
    }
};

/** acc[o] = 0, then acc[o] + x[k] * w[k0 + k][o] for ascending k,
 * each term rounded as @p rounding says: the GEMM kernel's order for
 * every element, and with Rounding::Fused its rounding. */
[[gnu::always_inline]] inline void
refDotLoop(const float *x, std::size_t kk, const Tensor &w,
           std::size_t k0, float *acc, Rounding rounding)
{
    // Under a sanitizer, instrumented code does not inline into the
    // uninstrumented callers below: the Tensor accessors and
    // std::fma's wrapper would be a call per element, and std::fill,
    // handed a temporary by reference, draws a false
    // stack-use-after-scope report from ASan. So read cols() once,
    // clear acc by hand and call the builtin.
    const std::size_t n = w.cols();
    for (std::size_t o = 0; o < n; ++o)
        acc[o] = 0.0f;
    for (std::size_t k = 0; k < kk; ++k) {
        const float *wk = w.row(k0 + k);
        // One loop per rounding, so each vectorizes.
        if (rounding == Rounding::Fused)
            for (std::size_t o = 0; o < n; ++o)
                acc[o] = __builtin_fmaf(x[k], wk[o], acc[o]);
        else
            for (std::size_t o = 0; o < n; ++o)
                acc[o] = acc[o] + x[k] * wk[o];
    }
}

/** refDotLoop() for hosts with FMA, where the fused loop vectorizes
 * instead of calling fmaf() per element: ~4x faster, the same bits.
 * (target_clones would pick it through an ifunc, whose resolver
 * crashes ThreadSanitizer builds at startup.) */
__attribute__((no_sanitize("address", "thread"), target("fma"))) void
refDotFma(const float *x, std::size_t kk, const Tensor &w, std::size_t k0,
          float *acc, Rounding rounding)
{
    refDotLoop(x, kk, w, k0, acc, rounding);
}

/** refDotLoop(), on the host's fastest build of it. Test arithmetic
 * over whole tensors, so sanitizer builds leave it uninstrumented:
 * the drift and reference tests run under TSan and ASan for the
 * library's code, and this loop would otherwise take minutes there
 * (test_nn would outrun its 300 s ctest timeout under ASan). */
__attribute__((no_sanitize("address", "thread"))) void
refDot(const float *x, std::size_t kk, const Tensor &w, std::size_t k0,
       float *acc, Rounding rounding)
{
    static const bool fma = __builtin_cpu_supports("fma");
    if (fma)
        refDotFma(x, kk, w, k0, acc, rounding);
    else
        refDotLoop(x, kk, w, k0, acc, rounding);
}

/** v += bias, then ReLU as v > 0 ? v : 0. */
void
refFinish(std::vector<float> &v, const RefLayer &layer, bool relu)
{
    for (std::size_t o = 0; o < v.size(); ++o) {
        const float t = v[o] + layer.b[o];
        v[o] = relu ? (t > 0.0f ? t : 0.0f) : t;
    }
}

/** Layers [first, end) of @p mlp over one row. */
std::vector<float>
refLayers(const RefMlp &mlp, std::size_t first, std::vector<float> x,
          bool final_relu, Rounding rounding)
{
    for (std::size_t i = first; i < mlp.size(); ++i) {
        std::vector<float> y(mlp[i].w.cols());
        refDot(x.data(), x.size(), mlp[i].w, 0, y.data(), rounding);
        refFinish(y, mlp[i], i + 1 < mlp.size() || final_relu);
        x = std::move(y);
    }
    return x;
}

/** Column-wise max of @p row into @p pooled (the first row copies). */
void
refPool(std::vector<float> &pooled, const std::vector<float> &row,
        bool first)
{
    if (first) {
        pooled = row;
        return;
    }
    for (std::size_t c = 0; c < row.size(); ++c)
        pooled[c] = std::max(pooled[c], row[c]);
}

/** Row @p r of @p t (empty for a zero-width tensor, whose rows have
 * no address). */
std::vector<float>
refRow(const Tensor &t, std::size_t r)
{
    if (t.cols() == 0)
        return {};
    return {t.row(r), t.row(r) + t.cols()};
}

TEST(Mlp, ForwardArenaMatchesScalarReference)
{
    // Mlp and refMlp draw the same weights from one seed.
    Rng wr(42), rr(42);
    const Mlp mlp(6, {16, 16, 4}, wr, /*final_relu=*/false);
    const RefMlp ref = refMlp(6, {16, 16, 4}, rr);
    Rng xr(1);
    Tensor x(37, 6);
    x.randomize(xr, 1.0f);

    // Intra-op row splitting is bit-identical too (rows are
    // independent; k-order accumulation per element is unchanged).
    FrameWorkspace ws;
    for (const int threads : {1, 3}) {
        ExecutionTrace trace;
        ws.beginFrame();
        const Tensor &y = mlp.forwardArena(x, "t", trace, ws, threads);
        ASSERT_EQ(y.rows(), x.rows());
        for (std::size_t r = 0; r < x.rows(); ++r)
            EXPECT_EQ(refRow(y, r),
                      refLayers(ref, 0, refRow(x, r), false,
                                Rounding::Fused))
                << "row " << r << ", " << threads << " threads";
        EXPECT_EQ(trace.gemms.size(), 3u);
    }
}

PointCloud
refCloud(std::span<const Vec3> positions)
{
    PointCloud cloud;
    for (const Vec3 &p : positions)
        cloud.add(p);
    return cloud;
}

/** The octree a VEG level gathers over. */
Octree
refTree(std::span<const Vec3> positions)
{
    Octree::Config cfg;
    cfg.maxDepth = 12;
    return Octree::build(refCloud(positions), cfg);
}

/** @return the k neighbors (indices into @p points) of each query,
 * through @p mode's VEG over a tree of @p points. */
std::vector<PointIndex>
refVeg(std::span<const Vec3> points, std::span<const Vec3> queries,
       std::size_t k, VegMode mode, std::uint64_t seed)
{
    const Octree tree = refTree(points);
    VegKnn::Config cfg;
    cfg.mode = mode;
    cfg.seed = seed;
    VegKnn knn(tree, cfg);
    std::vector<PointIndex> nb = knn.gatherAt(queries, k).neighbors;
    for (PointIndex &i : nb)
        i = tree.permutation()[i];
    return nb;
}

/** One resolution level of a reference run. */
struct RefLevel
{
    std::vector<Vec3> positions;
    Tensor features;
};

/**
 * PointNet2::run() recomputed one row at a time in @p order:
 * random centroids, DsMethod::Veg (no input octree) or
 * DsMethod::BruteKnn gathers, and every MLP through refDot() with
 * @p rounding. The neighbor sets come from the library's gatherers,
 * called whole-level as before levels ran in blocks.
 */
Tensor
refRun(const RefNetwork &net, const PointCloud &input,
       const RunOptions &opts, Layer1 order, Rounding rounding)
{
    EXPECT_EQ(opts.centroid, CentroidMethod::Random);
    EXPECT_TRUE(opts.ds == DsMethod::Veg || opts.ds == DsMethod::BruteKnn);
    const bool veg = opts.ds == DsMethod::Veg;
    const PointNet2Spec &spec = net.spec;
    Rng rng(opts.seed);
    std::vector<RefLevel> levels(1);
    levels[0].positions.assign(input.positions().begin(),
                               input.positions().end());
    levels[0].features = Tensor(input.size(), spec.inputFeatureDim);
    for (std::size_t i = 0; i < input.size(); ++i) {
        const auto f = input.feature(static_cast<PointIndex>(i));
        if (!f.empty())
            std::copy(f.begin(), f.end(), levels[0].features.row(i));
    }

    for (std::size_t l = 0; l < spec.sa.size(); ++l) {
        const RefLevel &in = levels[l];
        const RefMlp &mlp = net.sa[l];
        const std::size_t n = in.positions.size();
        const std::size_t c_in = in.features.cols();
        const std::size_t width = mlp[0].w.cols();
        RefLevel next;
        if (spec.sa[l].npoint == 0) { // group-all: one grouped GEMM
            Vec3 mean{0, 0, 0};
            for (const Vec3 &p : in.positions)
                mean += p;
            mean = mean / static_cast<float>(n);
            std::vector<float> pooled;
            for (std::size_t i = 0; i < n; ++i) {
                const Vec3 rel = in.positions[i] - mean;
                std::vector<float> x = {rel.x, rel.y, rel.z};
                const std::vector<float> f = refRow(in.features, i);
                x.insert(x.end(), f.begin(), f.end());
                refPool(pooled, refLayers(mlp, 0, x, true, rounding),
                        i == 0);
            }
            next.positions = {mean};
            next.features = Tensor(1, pooled.size());
            std::copy(pooled.begin(), pooled.end(), next.features.row(0));
            levels.push_back(std::move(next));
            continue;
        }
        const std::size_t m = spec.sa[l].npoint;
        const std::size_t k = spec.sa[l].k;
        std::vector<PointIndex> centroids(n);
        std::iota(centroids.begin(), centroids.end(), 0u);
        for (std::size_t i = 0; i < m; ++i)
            std::swap(centroids[i], centroids[i + rng.below(n - i)]);
        centroids.resize(m);
        for (const PointIndex c : centroids)
            next.positions.push_back(in.positions[c]);
        std::vector<PointIndex> nb;
        if (veg) {
            nb = refVeg(in.positions, next.positions, k, VegMode::Paper,
                        opts.seed);
        } else {
            const PointCloud cloud = refCloud(in.positions);
            nb = BruteKnn(cloud).gather(centroids, k).neighbors;
        }
        const bool delayed = order == Layer1::Delayed && c_in > 0;
        Tensor p_f(delayed ? n : 0, width);
        for (std::size_t i = 0; i < p_f.rows(); ++i)
            refDot(refRow(in.features, i).data(), c_in, mlp[0].w, 3,
                   p_f.row(i), rounding);
        next.features = Tensor(m, spec.sa[l].mlp.back());
        for (std::size_t c = 0; c < m; ++c) {
            std::vector<float> pooled;
            for (std::size_t j = 0; j < k; ++j) {
                const PointIndex pi = nb[c * k + j];
                const Vec3 rel = in.positions[pi] - next.positions[c];
                std::vector<float> x = {rel.x, rel.y, rel.z};
                if (!delayed) {
                    const std::vector<float> f = refRow(in.features, pi);
                    x.insert(x.end(), f.begin(), f.end());
                }
                std::vector<float> h(width);
                refDot(x.data(), x.size(), mlp[0].w, 0, h.data(),
                       rounding);
                for (std::size_t o = 0; delayed && o < width; ++o)
                    h[o] = h[o] + p_f.at(pi, o);
                refFinish(h, mlp[0], true);
                refPool(pooled, refLayers(mlp, 1, h, true, rounding),
                        j == 0);
            }
            std::copy(pooled.begin(), pooled.end(),
                      next.features.row(c));
        }
        levels.push_back(std::move(next));
    }

    if (!spec.segmentation) {
        const Tensor &top = levels.back().features;
        Tensor logits(top.rows(), spec.numClasses);
        for (std::size_t r = 0; r < top.rows(); ++r) {
            const std::vector<float> y =
                refLayers(net.head, 0, refRow(top, r), false, rounding);
            std::copy(y.begin(), y.end(), logits.row(r));
        }
        return logits;
    }

    Tensor carried = levels.back().features;
    for (std::size_t t = spec.sa.size(); t-- > 0;) {
        const RefMlp &mlp = net.fp[t];
        const RefLevel &fine = levels[t];
        const std::vector<Vec3> &coarse = levels[t + 1].positions;
        const std::size_t n_c = coarse.size();
        const std::size_t n_f = fine.positions.size();
        const std::size_t c_coarse = carried.cols();
        const std::size_t c_skip = fine.features.cols();
        const std::size_t width = mlp[0].w.cols();
        const std::size_t k = std::min<std::size_t>(3, n_c);
        std::vector<PointIndex> nb;
        if (veg && n_c > 4 * k) {
            nb = refVeg(coarse, fine.positions, k, VegMode::Strict, 1);
        } else {
            std::vector<ScoredNeighbor> scored(n_c);
            for (const Vec3 &q : fine.positions) {
                for (std::size_t i = 0; i < n_c; ++i)
                    scored[i] = {coarse[i].distSq(q),
                                 static_cast<PointIndex>(i)};
                selectTopK(scored, k);
                for (std::size_t j = 0; j < k; ++j)
                    nb.push_back(scored[j].second);
            }
        }
        const bool delayed = order == Layer1::Delayed;
        Tensor g(delayed ? n_c : 0, width);
        for (std::size_t i = 0; i < g.rows(); ++i)
            refDot(carried.row(i), c_coarse, mlp[0].w, 0, g.row(i),
                   rounding);
        Tensor out(n_f, t == 0 ? spec.numClasses : spec.fp[t].mlp.back());
        for (std::size_t i = 0; i < n_f; ++i) {
            float w[3] = {0, 0, 0};
            float total = 0.0f;
            for (std::size_t j = 0; j < k; ++j) {
                w[j] = 1.0f / (coarse[nb[i * k + j]].distSq(
                                   fine.positions[i]) +
                               1e-8f);
                total += w[j];
            }
            std::vector<float> h(width);
            const std::vector<float> skip = refRow(fine.features, i);
            if (delayed) {
                refDot(skip.data(), c_skip, mlp[0].w, c_coarse, h.data(),
                       rounding);
                for (std::size_t o = 0; o < width; ++o) {
                    float v = 0.0f;
                    for (std::size_t j = 0; j < k; ++j)
                        v += w[j] / total * g.at(nb[i * k + j], o);
                    h[o] = h[o] + v;
                }
            } else {
                std::vector<float> x(c_coarse + c_skip);
                for (std::size_t c = 0; c < c_coarse; ++c)
                    for (std::size_t j = 0; j < k; ++j)
                        x[c] += w[j] / total * carried.at(nb[i * k + j], c);
                std::copy(skip.begin(), skip.end(), x.data() + c_coarse);
                refDot(x.data(), x.size(), mlp[0].w, 0, h.data(),
                       rounding);
            }
            refFinish(h, mlp[0], true);
            std::vector<float> y = refLayers(mlp, 1, h, true, rounding);
            if (t == 0)
                y = refLayers(net.head, 0, y, false, rounding);
            std::copy(y.begin(), y.end(), out.row(i));
        }
        carried = std::move(out);
    }
    return carried;
}

// Digests recorded from the scalar reference, refRun() in the
// delayed layer-1 order with fused rounding (ScalarReference.* checks
// it reproduces them). Every other check compares the kernel with
// itself (the e2e oracle runs the same GEMM), so a kernel that is
// wrong the same way everywhere would pass them; these pin the
// network to fixed values in every build, including
// -march=x86-64-v3.
TEST(NetworkDigest, SemanticSegmentationVeg)
{
    const PointNet2 net(PointNet2Spec::semanticSegmentation(), 42);
    RunOptions opts;
    opts.ds = DsMethod::Veg;
    const RunOutput out = net.run(randomCloud(4096, 31), opts);
    EXPECT_EQ(logitsDigest(out.logits), 0x902b820f04fcc201ull);
}

TEST(NetworkDigest, EdgeClassifierSoloAndBatched)
{
    const PointNet2 net(PointNet2Spec::edgeClassification(), 42);
    std::vector<PointCloud> clouds;
    std::vector<const PointCloud *> ptrs;
    for (std::uint64_t s = 0; s < 4; ++s)
        clouds.push_back(randomCloud(256, 40 + s));
    for (const PointCloud &c : clouds)
        ptrs.push_back(&c);
    const std::uint64_t expect[4] = {
        0x82728cf6e4d0d34bull, 0x2609ae56797945cbull,
        0x6b1314e5b827944cull, 0x9043b1d9848cad7cull};
    const std::vector<RunOutput> batch = net.runBatch(ptrs);
    ASSERT_EQ(batch.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(logitsDigest(net.run(clouds[i]).logits), expect[i])
            << "solo frame " << i;
        EXPECT_EQ(logitsDigest(batch[i].logits), expect[i])
            << "batched frame " << i;
    }
}

// --------------------------------------- thread and block invariance

/** A frame's recorded outputs. */
struct FrameDigest
{
    std::uint64_t logits;
    std::uint64_t trace;
};

/**
 * Run every cloud solo and all of them as one batch, at every
 * intra-op thread count and block size (1, 7, 64, whole level),
 * through one shared workspace; each frame's logits and full trace
 * must equal @p expect. The logits digests come from the scalar
 * reference (refRun(), delayed order, fused rounding); the trace
 * digests were recorded from the serial execution that ran each level
 * whole (gather, then one GEMM per layer over all rows, then pool),
 * before levels ran in blocks.
 */
void
expectInvariant(const PointNet2 &net, const std::vector<PointCloud> &clouds,
                RunOptions opts, std::span<const FrameDigest> expect)
{
    ASSERT_EQ(clouds.size(), expect.size());
    std::vector<const PointCloud *> ptrs;
    for (const PointCloud &c : clouds)
        ptrs.push_back(&c);
    FrameWorkspace ws;
    opts.workspace = &ws;
    for (const int threads : {1, 2, 3, 4}) {
        for (const std::size_t block :
             {std::size_t{1}, std::size_t{7}, std::size_t{64},
              std::numeric_limits<std::size_t>::max()}) {
            SCOPED_TRACE(testing::Message() << "threads " << threads
                                            << " block " << block);
            opts.intraOpThreads = threads;
            opts.blockPoints = block;
            for (std::size_t i = 0; i < clouds.size(); ++i) {
                const RunOutput solo = net.run(clouds[i], opts);
                EXPECT_EQ(logitsDigest(solo.logits), expect[i].logits)
                    << "solo frame " << i;
                EXPECT_EQ(traceDigest(solo.trace), expect[i].trace)
                    << "solo frame " << i;
            }
            const std::vector<RunOutput> batch = net.runBatch(ptrs, opts);
            ASSERT_EQ(batch.size(), clouds.size());
            for (std::size_t i = 0; i < clouds.size(); ++i) {
                EXPECT_EQ(logitsDigest(batch[i].logits), expect[i].logits)
                    << "batched frame " << i;
                EXPECT_EQ(traceDigest(batch[i].trace), expect[i].trace)
                    << "batched frame " << i;
            }
        }
    }
}

// Pointnet++(s)'s levels all clear the work-size gate, so these run
// real parallel regions (and are what the TSan job runs).
TEST(ThreadInvariance, SemanticSegmentationVeg)
{
    const PointNet2 net(PointNet2Spec::semanticSegmentation(), 42);
    RunOptions opts;
    opts.ds = DsMethod::Veg;
    const FrameDigest expect[] = {
        {0x902b820f04fcc201ull, 0x75b08b11f2e43e66ull},
        {0xacc455380f9c5163ull, 0xd4306ccd40548514ull}};
    expectInvariant(net, {randomCloud(4096, 31), randomCloud(4096, 32)},
                    opts, expect);
}

TEST(ThreadInvariance, SemanticSegmentationSpatialHashKnn)
{
    const PointNet2 net(PointNet2Spec::semanticSegmentation(), 42);
    RunOptions opts;
    opts.ds = DsMethod::BruteKnn;
    const FrameDigest expect[] = {
        {0x0a16fab6802f2a69ull, 0xea44a46aa2fa7d94ull}};
    expectInvariant(net, {randomCloud(4096, 31)}, opts, expect);
}

// The edge classifier stays under the gate (serial at any thread
// count); its blocks still split every SA level.
TEST(ThreadInvariance, EdgeClassifier)
{
    const PointNet2 net(PointNet2Spec::edgeClassification(), 42);
    std::vector<PointCloud> clouds;
    for (std::uint64_t s = 0; s < 4; ++s)
        clouds.push_back(randomCloud(256, 40 + s));
    const FrameDigest knn[] = {
        {0x82728cf6e4d0d34bull, 0xfe0e9dcf03a75cb4ull},
        {0x2609ae56797945cbull, 0xfe0e9dcf03a75cb4ull},
        {0x6b1314e5b827944cull, 0xfe0e9dcf03a75cb4ull},
        {0x9043b1d9848cad7cull, 0xfe0e9dcf03a75cb4ull}};
    expectInvariant(net, clouds, RunOptions{}, knn);
    RunOptions veg;
    veg.ds = DsMethod::Veg;
    const FrameDigest veg_expect[] = {
        {0x2ccf6f526ab63e97ull, 0x4726ca71ac48d03full},
        {0x8422813aada5aaa5ull, 0xf5cc31b4f5f5d2c0ull},
        {0xe359442c909bc949ull, 0x0e9256d14166bcf3ull},
        {0xfad387ea622e24aeull, 0x039eb3094aff0dc3ull}};
    expectInvariant(net, clouds, veg, veg_expect);
}

// Pointnet++(c): a group-all level and the classification head,
// whose MLP rows split across threads instead of blocks.
TEST(ThreadInvariance, ClassificationVeg)
{
    const PointNet2 net(PointNet2Spec::classification(4), 42);
    RunOptions opts;
    opts.ds = DsMethod::Veg;
    const FrameDigest expect[] = {
        {0x9319f92834a070d9ull, 0x52273885f7a1a906ull}};
    expectInvariant(net, {randomCloud(1024, 50)}, opts, expect);
}

// The zero-alloc contract inside parallel regions: once a workspace
// has served a frame at a thread count, its worker scratch is warm.
TEST(ThreadInvariance, ParallelRegionsStopGrowingTheWorkspace)
{
    const PointNet2 net(PointNet2Spec::semanticSegmentation(), 42);
    const PointCloud cloud = randomCloud(4096, 33);
    FrameWorkspace ws;
    RunOptions opts;
    opts.ds = DsMethod::Veg;
    opts.workspace = &ws;
    opts.intraOpThreads = 4;
    (void)net.run(cloud, opts); // warm-up
    const std::uint64_t warm = FrameWorkspace::backingGrowths();
    for (int i = 0; i < 3; ++i)
        (void)net.run(cloud, opts);
    EXPECT_EQ(FrameWorkspace::backingGrowths(), warm);
}

// ------------------------------------- delayed aggregation, fused GEMM

// The library against the scalar reference in every order it has
// run. Delayed order with fused rounding is the library's own, bit for
// bit, so it pins the digests above; delayed with separate rounding is
// the arithmetic before the GEMM fused, and grouped with separate
// rounding the arithmetic before delayed aggregation. Each reproduces
// every digest pinned in its time.
TEST(ScalarReference, ReproducesPinnedDigestsInBothOrders)
{
    struct Pinned
    {
        PointNet2Spec spec;
        DsMethod ds;
        std::size_t points;
        std::uint64_t cloudSeed;
        std::uint64_t fused;    //!< the library's digest
        std::uint64_t separate; //!< the digest before the GEMM fused
        std::uint64_t grouped;  //!< the digest before delayed aggregation
    };
    const PointNet2Spec seg = PointNet2Spec::semanticSegmentation();
    const PointNet2Spec edge = PointNet2Spec::edgeClassification();
    const PointNet2Spec cls = PointNet2Spec::classification(4);
    const Pinned pinned[] = {
        {seg, DsMethod::Veg, 4096, 31,
         0x902b820f04fcc201ull, 0x410e5f3ba4e3a0a0ull, 0x216c000198577985ull},
        {seg, DsMethod::Veg, 4096, 32,
         0xacc455380f9c5163ull, 0xfd347b1ff41bcdb2ull, 0xc2bcae0f73b455efull},
        {seg, DsMethod::BruteKnn, 4096, 31,
         0x0a16fab6802f2a69ull, 0x89875284ff603da7ull, 0x6d8206f62d1e9740ull},
        {edge, DsMethod::BruteKnn, 256, 40,
         0x82728cf6e4d0d34bull, 0x727297f8aa660c17ull, 0x211b689fe6038cc7ull},
        {edge, DsMethod::BruteKnn, 256, 41,
         0x2609ae56797945cbull, 0x6bcf98f7d567e802ull, 0x680688019525bab2ull},
        {edge, DsMethod::BruteKnn, 256, 42,
         0x6b1314e5b827944cull, 0xe5c8bd6f00dd7cfbull, 0x1481ba758e65e9c7ull},
        {edge, DsMethod::BruteKnn, 256, 43,
         0x9043b1d9848cad7cull, 0x1dfe0b8f66609fb7ull, 0xa7513e733a6b698aull},
        {edge, DsMethod::Veg, 256, 40,
         0x2ccf6f526ab63e97ull, 0x997282a31b9f6fafull, 0x276cefdb4192f2fdull},
        {edge, DsMethod::Veg, 256, 41,
         0x8422813aada5aaa5ull, 0x1dddc015d4d2a8cfull, 0x3551d6b7d168ca4full},
        {edge, DsMethod::Veg, 256, 42,
         0xe359442c909bc949ull, 0xeca86bc19d322675ull, 0x0e6637d2c9a0e6d7ull},
        {edge, DsMethod::Veg, 256, 43,
         0xfad387ea622e24aeull, 0xc6be85d09418a023ull, 0x5a37c51737b48a3eull},
        {cls, DsMethod::Veg, 1024, 50,
         0x9319f92834a070d9ull, 0x41720e24f6bf7163ull, 0xec59f20d2e5ab411ull},
    };
    for (const Pinned &p : pinned) {
        SCOPED_TRACE(testing::Message() << p.spec.name << " "
                                        << toString(p.ds) << " cloud "
                                        << p.cloudSeed);
        const RefNetwork ref(p.spec, 42);
        const PointCloud cloud = randomCloud(p.points, p.cloudSeed);
        RunOptions opts;
        opts.ds = p.ds;
        EXPECT_EQ(logitsDigest(refRun(ref, cloud, opts, Layer1::Delayed,
                                      Rounding::Fused)),
                  p.fused);
        EXPECT_EQ(logitsDigest(refRun(ref, cloud, opts, Layer1::Delayed,
                                      Rounding::Separate)),
                  p.separate);
        EXPECT_EQ(logitsDigest(refRun(ref, cloud, opts, Layer1::Grouped,
                                      Rounding::Separate)),
                  p.grouped);
    }
}

/** A reference arithmetic the library is held near, and how near:
 * the largest |library logit - reference logit| allowed. */
struct DriftBound
{
    Layer1 order;
    Rounding rounding;
    float maxLogitDrift;
};

/** Delayed aggregation alone: the grouped order, rounded as the
 * library rounds. Measured at 1.3e-8 over the test clouds and 3.3e-9
 * over the KittiLike frames (1.5e-8 and 4.2e-9 before the GEMM
 * fused). */
constexpr DriftBound kDelayedAggregation{Layer1::Grouped, Rounding::Fused,
                                         1e-7f};

/** The fused GEMM alone: the library's order, with a separate
 * multiply and add. Measured at 1.1e-8 over the test clouds and
 * 3.7e-9 over the KittiLike frames. */
constexpr float kMaxFusedLogitDrift = 1e-7f;
constexpr DriftBound kFusedGemm{Layer1::Delayed, Rounding::Separate,
                                kMaxFusedLogitDrift};

/**
 * Run @p cloud through the library at three threads (so the delayed
 * products are computed inside parallel regions) and through the
 * reference @p bound names: labels must be equal and every logit
 * within its maxLogitDrift. @return the largest |difference|.
 */
float
expectSmallDrift(const PointNet2 &net, const RefNetwork &ref,
                 const PointCloud &cloud, RunOptions opts,
                 const DriftBound &bound)
{
    FrameWorkspace ws;
    opts.workspace = &ws;
    opts.intraOpThreads = 3;
    const RunOutput lib = net.run(cloud, opts);
    const Tensor expect =
        refRun(ref, cloud, opts, bound.order, bound.rounding);
    EXPECT_EQ(lib.logits.rows(), expect.rows());
    EXPECT_EQ(lib.logits.cols(), expect.cols());
    float worst = 0.0f;
    std::size_t relabelled = 0;
    for (std::size_t r = 0; r < expect.rows(); ++r) {
        relabelled += lib.labels[r] != expect.argmaxRow(r);
        for (std::size_t c = 0; c < expect.cols(); ++c)
            worst = std::max(worst, std::fabs(lib.logits.at(r, c) -
                                              expect.at(r, c)));
    }
    EXPECT_EQ(relabelled, 0u);
    EXPECT_LE(worst, bound.maxLogitDrift);
    return worst;
}

/** expectSmallDrift() over the digest tests' clouds: Pointnet++(s)
 * (VEG and brute KNN), the edge classifier and Pointnet++(c).
 * @return the largest |difference|. */
float
driftOverTestClouds(const DriftBound &bound)
{
    float worst = 0.0f;
    const PointNet2Spec seg = PointNet2Spec::semanticSegmentation();
    const PointNet2 seg_net(seg, 42);
    const RefNetwork seg_ref(seg, 42);
    RunOptions veg;
    veg.ds = DsMethod::Veg;
    for (const std::uint64_t s : {31, 32})
        worst = std::max(worst,
                         expectSmallDrift(seg_net, seg_ref,
                                          randomCloud(4096, s), veg, bound));
    RunOptions knn;
    knn.ds = DsMethod::BruteKnn;
    worst = std::max(worst, expectSmallDrift(seg_net, seg_ref,
                                             randomCloud(4096, 31), knn,
                                             bound));
    const PointNet2Spec edge = PointNet2Spec::edgeClassification();
    const PointNet2 edge_net(edge, 42);
    const RefNetwork edge_ref(edge, 42);
    for (const DsMethod ds : {DsMethod::Veg, DsMethod::BruteKnn}) {
        RunOptions opts;
        opts.ds = ds;
        for (std::uint64_t s = 40; s < 44; ++s)
            worst = std::max(worst, expectSmallDrift(edge_net, edge_ref,
                                                     randomCloud(256, s),
                                                     opts, bound));
    }
    const PointNet2Spec cls = PointNet2Spec::classification(4);
    worst = std::max(worst, expectSmallDrift(PointNet2(cls, 42),
                                             RefNetwork(cls, 42),
                                             randomCloud(1024, 50), veg,
                                             bound));
    return worst;
}

/** expectSmallDrift() over kitti_seg's frames: a KittiLike scan
 * through buildStage and sampleStage down to K = 4096, normalized,
 * into Pointnet++(s). @return the largest |difference|. */
float
driftOverKittiLikeFrames(const DriftBound &bound)
{
    const PointNet2Spec seg = PointNet2Spec::semanticSegmentation();
    const PointNet2 net(seg, 42);
    const RefNetwork ref(seg, 42);
    const KittiLike lidar{KittiLike::Config{}};
    const PreprocessingEngine pre;
    RunOptions opts;
    opts.ds = DsMethod::Veg;
    float worst = 0.0f;
    for (std::size_t f = 0; f < 3; ++f) {
        PreprocessResult pr = pre.buildStage(lidar.generate(f).cloud);
        pre.sampleStage(pr, seg.inputPoints);
        PointCloud input = pr.sampled;
        input.normalizeToUnitCube();
        worst = std::max(worst,
                         expectSmallDrift(net, ref, input, opts, bound));
    }
    return worst;
}

// Delayed aggregation changes only the order of layer 1's sums, so
// every label stays and the logits move by rounding alone.
TEST(DelayedAggregationDrift, TestClouds)
{
    std::printf("max |logit drift| over the test clouds: %g\n",
                driftOverTestClouds(kDelayedAggregation));
}

TEST(DelayedAggregationDrift, KittiLikeFrames)
{
    std::printf("max |logit drift| over 3 KittiLike frames: %g\n",
                driftOverKittiLikeFrames(kDelayedAggregation));
}

// The fused GEMM rounds each multiply-add once instead of twice, in
// the same order, so every label stays and the logits move by
// rounding alone.
TEST(FusedGemmDrift, TestClouds)
{
    std::printf("max |logit drift| over the test clouds: %g\n",
                driftOverTestClouds(kFusedGemm));
}

TEST(FusedGemmDrift, KittiLikeFrames)
{
    std::printf("max |logit drift| over 3 KittiLike frames: %g\n",
                driftOverKittiLikeFrames(kFusedGemm));
}

} // namespace
} // namespace hgpcn
