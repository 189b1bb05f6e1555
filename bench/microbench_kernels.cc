/**
 * @file
 * google-benchmark microbenchmarks of the core kernels: Morton
 * encoding, an empty parallel region on a parked pool and on spawned
 * threads, octree construction (fresh and warm trees), the
 * steady-state temporal build stage (serial and on a two-helper
 * pool), the scratch build stage and occupied-cell list, OIS
 * sampling, VEG gathering (Paper and Strict), the brute-force
 * baselines, the spatial-hash KNN index (src/knn), the
 * register-tiled GEMM (both variants), a whole SA level at 1-4
 * threads and the whole Pointnet++(s) network. These are the software
 * costs behind Figs. 9-12 and the host hot path (docs/PERFORMANCE.md);
 * wall-clock per-kernel numbers on the build machine.
 *
 * `--json <path>` additionally writes a BENCH_kernels.json record
 * (kernel, ns/op, items/s) for the machine-readable perf trajectory,
 * including the spatial-hash-vs-brute KNN speedup on the KITTI-scale
 * case; `--assert-knn-speedup <x>` exits nonzero when that speedup
 * falls below x (the CI perf-smoke guard — coarse on purpose).
 *
 * Kernels slower than 50 ms carry their own MinTime(), which
 * overrides --benchmark_min_time: at CI's 0.05 s they would be
 * recorded from one or two iterations. Each is sized to record from
 * at least five on the build machine.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/frame_workspace.h"
#include "core/preprocessing_engine.h"
#include "core/temporal_preprocess.h"
#include "datasets/coherent_drive.h"
#include "gather/brute_gatherers.h"
#include "gather/veg_gatherer.h"
#include "knn/spatial_hash_knn.h"
#include "nn/gemm_kernel.h"
#include "nn/mlp.h"
#include "nn/pointnet2.h"
#include "octree/voxel_grid.h"
#include "sampling/fps_sampler.h"
#include "sampling/ois_fps_sampler.h"

namespace hgpcn
{
namespace
{

PointCloud
randomCloud(std::size_t n, std::uint64_t seed = 1)
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

std::vector<PointIndex>
randomCentrals(std::size_t count, std::size_t n, std::uint64_t seed)
{
    std::vector<PointIndex> centrals(count);
    Rng rng(seed);
    for (auto &c : centrals)
        c = static_cast<PointIndex>(rng.below(n));
    return centrals;
}

void
BM_MortonEncode3(benchmark::State &state)
{
    Rng rng(2);
    std::vector<std::uint32_t> coords(3 * 1024);
    for (auto &c : coords)
        c = static_cast<std::uint32_t>(rng.below(1u << 21));
    for (auto _ : state) {
        for (std::size_t i = 0; i + 2 < coords.size(); i += 3) {
            benchmark::DoNotOptimize(morton::encode3(
                coords[i], coords[i + 1], coords[i + 2], 21));
        }
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_MortonEncode3);

/** An empty region of range(0) workers: the dispatch cost alone. */
void
emptyRegion(benchmark::State &state)
{
    const int workers = static_cast<int>(state.range(0));
    std::atomic<std::size_t> ran{0};
    for (auto _ : state) {
        parallelBlocks(
            static_cast<std::size_t>(workers), workers,
            [](std::size_t w) { return w; },
            [&ran](std::size_t, std::size_t) {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
    }
    benchmark::DoNotOptimize(ran.load());
}

void
BM_RegionDispatch(benchmark::State &state)
{
    // Through a pool whose helpers park between regions.
    WorkerPool pool(static_cast<int>(state.range(0)) - 1);
    WorkerPool::Install use(&pool);
    emptyRegion(state);
}
BENCHMARK(BM_RegionDispatch)->Arg(3)->UseRealTime();

void
BM_RegionSpawn(benchmark::State &state)
{
    // No pool installed: each region spawns and joins its helpers.
    emptyRegion(state);
}
BENCHMARK(BM_RegionSpawn)->Arg(3)->UseRealTime();

void
BM_OctreeBuild(benchmark::State &state)
{
    const PointCloud cloud =
        randomCloud(static_cast<std::size_t>(state.range(0)));
    Octree::Config cfg;
    cfg.maxDepth = 12;
    cfg.leafCapacity = 64;
    for (auto _ : state)
        benchmark::DoNotOptimize(Octree::build(cloud, cfg));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OctreeBuild)->Arg(10000)->Arg(100000);

void
BM_OctreeRebuild(benchmark::State &state)
{
    // The same build into one warm tree, as the pooled per-frame
    // builds run it: BM_OctreeBuild's fresh tree also pays first
    // touch of every buffer.
    const PointCloud cloud =
        randomCloud(static_cast<std::size_t>(state.range(0)));
    Octree::Config cfg;
    cfg.maxDepth = 12;
    cfg.leafCapacity = 64;
    Octree tree;
    tree.rebuild(cloud, cfg);
    for (auto _ : state) {
        tree.rebuild(cloud, cfg);
        benchmark::DoNotOptimize(tree.nodes().data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OctreeRebuild)->Arg(100000);

/**
 * buildStage with a warmed carry on a 1 %-churn CoherentDrive: the
 * incremental octree plus cached KNN and occupancy indices. Two
 * consecutive frames alternate, so every timed update is one 1 %-churn
 * step. With @p helpers > 0 the carry borrows an installed pool of
 * that many helpers, as a stream's build stage does.
 */
void
temporalBuildStage(benchmark::State &state, int helpers)
{
    WorkerPool pool(helpers);
    WorkerPool::Install use(helpers > 0 ? &pool : nullptr);
    CoherentDrive::Config dc;
    dc.points = static_cast<std::size_t>(state.range(0));
    dc.churnFraction = 0.01;
    const CoherentDrive drive(dc);
    const PointCloud frames[2] = {drive.generate(8).cloud,
                                  drive.generate(9).cloud};
    const PreprocessingEngine engine;
    TemporalPreprocessState::Config tc;
    tc.octree = engine.config().octree;
    TemporalPreprocessState carry(tc);
    for (std::size_t t = 0; t < 8; ++t)
        engine.buildStage(drive.generate(t).cloud, &carry);
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.buildStage(frames[next], &carry));
        next ^= 1;
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_TemporalBuildStage(benchmark::State &state)
{
    temporalBuildStage(state, 0);
}
BENCHMARK(BM_TemporalBuildStage)->Arg(100000);

/** BM_TemporalBuildStage/<points>/<helpers> on a pool. */
void
BM_TemporalBuildStagePool(benchmark::State &state)
{
    temporalBuildStage(state, static_cast<int>(state.range(1)));
}
BENCHMARK(BM_TemporalBuildStagePool)->Args({100000, 2})->UseRealTime();

/** Random cloud @p i of an incoherent stream: offset so that no two
 * frames share root bounds. */
PointCloud
incoherentCloud(std::size_t n, std::size_t i)
{
    PointCloud cloud = randomCloud(n, 40 + i);
    const float off = 0.25f * static_cast<float>(i);
    for (PointIndex p = 0; p < cloud.size(); ++p)
        cloud.position(p) = cloud.position(p) + Vec3{off, off, -off};
    return cloud;
}

void
BM_ScratchBuildStage(benchmark::State &state)
{
    // buildStage with a carry over incoherent frames (the multiplexed
    // fleet's case): every frame misses, so each timed call is the
    // scratch octree, KNN buckets and occupancy list.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const PointCloud frames[2] = {incoherentCloud(n, 0),
                                  incoherentCloud(n, 1)};
    const PreprocessingEngine engine;
    TemporalPreprocessState::Config tc;
    tc.octree = engine.config().octree;
    TemporalPreprocessState carry(tc);
    for (std::size_t t = 0; t < 4; ++t)
        engine.buildStage(frames[t & 1], &carry);
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.buildStage(frames[next], &carry));
        next ^= 1;
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScratchBuildStage)->Arg(4096)->Arg(125000);

void
BM_OccupiedCells(benchmark::State &state)
{
    // The scratch occupancy list at the level the temporal cache
    // keeps (VoxelGrid::autoLevel), into warmed storage.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const Octree tree = Octree::build(randomCloud(n),
                                      PreprocessingEngine::Config{}.octree);
    const int level = VoxelGrid::autoLevel(n, tree.depth());
    std::vector<OccupiedCell> cells;
    std::vector<OccupiedCell> scratch;
    buildOccupiedCells(tree, level, cells, scratch);
    for (auto _ : state) {
        buildOccupiedCells(tree, level, cells, scratch);
        benchmark::DoNotOptimize(cells.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OccupiedCells)->Arg(4096);

void
BM_OisSample(benchmark::State &state)
{
    const PointCloud cloud =
        randomCloud(static_cast<std::size_t>(state.range(0)));
    Octree::Config tree_cfg;
    tree_cfg.maxDepth = 12;
    tree_cfg.leafCapacity = 64;
    Octree tree = Octree::build(cloud, tree_cfg);
    const OisFpsSampler sampler;
    for (auto _ : state)
        benchmark::DoNotOptimize(sampler.sampleWithTree(tree, 4096));
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_OisSample)->Arg(100000);

void
BM_FpsSample(benchmark::State &state)
{
    const PointCloud cloud =
        randomCloud(static_cast<std::size_t>(state.range(0)));
    FpsSampler sampler;
    for (auto _ : state)
        benchmark::DoNotOptimize(sampler.sample(cloud, 512));
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_FpsSample)->Arg(20000);

void
BM_VegGather(benchmark::State &state)
{
    const PointCloud cloud = randomCloud(4096);
    Octree::Config tree_cfg;
    tree_cfg.maxDepth = 9;
    const Octree tree = Octree::build(cloud, tree_cfg);
    VegKnn veg(tree);
    const std::vector<PointIndex> centrals = randomCentrals(512, 4096, 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(veg.gather(centrals, 32));
    state.SetItemsProcessed(state.iterations() * centrals.size());
}
BENCHMARK(BM_VegGather);

/** Strict VEG at the FP0 shape of Pointnet++(s) at K = 4096: 3-NN of
 * 4096 fine points over a 1024-point coarse level's octree (depth
 * 12, as the network's per-level trees). */
void
BM_VegStrictGather(benchmark::State &state)
{
    Octree::Config tree_cfg;
    tree_cfg.maxDepth = 12;
    const Octree tree = Octree::build(randomCloud(1024, 5), tree_cfg);
    const std::vector<Vec3> anchors = randomCloud(4096, 6).positions();
    VegKnn::Config cfg;
    cfg.mode = VegMode::Strict;
    VegKnn veg(tree, cfg);
    for (auto _ : state)
        benchmark::DoNotOptimize(veg.gatherAt(anchors, 3));
    state.SetItemsProcessed(state.iterations() * anchors.size());
}
BENCHMARK(BM_VegStrictGather);

/** Brute KNN at SA-layer scale: args are (n, centrals). The 16384
 * case is the KITTI-scale SA0 workload — the denominator of the
 * spatial-hash speedup guard. */
void
BM_BruteKnnGather(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const std::size_t m = static_cast<std::size_t>(state.range(1));
    const PointCloud cloud = randomCloud(n);
    BruteKnn knn(cloud);
    const std::vector<PointIndex> centrals = randomCentrals(m, n, 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(knn.gather(centrals, 32));
    state.SetItemsProcessed(state.iterations() * centrals.size());
}
BENCHMARK(BM_BruteKnnGather)->Args({4096, 512});
BENCHMARK(BM_BruteKnnGather)->Args({16384, 4096})->MinTime(2.0);

/** The exact spatial-hash index on the same workloads (same
 * neighbor sets bit for bit — tests/test_knn_index.cc). */
void
BM_SpatialHashKnnGather(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const std::size_t m = static_cast<std::size_t>(state.range(1));
    const PointCloud cloud = randomCloud(n);
    const std::vector<PointIndex> centrals = randomCentrals(m, n, 4);
    FrameWorkspace ws;
    for (auto _ : state) {
        ws.beginFrame();
        SpatialHashKnn index(cloud.positions(), &ws);
        benchmark::DoNotOptimize(index.gather(
            centrals, 32, SpatialHashKnn::Accounting::ModeledBrute));
    }
    state.SetItemsProcessed(state.iterations() * centrals.size());
}
BENCHMARK(BM_SpatialHashKnnGather)
    ->Args({4096, 512})
    ->Args({16384, 4096});

/** The GEMM at the Pointnet++(s) SA0 shape, on the path the network
 * runs: a Linear with weights packed once, through the register-
 * tiled kernel with the fused bias + ReLU store (nn/tensor.cc). */
void
BM_BlockedMatmul(benchmark::State &state)
{
    Rng rng(5);
    const Linear layer(32, 64, rng);
    Tensor x(32768, 32);
    x.randomize(rng, 0.5f);
    x.reluInPlace(); // post-ReLU sparsity, like layer 2+ inputs
    Tensor out;
    for (auto _ : state) {
        layer.forwardIntoUntraced(x, out, /*relu=*/true, /*threads=*/1);
        benchmark::DoNotOptimize(out.row(0));
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * x.rows() * x.cols() *
                            layer.weight.cols());
}
BENCHMARK(BM_BlockedMatmul);

/** BM_BlockedMatmul through the kernel's baseline variant
 * (nn/gemm_kernel.h), the one a host without AVX2 + FMA runs. Where
 * the build ISA has no FMA, every lane of every step is an fmaf()
 * call: this row is what such a host loses. */
void
BM_BlockedMatmulBaseline(benchmark::State &state)
{
    Rng rng(5);
    const Linear layer(32, 64, rng);
    Tensor x(32768, 32);
    x.randomize(rng, 0.5f);
    x.reluInPlace();
    Tensor out(x.rows(), layer.weight.cols());
    for (auto _ : state) {
        gemm_kernel::matmulRowsInto(gemm_kernel::Isa::Baseline, x,
                                    layer.weight, out, 0, x.rows(),
                                    {layer.bias.data(), true});
        benchmark::DoNotOptimize(out.row(0));
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * x.rows() * x.cols() *
                            layer.weight.cols());
}
BENCHMARK(BM_BlockedMatmulBaseline)->MinTime(1.0);

/** Intra-op row parallelism at the Pointnet++(s) SA0 MLP shape:
 * arg is the worker-thread count splitting GEMM rows within one
 * frame (StreamRunner::Config::intraOpThreads). Outputs are
 * bit-identical at any count; this measures the wall-clock lever
 * (docs/PERFORMANCE.md "intra-op threads"). */
void
BM_MlpIntraOpThreads(benchmark::State &state)
{
    const int threads = static_cast<int>(state.range(0));
    Rng rng(6);
    const Mlp mlp(3 + 32, {64, 64, 128}, rng);
    Tensor x(32768, 3 + 32);
    x.randomize(rng, 0.5f);
    FrameWorkspace ws;
    ExecutionTrace trace;
    for (auto _ : state) {
        ws.beginFrame();
        trace.gemms.clear();
        benchmark::DoNotOptimize(
            mlp.forwardArena(x, "sa0", trace, ws, threads).row(0));
    }
    state.SetItemsProcessed(state.iterations() * x.rows());
}
BENCHMARK(BM_MlpIntraOpThreads)->Arg(1)->Arg(2)->Arg(4)->MinTime(0.25);

/** The Pointnet++(s) SA0 level over a 4096-point cloud — octree,
 * VEG gather, grouped rows, the 35 -> 32 -> 32 -> 64 MLP and the
 * max-pool for 1024 centroids x 32 neighbours — as one parallel
 * region over centroid blocks; arg is RunOptions::intraOpThreads
 * (bit-identical outputs at any count). The network is Pointnet++(s)
 * cut after SA0 with a 13-wide head on the pooled rows (< 1 % of the
 * work). Wall time: the level's threads run concurrently. */
void
BM_SaLevelThreads(benchmark::State &state)
{
    PointNet2Spec spec = PointNet2Spec::semanticSegmentation();
    spec.sa.resize(1);
    spec.fp.clear();
    spec.segmentation = false;
    spec.head.clear();
    const PointNet2 net(spec, 42);
    const PointCloud cloud = randomCloud(spec.inputPoints, 8);
    FrameWorkspace ws;
    RunOptions opts;
    opts.ds = DsMethod::Veg;
    opts.workspace = &ws;
    opts.intraOpThreads = static_cast<int>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(net.run(cloud, opts).logits.row(0));
    state.SetItemsProcessed(state.iterations() * spec.sa[0].npoint);
}
BENCHMARK(BM_SaLevelThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->UseRealTime();

/** The whole Pointnet++(s) network (K = 4096, VEG) — every SA and FP
 * level with its delayed layer-1 pass, and the head — at
 * RunOptions::intraOpThreads = arg. kitti_seg's inference: 1 is the
 * closed-loop frame, 3 the stream's width on a 4-core host. Wall
 * time. */
void
BM_PointNet2SegThreads(benchmark::State &state)
{
    const PointNet2 net(PointNet2Spec::semanticSegmentation(), 42);
    const PointCloud cloud = randomCloud(4096, 9);
    FrameWorkspace ws;
    RunOptions opts;
    opts.ds = DsMethod::Veg;
    opts.workspace = &ws;
    opts.intraOpThreads = static_cast<int>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(net.run(cloud, opts).logits.row(0));
    state.SetItemsProcessed(state.iterations() * cloud.size());
}
BENCHMARK(BM_PointNet2SegThreads)
    ->Arg(1)
    ->Arg(3)
    ->MinTime(0.5)
    ->UseRealTime();

/** Capture every finished run so --json can replay it. */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    struct Entry
    {
        double nsPerOp = 0;
        double itemsPerSec = 0;
    };

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            Entry e;
            e.nsPerOp = run.GetAdjustedRealTime();
            const auto it = run.counters.find("items_per_second");
            if (it != run.counters.end())
                e.itemsPerSec = it->second;
            // A per-benchmark MinTime() is run policy, not a new
            // kernel: keep it out of the record's name.
            benchmark::BenchmarkName name = run.run_name;
            name.min_time.clear();
            results[name.str()] = e;
        }
        benchmark::ConsoleReporter::ReportRuns(runs);
    }

    std::map<std::string, Entry> results;
};

int
runBenchmarks(int argc, char **argv)
{
    std::string json_path = bench::extractJsonPath(argc, argv);
    double assert_speedup = 0.0;
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--assert-knn-speedup") == 0) {
            HGPCN_ASSERT(i + 1 < argc,
                         "--assert-knn-speedup needs a value");
            assert_speedup = std::atof(argv[++i]);
            continue;
        }
        argv[w++] = argv[i];
    }
    argc = w;

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    const std::string brute = "BM_BruteKnnGather/16384/4096";
    const std::string hashed = "BM_SpatialHashKnnGather/16384/4096";
    double speedup = 0.0;
    if (reporter.results.count(brute) &&
        reporter.results.count(hashed) &&
        reporter.results[hashed].nsPerOp > 0.0) {
        speedup = reporter.results[brute].nsPerOp /
                  reporter.results[hashed].nsPerOp;
        std::printf("\nspatial-hash KNN speedup vs brute "
                    "(KITTI-scale, n=16384, q=4096, k=32): %.1fx\n",
                    speedup);
    }

    if (!json_path.empty()) {
        bench::JsonWriter json;
        json.obj()
            .field("bench", "microbench_kernels")
            .field("schema", "hgpcn-bench-kernels/1")
            .key("records")
            .arr();
        for (const auto &[name, e] : reporter.results) {
            json.obj()
                .field("kernel", name)
                .field("ns_per_op", e.nsPerOp)
                .field("items_per_sec", e.itemsPerSec)
                .close();
        }
        json.close(); // records
        json.field("knn_speedup_kitti", speedup);
        json.close(); // root
        json.writeTo(json_path);
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (assert_speedup > 0.0 && speedup < assert_speedup) {
        std::fprintf(stderr,
                     "FAIL: spatial-hash KNN speedup %.2fx below the "
                     "%.2fx guard\n",
                     speedup, assert_speedup);
        return 1;
    }
    benchmark::Shutdown();
    return 0;
}

} // namespace
} // namespace hgpcn

int
main(int argc, char **argv)
{
    return hgpcn::runBenchmarks(argc, argv);
}
