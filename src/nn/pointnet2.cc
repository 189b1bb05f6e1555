#include "nn/pointnet2.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "core/frame_workspace.h"
#include "gather/brute_gatherers.h"
#include "gather/veg_gatherer.h"
#include "knn/spatial_hash_knn.h"
#include "knn/top_k.h"
#include "sampling/fps_sampler.h"

namespace hgpcn
{

const char *
toString(DsMethod method)
{
    switch (method) {
      case DsMethod::BruteKnn:
        return "KNN-brute";
      case DsMethod::BruteBq:
        return "BQ-brute";
      case DsMethod::Veg:
        return "VEG";
      case DsMethod::VegBq:
        return "VEG-BQ";
      case DsMethod::VegStrict:
        return "VEG-strict";
    }
    return "?";
}

PointNet2Spec
PointNet2Spec::classification(std::size_t num_classes)
{
    PointNet2Spec spec;
    spec.name = "Pointnet++(c)";
    spec.inputPoints = 1024;
    spec.numClasses = num_classes;
    spec.segmentation = false;
    spec.sa = {
        {512, 32, 0.2f, {64, 64, 128}},
        {128, 64, 0.4f, {128, 128, 256}},
        {0, 0, 0.0f, {256, 512, 1024}},
    };
    spec.head = {512, 256};
    return spec;
}

PointNet2Spec
PointNet2Spec::partSegmentation(std::size_t num_parts)
{
    PointNet2Spec spec;
    spec.name = "Pointnet++(ps)";
    spec.inputPoints = 2048;
    spec.numClasses = num_parts;
    spec.segmentation = true;
    spec.sa = {
        {512, 32, 0.2f, {64, 64, 128}},
        {128, 64, 0.4f, {128, 128, 256}},
        {0, 0, 0.0f, {256, 512, 1024}},
    };
    spec.fp = {
        {{128, 128, 128}}, // level 1 -> 0
        {{256, 128}},      // level 2 -> 1
        {{256, 256}},      // level 3 -> 2
    };
    spec.head = {128};
    return spec;
}

PointNet2Spec
PointNet2Spec::semanticSegmentation(std::size_t num_classes)
{
    PointNet2Spec spec;
    spec.name = "Pointnet++(s)";
    spec.inputPoints = 4096;
    spec.numClasses = num_classes;
    spec.segmentation = true;
    spec.sa = {
        {1024, 32, 0.1f, {32, 32, 64}},
        {256, 32, 0.2f, {64, 64, 128}},
        {64, 32, 0.4f, {128, 128, 256}},
        {16, 32, 0.8f, {256, 256, 512}},
    };
    spec.fp = {
        {{128, 128, 128}}, // level 1 -> 0
        {{256, 128}},      // level 2 -> 1
        {{256, 256}},      // level 3 -> 2
        {{256, 256}},      // level 4 -> 3
    };
    spec.head = {128};
    return spec;
}

PointNet2Spec
PointNet2Spec::outdoorSegmentation(std::size_t num_classes)
{
    PointNet2Spec spec = semanticSegmentation(num_classes);
    spec.name = "Pointnet++(s)-kitti";
    spec.inputPoints = 16384;
    spec.sa[0].npoint = 4096;
    spec.sa[1].npoint = 1024;
    spec.sa[2].npoint = 256;
    spec.sa[3].npoint = 64;
    return spec;
}

PointNet2Spec
PointNet2Spec::edgeClassification(std::size_t num_classes)
{
    PointNet2Spec spec;
    spec.name = "Pointnet++(e)";
    spec.inputPoints = 256;
    spec.numClasses = num_classes;
    spec.segmentation = false;
    // Narrow fan-out (npoint * k <= 64 rows per GEMM) with wide
    // MLPs: solo FCU cost is dominated by per-tile fill/drain and
    // the per-layer weight fetch, both of which amortize across a
    // micro-batch.
    spec.sa = {
        {16, 4, 0.3f, {64, 128, 128}},
        {8, 4, 0.6f, {128, 256}},
        {0, 0, 0.0f, {256, 512}},
    };
    spec.head = {256, 128};
    return spec;
}

PointNet2::PointNet2(const PointNet2Spec &spec, std::uint64_t weight_seed)
    : arch(spec)
{
    HGPCN_ASSERT(!arch.sa.empty(), "network needs at least one SA layer");
    if (arch.segmentation) {
        HGPCN_ASSERT(arch.fp.size() == arch.sa.size(),
                     "segmentation nets need one FP per SA level");
    }

    Rng rng(weight_seed);
    const std::size_t levels = arch.sa.size();

    // Feature width entering each level: level 0 is the input cloud.
    std::vector<std::size_t> width(levels + 1);
    width[0] = arch.inputFeatureDim;
    for (std::size_t i = 0; i < levels; ++i) {
        // Delayed aggregation: a sampling level's layer 1 runs its
        // feature rows once per level point (nn/mlp.h).
        const std::size_t in = 3 + width[i];
        const RowRange delayed = arch.sa[i].npoint > 0 && width[i] > 0
                                     ? RowRange{3, in}
                                     : RowRange{};
        sa_mlps.emplace_back(in, arch.sa[i].mlp, rng, true, delayed);
        width[i + 1] = arch.sa[i].mlp.back();
    }

    std::size_t head_in = width[levels];
    if (arch.segmentation) {
        // FP t fuses the features propagated down from level t+1
        // (the output of fp[t+1], or of the top SA for t = L-1) with
        // the skip features of level t. All widths are known from
        // the spec, so weights are created in forward order.
        fp_mlps.reserve(levels);
        for (std::size_t t = 0; t < levels; ++t) {
            const std::size_t from_above =
                t + 1 == levels ? width[levels]
                                : arch.fp[t + 1].mlp.back();
            // Layer 1's rows on the features from above run once
            // per coarse point, before interpolation.
            fp_mlps.emplace_back(from_above + width[t], arch.fp[t].mlp,
                                 rng, true, RowRange{0, from_above});
        }
        head_in = arch.fp[0].mlp.back();
    }

    std::vector<std::size_t> head_widths = arch.head;
    head_widths.push_back(arch.numClasses);
    head_mlp = std::make_unique<Mlp>(head_in, head_widths, rng,
                                     /*final_relu=*/false);
}

namespace
{

/** Pick @p m distinct indices out of @p n uniformly, into a
 * workspace buffer. */
std::vector<PointIndex> &
randomCentroids(std::size_t n, std::size_t m, Rng &rng,
                FrameWorkspace &ws)
{
    std::vector<PointIndex> &all = ws.indices(n);
    std::iota(all.begin(), all.end(), 0u);
    for (std::size_t i = 0; i < m; ++i) {
        const std::size_t j = i + rng.below(n - i);
        std::swap(all[i], all[j]);
    }
    all.resize(m);
    return all;
}

/** Build a coordinates-only PointCloud from positions. */
PointCloud
cloudFromPositions(std::span<const Vec3> positions)
{
    PointCloud cloud;
    cloud.reserve(positions.size());
    for (const Vec3 &p : positions)
        cloud.add(p);
    return cloud;
}

/** Inverse of an index permutation, into a workspace buffer. */
std::vector<PointIndex> &
invertPermutation(const std::vector<PointIndex> &perm,
                  FrameWorkspace &ws)
{
    std::vector<PointIndex> &inv = ws.indices(perm.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
        inv[perm[i]] = static_cast<PointIndex>(i);
    return inv;
}

/**
 * Brute-force k-NN of arbitrary query coordinates against a cloud
 * (queries need not be cloud members). The oracle path behind
 * opts.fastKnn == false; the spatial-hash index reproduces it
 * bit for bit. Distance workload goes to the result's stats.
 */
GatherResult
bruteNnAt(std::span<const Vec3> points, std::span<const Vec3> queries,
          std::size_t k)
{
    const std::size_t n = points.size();
    GatherResult result;
    result.k = k;
    result.neighbors.reserve(queries.size() * k);
    std::vector<ScoredNeighbor> scored(n);
    for (const Vec3 &q : queries) {
        for (std::size_t i = 0; i < n; ++i) {
            scored[i] = {points[i].distSq(q),
                         static_cast<PointIndex>(i)};
        }
        selectTopK(scored, k);
        for (std::size_t j = 0; j < k; ++j)
            result.neighbors.push_back(scored[j].second);
    }
    result.stats.add("gather.distance_computations", queries.size() * n);
    result.stats.add("gather.sort_candidates", queries.size() * n);
    return result;
}

bool
isVeg(DsMethod method)
{
    return method == DsMethod::Veg || method == DsMethod::VegBq ||
           method == DsMethod::VegStrict;
}

/** The VEG octree over one level's points. */
Octree
levelTree(std::span<const Vec3> positions)
{
    Octree::Config cfg;
    cfg.maxDepth = 12;
    return Octree::build(cloudFromPositions(positions), cfg);
}

/** MLP rows a block aims for: its activations stay in a core's L2
 * cache, and the per-block calls stay cheap next to its GEMMs. */
constexpr std::size_t kBlockRows = 128;

/** Blocks per thread at least, so that dynamic claiming evens out
 * gathers of uneven cost. */
constexpr std::size_t kBlocksPerThread = 4;

/** Items (centroids or fine points) [begin, end) of one frame. */
struct Block
{
    std::size_t frame = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
};

/** One worker's scratch for a region, every buffer at full-block
 * capacity: the block's input rows, the MLP ping-pong pair, the
 * block's neighbor list, and per-frame gather counters. */
struct BlockScratch
{
    FrameWorkspace *ws = nullptr;
    Tensor *x = nullptr;
    Tensor *ping = nullptr;
    Tensor *pong = nullptr;
    PointIndex *neighbors = nullptr;
    VegCounters *counters = nullptr;
};

/**
 * The plan of one parallel level: blocks over every frame's items,
 * the threads the level's MLP work earns, and each worker's scratch,
 * leased on the calling thread so that a warm workspace allocates
 * nothing inside the region.
 */
class Region
{
  public:
    /**
     * @param items Items per frame.
     * @param rows_per_item MLP rows per item (SA: k; FP: 1).
     * @param neighbors_per_item Gathered neighbors per item.
     * @param macs_per_row Work per MLP row (the gate's measure).
     * @param x_cols Width of a block's input rows.
     * @param mlp_cols Widest MLP activation.
     */
    Region(std::span<const std::size_t> items, std::size_t rows_per_item,
           std::size_t neighbors_per_item, std::uint64_t macs_per_row,
           std::size_t x_cols, std::size_t mlp_cols,
           const RunOptions &opts, FrameWorkspace &ws)
        : frames(items.size())
    {
        std::size_t total = 0;
        std::size_t largest = 1;
        for (std::size_t n : items) {
            total += n;
            largest = std::max(largest, n);
        }
        const std::size_t gated = static_cast<std::size_t>(gatedThreads(
            total * rows_per_item * macs_per_row, opts.intraOpThreads));
        std::size_t per = opts.blockPoints;
        if (per == 0) {
            per = std::max<std::size_t>(1, kBlockRows / rows_per_item);
            if (gated > 1)
                per = std::min(per, std::max<std::size_t>(
                                        1, total / (gated *
                                                    kBlocksPerThread)));
        }
        per = std::min(per, largest);
        std::size_t count = 0;
        for (std::size_t n : items)
            count += (n + per - 1) / per;
        blocks.reserve(count);
        for (std::size_t f = 0; f < items.size(); ++f)
            for (std::size_t b = 0; b < items[f]; b += per)
                blocks.push_back({f, b, std::min(b + per, items[f])});

        const std::size_t workers =
            std::max<std::size_t>(1, std::min(gated, blocks.size()));
        ws.reserveWorkers(workers);
        counters.assign(workers * frames, {});
        scratch.resize(workers);
        const std::size_t rows = per * rows_per_item;
        for (std::size_t w = 0; w < workers; ++w) {
            FrameWorkspace &wws = ws.worker(w);
            wws.beginFrame();
            scratch[w] = {&wws,
                          &wws.tensor(rows, x_cols),
                          &wws.tensor(rows, mlp_cols),
                          &wws.tensor(rows, mlp_cols),
                          wws.indices(per * neighbors_per_item).data(),
                          &counters[w * frames]};
        }
    }

    /** Run fn(scratch, block) over every block. */
    template <class Fn>
    void
    run(const Fn &fn)
    {
        parallelBlocks(
            blocks.size(), static_cast<int>(scratch.size()),
            [this](std::size_t w) -> BlockScratch & { return scratch[w]; },
            [this, &fn](BlockScratch &s, std::size_t b) {
                fn(s, blocks[b]);
            });
    }

    /** @return frame @p f's gather counters, summed over workers. */
    VegCounters
    frameCounters(std::size_t f) const
    {
        VegCounters total;
        for (std::size_t w = 0; w < scratch.size(); ++w)
            total.add(counters[w * frames + f]);
        return total;
    }

  private:
    std::size_t frames;
    std::vector<Block> blocks;
    std::vector<VegCounters> counters; //!< [worker][frame]
    std::vector<BlockScratch> scratch;
};

/**
 * One frame's share of a level: its data structuring — a VEG
 * gatherer that every block runs over its own items, or a
 * whole-level gather done before the region (every other method) —
 * the layer-1 products of the points it gathers from (delayed
 * aggregation), and the tensor its blocks write.
 */
struct FrameLevel
{
    GatherOp op;
    std::size_t k = 0;
    const Tensor *delayed = nullptr; //!< [gathered points, layer-1 width]
    Tensor *out = nullptr;
    Tensor *next = nullptr; //!< out times the next level's delayed rows
    Octree localTree;
    GatherResult gathered;         //!< whole-level gather
    const VegKnn *knn = nullptr;   //!< blocked: the VEG gatherer
    std::span<const Vec3> anchors; //!< blocked: items in tree space

    /** Gather in blocks from now on, through @p gatherer around
     * @p item_anchors. */
    void
    gatherInBlocks(const VegKnn &gatherer,
                   std::span<const Vec3> item_anchors)
    {
        knn = &gatherer;
        anchors = item_anchors;
        op.traces.resize(item_anchors.size());
    }

    /** Take a whole-level gather, its counters and traces. */
    void
    gatherWhole(GatherResult result)
    {
        gathered = std::move(result);
        op.stats.merge(gathered.stats);
        op.traces = std::move(gathered.traces);
    }

    /** @return the k neighbors (level indices) of each item of
     * @p blk, gathering them first when blocked. */
    const PointIndex *
    neighbors(const Block &blk, BlockScratch &s)
    {
        if (!knn)
            return gathered.neighbors.data() + blk.begin * k;
        const std::size_t items = blk.end - blk.begin;
        const std::span<PointIndex> out(s.neighbors, items * k);
        knn->gatherAtRange(anchors, k, blk.begin, blk.end, out,
                           std::span(op.traces).subspan(blk.begin, items),
                           s.counters[blk.frame], s.ws, nullptr);
        const std::vector<PointIndex> &perm = knn->tree().permutation();
        for (PointIndex &idx : out)
            idx = perm[idx];
        return s.neighbors;
    }

    /** After the region: a blocked gather's counters, as a whole-
     * level gather's GatherResult::stats would carry them. */
    void
    finish(const VegCounters &counters)
    {
        if (!knn)
            return;
        StatSet stats;
        counters.writeTo(stats);
        op.stats.merge(stats);
    }
};

} // namespace

struct PointNet2::FrameRun
{
    explicit FrameRun(std::uint64_t seed) : rng(seed) {}

    const Octree *inputOctree = nullptr; //!< level-0 VEG tree
    Rng rng;
    std::vector<Level> levels; //!< input, then one per SA level
    const Tensor *carried = nullptr; //!< FP: features from above
    /** The next level's delayed layer-1 products of the features the
     * last level wrote, which that level computed (null when the
     * next level has no delayed rows, and before SA0: its input
     * features get a pass of their own). */
    const Tensor *delayed = nullptr;
    RunOutput out;
};

const Mlp *
PointNet2::delayedConsumer(std::size_t step) const
{
    const std::size_t levels = arch.sa.size();
    const Mlp *next = nullptr;
    if (step + 1 < levels)
        next = &sa_mlps[step + 1];
    else if (arch.segmentation && step + 1 < 2 * levels)
        next = &fp_mlps[2 * levels - 2 - step];
    return next != nullptr && next->hasDelayed() ? next : nullptr;
}

void
PointNet2::runSaLevel(std::size_t layer, std::span<FrameRun> frames,
                      const RunOptions &opts, FrameWorkspace &ws,
                      const Mlp *next) const
{
    const SaLayerSpec &spec = arch.sa[layer];
    const Mlp &mlp = sa_mlps[layer];
    const std::string name = "sa" + std::to_string(layer);
    const std::size_t k = spec.k;

    std::vector<FrameLevel> lv(frames.size());
    std::vector<std::span<const Vec3>> centers(frames.size());
    for (std::size_t f = 0; f < frames.size(); ++f) {
        FrameRun &fr = frames[f];
        FrameLevel &l = lv[f];
        const Level &in = fr.levels.back();
        const std::size_t n = in.positions.size();
        HGPCN_ASSERT(spec.npoint <= n, "SA", layer, ": npoint ",
                     spec.npoint, " exceeds level size ", n);
        HGPCN_ASSERT(k >= 1 && k <= n, "SA", layer, ": k ", k,
                     " vs level size ", n);

        // --- Central point selection (Fig. 2, step 1). ---------------
        std::vector<PointIndex> *centroid_buf = nullptr;
        if (opts.centroid == CentroidMethod::Random) {
            centroid_buf = &randomCentroids(n, spec.npoint, fr.rng, ws);
        } else {
            PointCloud level_cloud = cloudFromPositions(in.positions);
            FpsSampler fps(opts.seed + layer);
            std::vector<PointIndex> &buf = ws.indices(spec.npoint);
            SampleResult fps_result =
                fps.sample(level_cloud, spec.npoint, &ws);
            std::copy(fps_result.indices.begin(),
                      fps_result.indices.end(), buf.begin());
            centroid_buf = &buf;
        }
        const std::vector<PointIndex> &centroids = *centroid_buf;
        std::vector<Vec3> &center_buf = ws.positions(spec.npoint);
        for (std::size_t i = 0; i < spec.npoint; ++i)
            center_buf[i] = in.positions[centroids[i]];
        centers[f] = center_buf;

        // --- Data structuring (Fig. 2, step 2). ----------------------
        l.op.layer = name;
        l.op.method = toString(opts.ds);
        l.op.centroids = spec.npoint;
        l.op.k = k;
        l.op.inputPoints = n;
        l.k = k;
        // Neighbor/centroid indices below are all in the *level*
        // index space; VEG works in the octree's reordered space, so
        // map on the way in and out.
        if (isVeg(opts.ds)) {
            const Octree *tree = fr.inputOctree;
            if (layer != 0 || tree == nullptr) {
                l.localTree = levelTree(in.positions);
                l.op.stats.merge(l.localTree.buildStats());
                tree = &l.localTree;
            }
            const std::vector<PointIndex> &perm = tree->permutation();
            const std::vector<PointIndex> &inv =
                invertPermutation(perm, ws);
            if (opts.ds == DsMethod::VegBq) {
                std::vector<PointIndex> &centrals_reordered =
                    ws.indices(spec.npoint);
                for (std::size_t i = 0; i < spec.npoint; ++i)
                    centrals_reordered[i] = inv[centroids[i]];
                VegBallQuery::Config bq_cfg;
                bq_cfg.radius = spec.radius;
                VegBallQuery bq(*tree, bq_cfg);
                GatherResult bq_result = bq.gather(centrals_reordered, k);
                for (auto &idx : bq_result.neighbors)
                    idx = perm[idx];
                l.gatherWhole(std::move(bq_result));
            } else {
                std::vector<Vec3> &anchors = ws.positions(spec.npoint);
                const PointCloud &cloud = tree->reorderedCloud();
                for (std::size_t i = 0; i < spec.npoint; ++i)
                    anchors[i] = cloud.position(inv[centroids[i]]);
                VegKnn::Config knn_cfg;
                knn_cfg.mode = opts.ds == DsMethod::VegStrict
                                   ? VegMode::Strict
                                   : VegMode::Paper;
                knn_cfg.seed = opts.seed;
                l.gatherInBlocks(ws.vegKnn(*tree, knn_cfg), anchors);
            }
        } else if (opts.ds == DsMethod::BruteBq) {
            PointCloud level_cloud = cloudFromPositions(in.positions);
            BruteBallQuery bq(level_cloud, spec.radius);
            l.gatherWhole(bq.gather(centroids, k));
        } else if (opts.fastKnn) {
            // Exact spatial-hash KNN on the host; the modeled device
            // still runs the full scan, so the trace carries the
            // brute workload (knn/spatial_hash_knn.h).
            SpatialHashKnn index(in.positions, &ws);
            l.gatherWhole(index.gather(
                centroids, k, SpatialHashKnn::Accounting::ModeledBrute));
        } else {
            PointCloud level_cloud = cloudFromPositions(in.positions);
            BruteKnn knn(level_cloud);
            l.gatherWhole(knn.gather(centroids, k));
        }
        l.out = &ws.tensor(spec.npoint, mlp.outWidth());
        if (mlp.hasDelayed()) {
            if (fr.delayed == nullptr) { // input features: no producer
                Tensor &own = ws.tensor(n, mlp.firstWidth());
                mlp.forwardDelayed(*in.features, own, opts.intraOpThreads);
                fr.delayed = &own;
            }
            l.delayed = fr.delayed;
        }
        if (next != nullptr)
            l.next = &ws.tensor(spec.npoint, next->firstWidth());
    }

    // --- Gather, grouped rows, MLP and max-pool, block by block
    // (Fig. 2, steps 2-3). A grouped row is its relative coordinates
    // plus, with features, the neighbor's layer-1 products. ---------
    const std::vector<std::size_t> items(frames.size(), spec.npoint);
    Region region(items, k, k, mlp.macsPerRow(), 3, mlp.maxWidth(), opts,
                  ws);
    region.run([&](BlockScratch &bs, const Block &blk) {
        FrameLevel &l = lv[blk.frame];
        const Level &in = frames[blk.frame].levels.back();
        const std::span<const Vec3> center = centers[blk.frame];
        const std::size_t rows = (blk.end - blk.begin) * k;
        const PointIndex *neigh = l.neighbors(blk, bs);
        const Tensor *pre = l.delayed;
        Tensor &x = *bs.x;
        x.resizeUninit(rows, 3);
        if (pre != nullptr)
            bs.ping->resizeUninit(rows, pre->cols());
        for (std::size_t r = 0; r < rows; ++r) {
            const PointIndex pi = neigh[r];
            float *row = x.row(r);
            const Vec3 rel = in.positions[pi] - center[blk.begin + r / k];
            row[0] = rel.x;
            row[1] = rel.y;
            row[2] = rel.z;
            if (pre != nullptr)
                std::copy(pre->row(pi), pre->row(pi) + pre->cols(),
                          bs.ping->row(r));
        }
        mlp.forwardRows(x, *bs.ping, *bs.pong)
            .maxPoolGroupsRowsInto(k, 0, rows, *l.out, blk.begin);
        if (l.next != nullptr)
            next->forwardDelayedRows(*l.out, *l.next, blk.begin, blk.end);
    });

    for (std::size_t f = 0; f < frames.size(); ++f) {
        FrameLevel &l = lv[f];
        frames[f].delayed = l.next;
        l.finish(region.frameCounters(f));
        ExecutionTrace &trace = frames[f].out.trace;
        trace.gathers.push_back(std::move(l.op));
        mlp.recordGemms(spec.npoint * k, name, trace);
        frames[f].levels.push_back({centers[f], l.out});
    }
}

void
PointNet2::runGroupAll(std::size_t layer, std::span<FrameRun> frames,
                       const RunOptions &opts, FrameWorkspace &ws,
                       const Mlp *next) const
{
    // One neighborhood per frame holding every point, centered at
    // the centroid of the level.
    const std::string name = "sa" + std::to_string(layer);
    const std::size_t c_in = frames[0].levels.back().features->cols();
    const std::size_t batch = frames.size();
    std::vector<std::size_t> rows(batch), offsets(batch);
    std::vector<ExecutionTrace *> traces(batch);
    std::size_t total = 0;
    for (std::size_t f = 0; f < batch; ++f) {
        rows[f] = frames[f].levels.back().positions.size();
        offsets[f] = total;
        total += rows[f];
        traces[f] = &frames[f].out.trace;
    }
    Tensor &grouped = ws.tensor(total, 3 + c_in);
    std::vector<std::span<const Vec3>> centers(batch);
    for (std::size_t f = 0; f < batch; ++f) {
        const Level &in = frames[f].levels.back();
        Vec3 mean{0, 0, 0};
        for (const Vec3 &p : in.positions)
            mean += p;
        mean = mean / static_cast<float>(rows[f]);
        for (std::size_t i = 0; i < rows[f]; ++i) {
            float *row = grouped.row(offsets[f] + i);
            const Vec3 rel = in.positions[i] - mean;
            row[0] = rel.x;
            row[1] = rel.y;
            row[2] = rel.z;
            for (std::size_t c = 0; c < c_in; ++c)
                row[3 + c] = in.features->at(i, c);
        }
        std::vector<Vec3> &center = ws.positions(1);
        center[0] = mean;
        centers[f] = center;
    }
    const Tensor &out = sa_mlps[layer].forwardBatchArena(
        grouped, rows, traces, name, ws, opts.intraOpThreads);
    for (std::size_t f = 0; f < batch; ++f) {
        Tensor &pooled = ws.tensor(1, out.cols());
        out.maxPoolGroupsRowsInto(rows[f], offsets[f],
                                  offsets[f] + rows[f], pooled, 0);
        frames[f].levels.push_back({centers[f], &pooled});
        frames[f].delayed = nullptr;
        if (next != nullptr) { // one row: no region
            Tensor &products = ws.tensor(1, next->firstWidth());
            next->forwardDelayed(pooled, products, 1);
            frames[f].delayed = &products;
        }
    }
}

void
PointNet2::runFpLevel(std::size_t layer, std::span<FrameRun> frames,
                      const RunOptions &opts, FrameWorkspace &ws,
                      const Mlp *next) const
{
    const Mlp &mlp = fp_mlps[layer];
    // The head runs per point too, so FP level 0's blocks carry
    // their rows on through it straight into the logits.
    const Mlp *head = layer == 0 ? head_mlp.get() : nullptr;
    const std::string name = "fp" + std::to_string(layer);
    const std::size_t c_skip = frames[0].levels[layer].features->cols();

    std::vector<FrameLevel> lv(frames.size());
    std::vector<std::size_t> items(frames.size());
    for (std::size_t f = 0; f < frames.size(); ++f) {
        FrameRun &fr = frames[f];
        FrameLevel &l = lv[f];
        const Level &fine = fr.levels[layer];
        const std::span<const Vec3> coarse = fr.levels[layer + 1].positions;
        const std::size_t n_c = coarse.size();
        items[f] = fine.positions.size();
        l.k = std::min<std::size_t>(3, n_c);

        // Three-nearest-neighbor interpolation: another data-
        // structuring workload (accounted like SA gathers;
        // PointACC's Mapping Unit also serves these lookups).
        l.op.layer = name;
        l.op.method = toString(opts.ds);
        l.op.centroids = items[f];
        l.op.k = l.k;
        l.op.inputPoints = n_c;
        if (isVeg(opts.ds) && n_c > 4 * l.k) {
            // VEG-strict keeps interpolation exact while the octree
            // bounds the search locally (the DSU serves FP lookups
            // too).
            l.localTree = levelTree(coarse);
            l.op.stats.merge(l.localTree.buildStats());
            VegKnn::Config knn_cfg;
            knn_cfg.mode = VegMode::Strict;
            l.gatherInBlocks(ws.vegKnn(l.localTree, knn_cfg),
                             fine.positions);
        } else if (opts.fastKnn) {
            SpatialHashKnn index(coarse, &ws);
            l.gatherWhole(index.gatherAt(
                fine.positions, l.k,
                SpatialHashKnn::Accounting::ModeledBrute));
        } else {
            l.gatherWhole(bruteNnAt(coarse, fine.positions, l.k));
        }
        if (head != nullptr) {
            fr.out.logits.resizeUninit(items[f], head->outWidth());
            l.out = &fr.out.logits;
        } else {
            l.out = &ws.tensor(items[f], mlp.outWidth());
        }
        l.delayed = fr.delayed; // from the level above, always
        if (next != nullptr)
            l.next = &ws.tensor(items[f], next->firstWidth());
    }

    const std::size_t mlp_cols =
        std::max(mlp.maxWidth(), head ? head->maxWidth() : 0);
    const std::uint64_t macs_per_row =
        mlp.macsPerRow() + (head ? head->macsPerRow() : 0);
    // The head's first layer writes into the block's input buffer.
    Region region(items, 1, 3, macs_per_row,
                  std::max(c_skip, head ? mlp_cols : 0), mlp_cols, opts,
                  ws);
    region.run([&](BlockScratch &bs, const Block &blk) {
        FrameRun &fr = frames[blk.frame];
        FrameLevel &l = lv[blk.frame];
        const Level &fine = fr.levels[layer];
        const std::span<const Vec3> coarse = fr.levels[layer + 1].positions;
        const Tensor &pre = *l.delayed;
        const std::size_t width = pre.cols();
        const std::size_t k = l.k;
        const std::size_t rows = blk.end - blk.begin;
        const PointIndex *neigh = l.neighbors(blk, bs);

        // Inverse-distance-weighted interpolation of the coarse
        // points' layer-1 products, beside the skip features.
        Tensor &x = *bs.x;
        Tensor &interp = *bs.ping;
        x.resizeUninit(rows, c_skip);
        interp.resizeUninit(rows, width);
        for (std::size_t r = 0; r < rows; ++r) {
            const std::size_t i = blk.begin + r;
            const PointIndex *nb = neigh + r * k;
            float weights[3] = {0, 0, 0};
            float total = 0.0f;
            for (std::size_t j = 0; j < k; ++j) {
                const float d = coarse[nb[j]].distSq(fine.positions[i]);
                weights[j] = 1.0f / (d + 1e-8f);
                total += weights[j];
            }
            float *acc = interp.row(r);
            std::fill(acc, acc + width, 0.0f);
            for (std::size_t j = 0; j < k; ++j) {
                const float w = weights[j] / total;
                const float *g = pre.row(nb[j]);
                for (std::size_t c = 0; c < width; ++c)
                    acc[c] += w * g[c];
            }
            if (c_skip > 0)
                std::copy(fine.features->row(i),
                          fine.features->row(i) + c_skip, x.row(r));
        }
        const Tensor &y = mlp.forwardRows(x, *bs.ping, *bs.pong);
        if (head != nullptr) {
            Tensor &idle = &y == bs.ping ? *bs.pong : *bs.ping;
            head->forwardRows(y, x, idle)
                .copyRowsInto(0, rows, *l.out, blk.begin);
        } else {
            y.copyRowsInto(0, rows, *l.out, blk.begin);
            if (l.next != nullptr)
                next->forwardDelayedRows(*l.out, *l.next, blk.begin,
                                         blk.end);
        }
    });

    for (std::size_t f = 0; f < frames.size(); ++f) {
        FrameLevel &l = lv[f];
        frames[f].delayed = l.next;
        l.finish(region.frameCounters(f));
        ExecutionTrace &trace = frames[f].out.trace;
        trace.gathers.push_back(std::move(l.op));
        mlp.recordGemms(items[f], name, trace);
        if (head != nullptr)
            head->recordGemms(items[f], "head", trace);
        else
            frames[f].carried = l.out;
    }
}

void
PointNet2::runHead(std::span<FrameRun> frames, const RunOptions &opts,
                   FrameWorkspace &ws) const
{
    const std::size_t batch = frames.size();
    const std::size_t width = frames[0].levels.back().features->cols();
    std::vector<std::size_t> rows(batch), offsets(batch);
    std::vector<ExecutionTrace *> traces(batch);
    std::size_t total = 0;
    for (std::size_t f = 0; f < batch; ++f) {
        rows[f] = frames[f].levels.back().features->rows();
        offsets[f] = total;
        total += rows[f];
        traces[f] = &frames[f].out.trace;
    }
    Tensor &stacked = ws.tensor(total, width);
    for (std::size_t f = 0; f < batch; ++f)
        frames[f].levels.back().features->copyRowsInto(
            0, rows[f], stacked, offsets[f]);
    const Tensor &logits = head_mlp->forwardBatchArena(
        stacked, rows, traces, "head", ws, opts.intraOpThreads);
    for (std::size_t f = 0; f < batch; ++f) {
        Tensor &out = frames[f].out.logits;
        out.resizeUninit(rows[f], logits.cols());
        logits.copyRowsInto(offsets[f], offsets[f] + rows[f], out, 0);
    }
}

std::vector<RunOutput>
PointNet2::runFrames(std::span<const PointCloud *const> inputs,
                     const RunOptions &opts,
                     const Octree *input_octree) const
{
    HGPCN_ASSERT(opts.intraOpThreads >= 1,
                 "intraOpThreads must be >= 1");
    for (const PointCloud *input : inputs) {
        HGPCN_ASSERT(input != nullptr && !input->empty(),
                     "empty input cloud");
        HGPCN_ASSERT(input->featureDim() == arch.inputFeatureDim,
                     "input feature width ", input->featureDim(),
                     " != spec width ", arch.inputFeatureDim);
    }

    // Private fallback arena: same path, per-call allocation.
    FrameWorkspace local_ws;
    FrameWorkspace &ws =
        opts.workspace != nullptr ? *opts.workspace : local_ws;
    ws.beginFrame();

    // One Rng per frame, each seeded like a solo run, so central-
    // point selection is independent of batch composition.
    std::vector<FrameRun> frames;
    frames.reserve(inputs.size());
    for (const PointCloud *input : inputs) {
        FrameRun &fr = frames.emplace_back(opts.seed);
        Tensor &f0 = ws.tensor(input->size(), arch.inputFeatureDim);
        for (std::size_t i = 0; i < input->size(); ++i) {
            const auto feat = input->feature(static_cast<PointIndex>(i));
            for (std::size_t c = 0; c < feat.size(); ++c)
                f0.at(i, c) = feat[c];
        }
        fr.levels.reserve(arch.sa.size() + 1);
        fr.levels.push_back({input->positions(), &f0});
    }
    frames[0].inputOctree = input_octree;

    const std::size_t levels = arch.sa.size();
    for (std::size_t i = 0; i < levels; ++i) {
        if (arch.sa[i].npoint == 0)
            runGroupAll(i, frames, opts, ws, delayedConsumer(i));
        else
            runSaLevel(i, frames, opts, ws, delayedConsumer(i));
    }
    if (arch.segmentation) {
        for (FrameRun &fr : frames)
            fr.carried = fr.levels.back().features;
        for (std::size_t t = levels; t-- > 0;)
            runFpLevel(t, frames, opts, ws,
                       delayedConsumer(2 * levels - 1 - t));
    } else {
        runHead(frames, opts, ws);
    }

    std::vector<RunOutput> outs;
    outs.reserve(frames.size());
    for (FrameRun &fr : frames) {
        RunOutput &out = outs.emplace_back(std::move(fr.out));
        out.labels.resize(out.logits.rows());
        for (std::size_t r = 0; r < out.logits.rows(); ++r)
            out.labels[r] = out.logits.argmaxRow(r);
    }
    return outs;
}

RunOutput
PointNet2::run(const PointCloud &input, const RunOptions &opts) const
{
    if (opts.inputOctree) {
        HGPCN_ASSERT(opts.inputOctree->reorderedCloud().size() ==
                         input.size(),
                     "input octree does not match the input cloud");
    }
    const PointCloud *const one[] = {&input};
    return std::move(runFrames(one, opts, opts.inputOctree)[0]);
}

std::vector<RunOutput>
PointNet2::runBatch(std::span<const PointCloud *const> inputs,
                    const RunOptions &opts) const
{
    HGPCN_ASSERT(!inputs.empty(), "empty batch");
    HGPCN_ASSERT(opts.inputOctree == nullptr,
                 "batched inference takes no shared input octree "
                 "(frames come from different sensors)");
    return runFrames(inputs, opts, nullptr);
}

} // namespace hgpcn
