#include "core/temporal_preprocess.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "core/frame_workspace.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hgpcn
{
namespace
{

/** One frame's cache outcome, distilled for the metrics mirror. */
struct FrameAttribution
{
    bool incremental = false;
    std::uint64_t nodesReused = 0;
    std::uint64_t nodesErected = 0;
    std::uint64_t retained = 0;
    std::uint64_t inserted = 0;
    std::uint64_t evicted = 0;
    bool knnIncremental = false;
    bool occIncremental = false;
    bool indicesCached = false;
};

/** Mirror one frame's outcome into "temporal.*" counters. */
void
recordMetrics(MetricsRegistry &reg, const FrameAttribution &fa)
{
    reg.counter("temporal.frames").add();
    reg.counter(fa.incremental ? "temporal.octree.hits"
                               : "temporal.octree.misses")
        .add();
    if (fa.incremental) {
        reg.counter("temporal.nodes.reused").add(fa.nodesReused);
        reg.counter("temporal.nodes.erected").add(fa.nodesErected);
        reg.counter("temporal.points.retained").add(fa.retained);
        reg.counter("temporal.points.inserted").add(fa.inserted);
        reg.counter("temporal.points.evicted").add(fa.evicted);
    }
    if (fa.indicesCached) {
        reg.counter(fa.knnIncremental ? "temporal.knn.incremental"
                                      : "temporal.knn.scratch")
            .add();
        reg.counter(fa.occIncremental ? "temporal.occ.incremental"
                                      : "temporal.occ.scratch")
            .add();
    }
}

/** Per-frame attribution samples on the wall clock: the "why is
 *  subtree reuse stuck" question, readable frame by frame from one
 *  trace instead of a terminal aggregate. */
void
recordTrace(std::uint64_t frame_no, std::int64_t shard,
            const FrameAttribution &fa)
{
#ifndef HGPCN_TRACING_DISABLED
    Tracer &tracer = Tracer::global();
    if (!tracer.enabled())
        return;
    const std::string track =
        shard >= 0 ? "shard" + std::to_string(shard) + "/temporal"
                   : "runner/temporal";
    const double now = tracer.wallNowSec();
    const std::uint64_t touched = fa.nodesReused + fa.nodesErected;
    const double reuse_pct =
        touched > 0 ? 100.0 * static_cast<double>(fa.nodesReused) /
                          static_cast<double>(touched)
                    : 0.0;
    tracer.counter(TraceClock::Wall, now, "subtree-reuse-pct", track,
                   reuse_pct);
    if (fa.indicesCached) {
        tracer.counter(TraceClock::Wall, now, "knn-cache-hit", track,
                       fa.knnIncremental ? 1.0 : 0.0);
    }
    TraceIds ids;
    ids.frame = static_cast<std::int64_t>(frame_no);
    ids.shard = shard;
    tracer.instant(TraceClock::Wall, now,
                   fa.incremental ? "octree:incremental"
                                  : "octree:scratch",
                   "temporal", track, ids);
#else
    (void)frame_no;
    (void)shard;
    (void)fa;
#endif
}

/** Fold one frame's outcome into the cumulative counters. */
void
countFrame(TemporalPreprocessState::Stats &st, const FrameAttribution &fa)
{
    ++st.frames;
    if (fa.incremental) {
        ++st.octreeHits;
        st.retainedPoints += fa.retained;
        st.insertedPoints += fa.inserted;
        st.evictedPoints += fa.evicted;
        st.nodesReused += fa.nodesReused;
        st.nodesErected += fa.nodesErected;
    } else {
        ++st.octreeMisses;
    }
    if (fa.indicesCached) {
        ++(fa.knnIncremental ? st.knnIncremental : st.knnScratch);
        ++(fa.occIncremental ? st.occIncremental : st.occScratch);
    }
}

/** @return the level the occupancy list of @p tree is kept at. */
int
occupancyLevel(const Octree &tree)
{
    return VoxelGrid::autoLevel(tree.reorderedCloud().size(), tree.depth());
}

/** @return whether @p bundle's KNN buckets were patched from
 * @p prev's through @p delta (false: they still need a rebuild). */
bool
patchKnn(PreprocessBundle &bundle, const PreprocessBundle &prev,
         const PointDelta &delta)
{
    HGPCN_TRACE_WALL_SPAN(span, "carry:knn", "carry",
                          WorkerPool::traceTrack());
    return prev.rawKnnBuilt &&
           bundle.rawKnn.rebuildFrom(
               prev.rawKnn, bundle.tree.reorderedCloud().positions(),
               delta);
}

/** @return whether @p bundle's occupancy list was patched at
 * @p level from @p prev's through @p delta. Reads only the merged
 * codes, so it may run before the tree is erected. */
bool
patchOcc(PreprocessBundle &bundle, const PreprocessBundle &prev,
         const PointDelta &delta, int level)
{
    HGPCN_TRACE_WALL_SPAN(span, "carry:occ", "carry",
                          WorkerPool::traceTrack());
    return prev.rawOccLevel == level &&
           patchOccupiedCells(bundle.tree, level, prev.tree, prev.rawOcc,
                              delta, bundle.rawOcc, bundle.occScratch);
}

/** The occupancy storage's capacities before a frame's indices, to
 * tell re-growth of warmed storage, which breaks the zero-alloc
 * steady state like the octree's own. */
struct OccCapacity
{
    explicit OccCapacity(const PreprocessBundle &bundle)
        : out(bundle.rawOcc.capacity()),
          scratch(bundle.occScratch.capacity())
    {
    }

    void
    noteGrowth(const PreprocessBundle &bundle) const
    {
        if ((out > 0 && bundle.rawOcc.capacity() > out) ||
            (scratch > 0 && bundle.occScratch.capacity() > scratch))
            FrameWorkspace::noteGrowth();
    }

    std::size_t out;
    std::size_t scratch;
};

/**
 * Finish @p bundle's indices over its erected tree: build from
 * scratch whichever of the KNN buckets and the occupancy list (at
 * @p level) was not patched, and record the outcome in @p fa.
 */
void
finishIndices(PreprocessBundle &bundle, bool knn_patched, bool occ_patched,
              int level, const SpatialHashKnn::Config &knn,
              const OccCapacity &occ_cap, FrameAttribution &fa)
{
    if (!knn_patched)
        bundle.rawKnn.rebuild(bundle.tree.reorderedCloud().positions(), knn);
    bundle.rawKnnBuilt = true;
    if (!occ_patched)
        buildOccupiedCells(bundle.tree, level, bundle.rawOcc,
                           bundle.occScratch);
    occ_cap.noteGrowth(bundle);
    bundle.rawOccLevel = level;

    fa.indicesCached = true;
    fa.knnIncremental = knn_patched;
    fa.occIncremental = occ_patched;
}

/**
 * Build @p bundle's KNN buckets and occupancy list over its tree:
 * from @p prev through @p delta where they allow, from scratch
 * otherwise (both null on a scratch build). Records the outcome in
 * @p fa.
 */
void
buildIndices(PreprocessBundle &bundle, const PreprocessBundle *prev,
             const PointDelta *delta, const SpatialHashKnn::Config &knn,
             FrameAttribution &fa)
{
    const OccCapacity occ_cap(bundle);
    const bool knn_patched =
        prev != nullptr && patchKnn(bundle, *prev, *delta);
    const int level = occupancyLevel(bundle.tree);
    const bool occ_patched =
        prev != nullptr && patchOcc(bundle, *prev, *delta, level);
    finishIndices(bundle, knn_patched, occ_patched, level, knn, occ_cap,
                  fa);
}

/**
 * The aligned path's second half on @p workers, after a successful
 * builder.merge() into @p bundle: this thread erects the tree while
 * two helpers patch the KNN buckets and the occupancy list. Each
 * reads only the merged codes and positions, @p prev and the delta,
 * and writes its own outputs, which this thread sized beforehand,
 * so the bundle equals the serial path's. The patch runs at
 * @p prev's level; when the erected depth moves the level, the
 * list is built from scratch after all, as the serial path would.
 */
void
erectAndPatchConcurrently(WorkerPool &workers,
                          IncrementalOctreeBuilder &builder,
                          const PointCloud &raw, PreprocessBundle &bundle,
                          const PreprocessBundle &prev,
                          const SpatialHashKnn::Config &knn,
                          FrameAttribution &fa)
{
    const PointDelta &delta = builder.delta();
    const OccCapacity occ_cap(bundle);
    bundle.rawKnn.reserveFrom(prev.rawKnn, raw.size(), delta);
    const std::size_t dirty =
        delta.insertedNew.size() + delta.evictedOld.size();
    bundle.occScratch.reserve(dirty);
    bundle.rawOcc.reserve(prev.rawOcc.size() + dirty);

    bool knn_patched = false;
    bool occ_patched = false;
    const auto patch = [&](std::size_t task, std::size_t) {
        if (task == 0)
            knn_patched = patchKnn(bundle, prev, delta);
        else
            occ_patched = patchOcc(bundle, prev, delta, prev.rawOccLevel);
    };
    WorkerPool::Job job(2, 2, patch);
    workers.post(job);
    builder.erect(raw, bundle.tree);
    workers.join(job);

    const int level = occupancyLevel(bundle.tree);
    finishIndices(bundle, knn_patched, occ_patched && level == prev.rawOccLevel,
                  level, knn, occ_cap, fa);
}

/** Raise @p high element-wise to @p caps. @return whether it rose. */
bool
raiseTo(std::vector<std::size_t> &high, const std::vector<std::size_t> &caps)
{
    bool rose = caps.size() > high.size();
    high.resize(std::max(high.size(), caps.size()), 0);
    for (std::size_t i = 0; i < caps.size(); ++i) {
        if (caps[i] > high[i]) {
            high[i] = caps[i];
            rose = true;
        }
    }
    return rose;
}

} // namespace

TemporalPreprocessState::TemporalPreprocessState(const Config &config)
    : cfg(config), pool(std::make_shared<BundlePool>())
{
}

void
TemporalPreprocessState::BundlePool::absorb(const PreprocessBundle &built)
{
    const std::size_t occ_cap =
        std::max(built.rawOcc.capacity(), built.occScratch.capacity());
    bool rose = raiseTo(treeHighWater, built.tree.capacities());
    rose = raiseTo(knnHighWater, built.rawKnn.capacities()) || rose;
    rose = rose || occ_cap > occHighWater;
    occHighWater = std::max(occHighWater, occ_cap);
    if (rose)
        for (PreprocessBundle *idle : free_list)
            fill(*idle);
}

void
TemporalPreprocessState::BundlePool::fill(PreprocessBundle &bundle) const
{
    bool grew = bundle.tree.reserveCapacities(treeHighWater);
    grew = bundle.rawKnn.reserveCapacities(knnHighWater) || grew;
    for (std::vector<OccupiedCell> *occ :
         {&bundle.rawOcc, &bundle.occScratch}) {
        if (occ->capacity() < occHighWater) {
            occ->reserve(occHighWater);
            grew = true;
        }
    }
    if (grew)
        FrameWorkspace::noteGrowth();
}

std::shared_ptr<PreprocessBundle>
TemporalPreprocessState::leaseBundle(
    const std::shared_ptr<BundlePool> &pool)
{
    PreprocessBundle *bundle = nullptr;
    {
        std::lock_guard<std::mutex> lock(pool->mu);
        if (pool->free_list.empty()) {
            pool->owned.push_back(
                std::make_unique<PreprocessBundle>());
            FrameWorkspace::noteGrowth();
            bundle = pool->owned.back().get();
            pool->fill(*bundle);
        } else {
            // Any idle bundle will do: all are grown to the pool's
            // high water, so whichever frame this one serves, a
            // repeat of frames already seen regrows nothing. Take
            // the most recently returned (warmest in cache).
            bundle = pool->free_list.back();
            pool->free_list.pop_back();
        }
    }
    // The deleter holds the pool alive, so bundles may outlive the
    // state that leased them (results escaping a stream run). The
    // high water may have risen while this bundle was out.
    return std::shared_ptr<PreprocessBundle>(
        bundle, [pool](PreprocessBundle *b) {
            std::lock_guard<std::mutex> lock(pool->mu);
            pool->fill(*b);
            pool->free_list.push_back(b);
        });
}

std::shared_ptr<PreprocessBundle>
TemporalPreprocessState::processFrame(const PointCloud &raw)
{
    HGPCN_ASSERT(!raw.empty(), "cannot preprocess an empty frame");
    // The frame's one scan of its bounds, outside the lock: it decides
    // the path and roots whichever build runs.
    const Aabb cube = raw.bounds().cubified();

    std::unique_lock<std::mutex> lock(mu);
    const std::uint64_t seq = ++admitted;
    std::shared_ptr<PreprocessBundle> bundle = leaseBundle(pool);
    HGPCN_ASSERT(bundle.get() != prev.get(),
                 "pool leased the carried frame's bundle");
    bundle->rawKnnBuilt = false;
    bundle->rawOccLevel = -1;

    FrameAttribution fa;
    if (cfg.temporalCache && prev != nullptr &&
        IncrementalOctreeBuilder::aligns(cube, &prev->tree, cfg.octree)) {
        // The incremental path reads the carry and the builder's
        // scratch, so it runs under the lock (and may still fall back
        // to a scratch build when the diff cannot be proven). With a
        // pool installed, the index patches overlap the erection.
        WorkerPool *workers = WorkerPool::installed();
        fa.incremental = builder.merge(raw, cube, &prev->tree, cfg.octree,
                                       bundle->tree);
        if (fa.incremental && cfg.cacheIndices && workers != nullptr &&
            workers->helpers() > 0) {
            erectAndPatchConcurrently(*workers, builder, raw, *bundle,
                                      *prev, cfg.knn, fa);
        } else {
            if (fa.incremental)
                builder.erect(raw, bundle->tree);
            if (cfg.cacheIndices) {
                buildIndices(*bundle, fa.incremental ? prev.get() : nullptr,
                             fa.incremental ? &builder.delta() : nullptr,
                             cfg.knn, fa);
            }
        }
        if (fa.incremental) {
            const PointDelta &delta = builder.delta();
            fa.retained = delta.retained();
            fa.inserted = delta.insertedNew.size();
            fa.evicted = delta.evictedOld.size();
            fa.nodesReused = builder.nodesReused();
            fa.nodesErected = builder.nodesErected();
        }
    } else {
        // A certain miss reads nothing shared: build from scratch
        // without the lock, alongside other frames' misses.
        lock.unlock();
        bundle->tree.rebuild(raw, cfg.octree, cube);
        if (cfg.cacheIndices)
            buildIndices(*bundle, nullptr, nullptr, cfg.knn, fa);
        lock.lock();
    }

    countFrame(st, fa);
    // Raise the pool's high water now, not when the bundle returns:
    // a run's last frame stays carried into the next run, and the
    // idle bundles must already fit it by then.
    {
        std::lock_guard<std::mutex> pool_lock(pool->mu);
        pool->absorb(*bundle);
    }
    if (metrics != nullptr)
        recordMetrics(*metrics, fa);
    recordTrace(st.frames, obsShard, fa);

    // A miss finishing after a later-admitted frame published, or
    // after reset(), must not roll the carry back.
    if (seq > published) {
        published = seq;
        prev = bundle;
    }
    return bundle;
}

void
TemporalPreprocessState::setObservability(MetricsRegistry *reg,
                                          std::int64_t shard)
{
    std::lock_guard<std::mutex> lock(mu);
    metrics = reg;
    obsShard = shard;
}

void
TemporalPreprocessState::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    prev.reset();
    published = admitted; // frames still building stay uncarried
}

TemporalPreprocessState::Stats
TemporalPreprocessState::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return st;
}

void
TemporalPreprocessState::reserveBundles(std::size_t n)
{
    std::lock_guard<std::mutex> lock(pool->mu);
    while (pool->owned.size() < n) {
        pool->owned.push_back(std::make_unique<PreprocessBundle>());
        FrameWorkspace::noteGrowth();
        pool->fill(*pool->owned.back());
        pool->free_list.push_back(pool->owned.back().get());
    }
}

std::size_t
TemporalPreprocessState::pooledBundles() const
{
    std::lock_guard<std::mutex> lock(pool->mu);
    return pool->owned.size();
}

} // namespace hgpcn
