/**
 * @file
 * Cross-frame preprocessing cache (temporal coherence).
 *
 * Consecutive frames of a drive share most of their points, so the
 * per-frame preprocessing indices — the Morton octree, the
 * spatial-hash KNN buckets over the reordered cloud and the
 * VoxelGrid occupancy list — are mostly identical from frame to
 * frame. TemporalPreprocessState carries the previous frame's
 * indices and rebuilds the next frame's incrementally:
 *
 *  - the octree via IncrementalOctreeBuilder (code-array diff +
 *    dirty-subtree re-erection, octree/incremental_octree.h);
 *  - the KNN buckets via SpatialHashKnn::rebuildFrom (dirty cells
 *    re-bucketed, clean cells remapped);
 *  - the occupancy list via patchOccupiedCells (clean entries
 *    remapped, dirty cells re-read from the new tree).
 *
 * All three are bit-identical to their from-scratch builds — the
 * scratch path stays in the tree as the oracle and every cache
 * falls back to it when its preconditions fail — so enabling the
 * cache changes host wall-clock only; sampled outputs and modeled
 * paper numbers are unchanged by construction.
 *
 * Storage is pooled: frames lease a PreprocessBundle (octree +
 * indices) and hold it until their indices are no longer needed
 * (the stream runtime drops them once the frame is sampled, and
 * reserves as many bundles as frames can be between those points),
 * so the pool is bounded by the frames in flight. Each built bundle
 * raises the pool's high-water capacities and every idle bundle is
 * grown to them, so once a warm-up pass has seen the largest frame
 * no bundle regrows, whichever frame it serves — keeping the steady
 * state free of arena-backing allocation (growth counted via
 * FrameWorkspace::noteGrowth, pinned by tests/test_runtime.cc).
 * Thread safety: processFrame() may be called from several threads.
 * Each frame computes its root bounds outside the lock, then takes an
 * admission number under it and learns its path. A frame that aligns
 * with the carry (bit-equal root bounds, same depth and leaf
 * capacity) updates incrementally under the lock, serialized with the
 * other aligned frames. Any other frame is a certain miss: it builds
 * its octree, KNN buckets and occupancy list from scratch outside the
 * lock, alongside other misses, and re-locks only to count its
 * stats, raise the pool's high water and publish itself as the carry
 * — unless a later-admitted frame has published already, or reset()
 * came after its admission. Frames arriving out of order only lower
 * the hit rate, never change outputs.
 *
 * An aligned frame whose thread has a WorkerPool installed (a
 * stream's build stage, common/parallel_for.h) splits the update
 * after the merge: the calling thread erects the tree while two
 * helpers patch the KNN buckets and the occupancy list, each
 * reading only the merged codes and positions, the delta and the
 * carry, and writing its own outputs, which the calling thread
 * sized first. The occupancy level depends on the erected depth, so
 * the patch runs at the carry's level and is replaced by a scratch
 * list when the two differ, as the serial path decides. Bundles are
 * identical either way; misses stay serial.
 */

#ifndef HGPCN_CORE_TEMPORAL_PREPROCESS_H
#define HGPCN_CORE_TEMPORAL_PREPROCESS_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "knn/spatial_hash_knn.h"
#include "octree/incremental_octree.h"
#include "octree/octree.h"
#include "octree/voxel_grid.h"

namespace hgpcn
{

class MetricsRegistry;

/**
 * One frame's preprocessing indices, leased from the state's pool.
 * The octree is always valid after processFrame(); the raw-cloud
 * KNN index and occupancy list only when cacheIndices is on.
 */
struct PreprocessBundle
{
    Octree tree;
    SpatialHashKnn rawKnn;     //!< over tree.reorderedCloud()
    bool rawKnnBuilt = false;
    std::vector<OccupiedCell> rawOcc; //!< occupancy at rawOccLevel
    int rawOccLevel = -1;      //!< -1 = not built
    /** rawOcc's build scratch: the cell sort's buffer, or the dirty
     * cells of a patch. */
    std::vector<OccupiedCell> occScratch;
};

/** Per-stream carried preprocessing state; see file comment. */
class TemporalPreprocessState
{
  public:
    /** Cache policy. */
    struct Config
    {
        /** Octree build parameters (must match the engine's). */
        Octree::Config octree;
        /** Master switch: diff frames and update incrementally.
         * Off = every frame builds from scratch (still pooled). */
        bool temporalCache = true;
        /** Maintain the raw-cloud KNN buckets and occupancy list
         * across frames alongside the octree (a StreamRunner's carry
         * turns this off: no stage reads them). */
        bool cacheIndices = true;
        /** KNN index parameters for the cached buckets. */
        SpatialHashKnn::Config knn;
    };

    /** Cumulative cache telemetry (monotone counters). */
    struct Stats
    {
        std::uint64_t frames = 0;
        std::uint64_t octreeHits = 0;   //!< incremental updates
        std::uint64_t octreeMisses = 0; //!< scratch rebuilds
        std::uint64_t retainedPoints = 0;
        std::uint64_t insertedPoints = 0;
        std::uint64_t evictedPoints = 0;
        std::uint64_t nodesReused = 0;
        std::uint64_t nodesErected = 0;
        std::uint64_t knnIncremental = 0;
        std::uint64_t knnScratch = 0;
        std::uint64_t occIncremental = 0;
        std::uint64_t occScratch = 0;
    };

    explicit TemporalPreprocessState(const Config &config);

    /**
     * Build the frame's indices, reusing the previous frame's where
     * the diff allows (see the file comment for which frames run
     * concurrently). The returned bundle stays valid as long as
     * the caller holds it (its storage returns to the pool on
     * release, possibly after this state is destroyed).
     */
    std::shared_ptr<PreprocessBundle> processFrame(const PointCloud &raw);

    /** Drop the carried frame (the next frame builds from scratch;
     * frames still building when it is called are not carried). */
    void reset();

    /**
     * Attach an observability sink: every processFrame() mirrors its
     * cache telemetry into "temporal.*" counters of @p metrics and —
     * when the global Tracer is recording — emits per-frame
     * subtree-reuse % and KNN-hit counter samples on the wall clock,
     * tagged with @p shard. Pass nullptr to detach. Call while no
     * frames are in flight.
     */
    void setObservability(MetricsRegistry *metrics,
                          std::int64_t shard = -1);

    /** @return cache telemetry snapshot. */
    Stats stats() const;

    /**
     * Make sure the pool holds at least @p n bundles. A pipeline
     * that bounds the frames holding a bundle reserves that bound up
     * front, so how many bundles exist does not depend on how far
     * its build stage happened to run ahead of the holders.
     */
    void reserveBundles(std::size_t n);

    /** @return bundles the pool has created: about the frames in
     * flight when holders drop their bundles after use. */
    std::size_t pooledBundles() const;

    /** @return configured policy. */
    const Config &config() const { return cfg; }

  private:
    /** Thread-safe bundle pool; may outlive the state (leases hold
     * a shared_ptr to it). */
    struct BundlePool
    {
        std::mutex mu;
        std::vector<std::unique_ptr<PreprocessBundle>> owned;
        std::vector<PreprocessBundle *> free_list;
        /** Element-wise maximum of every built bundle's octree and
         * KNN capacities (Octree::capacities(),
         * SpatialHashKnn::capacities()) and occupancy-list /
         * occupancy-scratch capacity; every idle bundle is grown to
         * them. */
        std::vector<std::size_t> treeHighWater;
        std::vector<std::size_t> knnHighWater;
        std::size_t occHighWater = 0;

        /** Raise the high water to a just-built bundle's capacities;
         * when it rises, grow every idle bundle to it. Under mu. */
        void absorb(const PreprocessBundle &built);

        /** Grow @p bundle to the high water (noted as growth when
         * anything grew). Under mu, on an idle bundle. */
        void fill(PreprocessBundle &bundle) const;
    };

    static std::shared_ptr<PreprocessBundle>
    leaseBundle(const std::shared_ptr<BundlePool> &pool);

    Config cfg;
    std::shared_ptr<BundlePool> pool;

    mutable std::mutex mu;
    IncrementalOctreeBuilder builder;
    std::shared_ptr<PreprocessBundle> prev; //!< keeps prev frame alive
    std::uint64_t admitted = 0;  //!< frames admitted so far
    std::uint64_t published = 0; //!< admission number of prev (or of
                                 //!< the last frame before reset())
    Stats st;
    MetricsRegistry *metrics = nullptr; //!< optional telemetry mirror
    std::int64_t obsShard = -1;         //!< shard tag for trace events
};

} // namespace hgpcn

#endif // HGPCN_CORE_TEMPORAL_PREPROCESS_H
