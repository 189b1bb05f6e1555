/**
 * @file
 * Zero-alloc steady state: reusable per-frame scratch arenas.
 *
 * Every frame of a stream runs the same network over the same input
 * size, so the tensors and neighbor-search scratch it needs have the
 * same shapes frame after frame. A FrameWorkspace owns that memory
 * across frames: a bump arena of Tensors and position buffers (reset
 * each frame, capacity retained) plus named scratch buffers for the
 * spatial-hash KNN index. After the first frame warms a workspace
 * up, the hot path performs no arena-backing allocation — pinned by
 * the growth counter and tests/test_runtime.cc.
 *
 * Ownership: a WorkspacePool hands workspaces to pipeline workers
 * (StreamRunner owns one pool; HgPcnSystem another for the serial
 * path). Stage worker threads are recreated per run(), so pooling —
 * not thread_local storage — is what keeps the arenas warm across
 * runs. A workspace is single-threaded while leased; the pool is
 * thread-safe. A parallel inference region gives each of its
 * threads a worker sub-workspace (worker()), created by the leasing
 * thread and kept warm with the parent.
 *
 * What stays on the regular heap: outputs that escape the frame
 * (logits, execution traces, gather results, the octree) — those are
 * results, not scratch, and are small next to the pooled tensor
 * traffic (tens of MB per frame for Pointnet++(s)).
 */

#ifndef HGPCN_CORE_FRAME_WORKSPACE_H
#define HGPCN_CORE_FRAME_WORKSPACE_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "gather/veg_gatherer.h"
#include "geometry/point_cloud.h"
#include "nn/tensor.h"

namespace hgpcn
{

/** Per-frame scratch arena; see file comment for the contract. */
class FrameWorkspace
{
  public:
    FrameWorkspace() = default;
    FrameWorkspace(const FrameWorkspace &) = delete;
    FrameWorkspace &operator=(const FrameWorkspace &) = delete;

    /**
     * Reset the bump arenas for a new frame. Capacity (and therefore
     * warm-up state) is retained; Tensor/position references handed
     * out for the previous frame become invalid.
     */
    void
    beginFrame()
    {
        tensor_cursor = 0;
        pos_cursor = 0;
        idx_cursor = 0;
        veg_cursor = 0;
    }

    /**
     * @return a [rows, cols] tensor from the bump arena. Contents
     * are unspecified (stale frame data) — callers must fully write
     * it. Valid until the next beginFrame().
     */
    Tensor &
    tensor(std::size_t rows, std::size_t cols)
    {
        if (tensor_cursor == tensors.size()) {
            tensors.emplace_back();
            noteGrowth();
        }
        Tensor &t = tensors[tensor_cursor++];
        if (t.capacityFloats() < rows * cols)
            noteGrowth();
        t.resizeUninit(rows, cols);
        return t;
    }

    /**
     * @return a size-@p n position buffer from the bump arena
     * (unspecified contents, valid until the next beginFrame()).
     */
    std::vector<Vec3> &
    positions(std::size_t n)
    {
        if (pos_cursor == position_bufs.size()) {
            position_bufs.emplace_back();
            noteGrowth();
        }
        std::vector<Vec3> &v = position_bufs[pos_cursor++];
        if (v.capacity() < n)
            noteGrowth();
        v.resize(n);
        return v;
    }

    /**
     * @return a size-@p n point-index buffer from the bump arena
     * (unspecified contents, valid until the next beginFrame()).
     */
    std::vector<PointIndex> &
    indices(std::size_t n)
    {
        if (idx_cursor == index_bufs.size()) {
            index_bufs.emplace_back();
            noteGrowth();
        }
        std::vector<PointIndex> &v = index_bufs[idx_cursor++];
        if (v.capacity() < n)
            noteGrowth();
        v.resize(n);
        return v;
    }

    /**
     * @return a VEG gatherer over @p tree with @p config from the
     * bump arena, valid until the next beginFrame(). Its grid views
     * keep their storage across frames; their growth is counted.
     */
    VegKnn &
    vegKnn(const Octree &tree, const VegKnn::Config &config)
    {
        if (veg_cursor == veg_gatherers.size()) {
            veg_gatherers.emplace_back(tree, config, this);
            noteGrowth();
            return veg_gatherers[veg_cursor++];
        }
        VegKnn &knn = veg_gatherers[veg_cursor++];
        knn.rebind(tree, config);
        return knn;
    }

    /**
     * Reserve capacity for a registered scratch vector, counting
     * backing growth. Use for long-lived scratch members below (the
     * arena helpers above count themselves).
     */
    template <class Vec>
    void
    ensure(Vec &v, std::size_t n)
    {
        if (v.capacity() < n) {
            v.reserve(n);
            noteGrowth();
        }
    }

    /** Neighbor-search scratch, shared by the spatial-hash index
     * (src/knn) and the VEG gatherer (src/gather) — the two are
     * never live at once within a frame (one DsMethod per run). */
    struct KnnScratch
    {
        std::vector<std::uint32_t> cellStart; //!< CSR offsets
        std::vector<std::uint32_t> pointCell; //!< cell id per point
        std::vector<PointIndex> order;        //!< bucketed point ids
        std::vector<std::pair<float, PointIndex>> scored;
        std::vector<PointIndex> ringPoints; //!< VEG gathered rings
    };
    KnnScratch knn;

    /** Sampler scratch (src/sampling). */
    struct SamplingScratch
    {
        std::vector<float> minDist; //!< FPS cached min distances
    };
    SamplingScratch sampling;

    /** Host threads for this worker's frames (>= 1), passed to
     * RunOptions::intraOpThreads; set by the inference stage from
     * the runner config. */
    int intraOpThreads = 1;

    /**
     * Make sure worker scratch 0 .. @p n - 1 exists. Call on the
     * leasing thread before a parallel region starts; inside it,
     * worker(w) is then a plain lookup.
     */
    void
    reserveWorkers(std::size_t n)
    {
        while (workers.size() < n) {
            workers.push_back(std::make_unique<FrameWorkspace>());
            noteGrowth();
        }
    }

    /**
     * @return parallel-region worker @p w's own scratch (its bump
     * arena and neighbor-search buffers). It lives as long as this
     * workspace, so worker scratch stays warm across frames; each
     * region starts it with beginFrame(). One thread per worker
     * index at a time.
     */
    FrameWorkspace &worker(std::size_t w) { return *workers[w]; }

    /**
     * @return process-wide count of arena/scratch backing growths.
     * Flat across a steady-state window == the hot path allocated
     * nothing new (the zero-alloc regression pin).
     */
    static std::uint64_t
    backingGrowths()
    {
        return growth_count.load(std::memory_order_relaxed);
    }

    /** Record one backing allocation (grew or added a buffer). */
    static void
    noteGrowth()
    {
        growth_count.fetch_add(1, std::memory_order_relaxed);
    }

  private:
    // deques: handed-out references stay valid as the arena grows.
    std::deque<Tensor> tensors;
    std::size_t tensor_cursor = 0;
    std::deque<std::vector<Vec3>> position_bufs;
    std::size_t pos_cursor = 0;
    std::deque<std::vector<PointIndex>> index_bufs;
    std::size_t idx_cursor = 0;
    std::deque<VegKnn> veg_gatherers;
    std::size_t veg_cursor = 0;
    std::vector<std::unique_ptr<FrameWorkspace>> workers;

    static std::atomic<std::uint64_t> growth_count;
};

/**
 * A thread-safe pool of FrameWorkspaces. Workers lease one for the
 * duration of a stage execution; returning it keeps the warmed
 * arena for the next frame (or the next run — stage worker threads
 * do not outlive run(), the pool does).
 */
class WorkspacePool
{
  public:
    /** RAII lease; returns the workspace on destruction. */
    class Lease
    {
      public:
        Lease(FrameWorkspace *workspace, WorkspacePool *owner)
            : ws(workspace), pool(owner)
        {
        }
        Lease(Lease &&o) noexcept : ws(o.ws), pool(o.pool)
        {
            o.ws = nullptr;
            o.pool = nullptr;
        }
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;
        Lease &operator=(Lease &&) = delete;
        ~Lease()
        {
            if (pool != nullptr)
                pool->release(ws);
        }

        FrameWorkspace *get() const { return ws; }
        FrameWorkspace *operator->() const { return ws; }
        FrameWorkspace &operator*() const { return *ws; }

      private:
        FrameWorkspace *ws;
        WorkspacePool *pool;
    };

    /** @return a leased workspace (created cold on first use). */
    Lease
    acquire()
    {
        std::lock_guard<std::mutex> lock(mu);
        if (free_list.empty()) {
            owned.push_back(std::make_unique<FrameWorkspace>());
            FrameWorkspace::noteGrowth();
            return Lease(owned.back().get(), this);
        }
        FrameWorkspace *ws = free_list.back();
        free_list.pop_back();
        return Lease(ws, this);
    }

    /** @return workspaces ever created by this pool. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return owned.size();
    }

  private:
    void
    release(FrameWorkspace *ws)
    {
        std::lock_guard<std::mutex> lock(mu);
        free_list.push_back(ws);
    }

    mutable std::mutex mu;
    std::vector<std::unique_ptr<FrameWorkspace>> owned;
    std::vector<FrameWorkspace *> free_list;
};

} // namespace hgpcn

#endif // HGPCN_CORE_FRAME_WORKSPACE_H
