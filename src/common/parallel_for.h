/**
 * @file
 * Intra-frame parallelism: a work-size gate, the cores a caller may
 * use, a worker pool, and two fork-join loops over it.
 *
 * Inference runs each network level as one parallel region over
 * blocks of centroids (SA) or fine points (FP); every block runs its
 * gather, MLP and pool and writes only its own output rows
 * (parallelBlocks, nn/pointnet2.cc). Group-all levels and the
 * classification head split GEMM rows instead (parallelFor). Every
 * output element is still computed by exactly one thread in the same
 * order as the serial loop, so outputs are bit-identical at any
 * thread count.
 *
 * Regions run on a WorkerPool: helper threads that park between
 * regions and claim a region's chunks from an atomic counter. The
 * thread that dispatches a region is worker 0 and runs every chunk
 * no helper has started, so a region never waits on a helper that
 * is busy elsewhere: two threads may dispatch into one pool at once
 * (a stream's build and inference stages do). A StreamRunner creates
 * one pool per run, with helpers only when some network region earns
 * more than one thread (PointNet2::maxRegionThreads), and installs it
 * for its stage workers (WorkerPool::Install); a caller with no
 * installed pool — the closed loop, tests, benches — gets a
 * region-scoped pool whose helpers are spawned for the region and
 * joined after it, at tens of microseconds each. Pool tasks run leaf
 * work only: a region started inside one gets a region-scoped pool
 * of its own.
 *
 * gatedThreads() caps a region's threads by its work: one thread per
 * kMinMacsPerThread multiply-accumulates (about a millisecond of
 * GEMM on one core), so small levels — the edge classifier's, even
 * micro-batched — run serially on the calling thread with no
 * dispatch at all.
 *
 * How many threads to offer is the caller's choice: a StreamRunner
 * offers allowedCores() (its affinity mask, read when a run starts)
 * unless configured otherwise; RunOptions defaults to 1.
 */

#ifndef HGPCN_COMMON_PARALLEL_FOR_H
#define HGPCN_COMMON_PARALLEL_FOR_H

#include <sched.h>

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace hgpcn
{

/** Work (in MACs) that justifies one more thread; see file comment. */
constexpr std::uint64_t kMinMacsPerThread = 8'000'000;

/** @return threads worth using for @p macs of work, at most
 * @p threads (>= 1). */
inline int
gatedThreads(std::uint64_t macs, int threads)
{
    if (threads <= 1)
        return 1;
    const std::uint64_t cap = macs / kMinMacsPerThread;
    if (cap <= 1)
        return 1;
    return cap < static_cast<std::uint64_t>(threads)
               ? static_cast<int>(cap)
               : threads;
}

/**
 * @return the cores the calling thread may run on (its CPU affinity
 * mask; hardware_concurrency() where the mask is unreadable), >= 1.
 * Threads a caller spawns inherit its mask, so this is the
 * parallelism a region started here can actually get.
 */
inline int
allowedCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set) > 0 ? CPU_COUNT(&set) : 1;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

/**
 * Helper threads that park between dispatches; see the file comment.
 * Helpers are spawned by the constructor, so they inherit the
 * constructing thread's CPU affinity, and joined by the destructor.
 */
class WorkerPool
{
  public:
    /**
     * One dispatch: fn(chunk, worker) for every chunk in [0, chunks),
     * on the dispatching thread (worker 0) and at most @p max_helpers
     * helpers (workers 1..max_helpers). Each chunk runs exactly once;
     * which worker runs it varies. Lives on the dispatcher's stack
     * from post() until join() returns.
     */
    class Job
    {
      public:
        template <class Fn>
        Job(std::size_t n_chunks, std::size_t max_helpers, const Fn &body)
            : invoke(&call<Fn>), fn(&body), chunks(n_chunks),
              maxHelpers(max_helpers)
        {
        }

        /** The job keeps a pointer to its body: no temporaries. */
        template <class Fn>
        Job(std::size_t, std::size_t, const Fn &&) = delete;

        Job(const Job &) = delete;
        Job &operator=(const Job &) = delete;

      private:
        friend class WorkerPool;

        template <class Fn>
        static void
        call(const void *fn, std::size_t chunk, std::size_t worker)
        {
            (*static_cast<const Fn *>(fn))(chunk, worker);
        }

        /** Run chunks as @p worker until none is left unclaimed. */
        void drain(std::size_t worker);

        void (*invoke)(const void *, std::size_t, std::size_t);
        const void *fn;
        std::size_t chunks;
        std::size_t maxHelpers;
        std::atomic<std::size_t> next{0};
        // Under the pool's mutex:
        std::size_t attached = 0; //!< helpers that joined, ever
        std::size_t running = 0;  //!< helpers still draining
        bool queued = false;
        Job *link = nullptr;
    };

    /** Start @p helpers (>= 0) parked helper threads. */
    explicit WorkerPool(int helpers);

    /** Join every helper; no job may be outstanding. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** @return helper threads (the dispatcher comes on top). */
    int helpers() const { return static_cast<int>(threads.size()); }

    /** Offer @p job to the helpers and return at once; the caller
     * may work on something else before join(). */
    void post(Job &job);

    /** Run every chunk of @p job no helper has claimed, then wait
     * for the helpers still running its chunks. */
    void join(Job &job);

    /** post() and join() under one "pool:dispatch" wall span. */
    void run(Job &job);

    /** Dispatch fn(chunk, worker) over [0, chunks) with at most
     * @p max_helpers helpers (see Job). */
    template <class Fn>
    void
    run(std::size_t chunks, std::size_t max_helpers, const Fn &fn)
    {
        Job job(chunks, max_helpers, fn);
        run(job);
    }

    /** @return the pool installed on the calling thread, or null. */
    static WorkerPool *installed();

    /**
     * @return the calling thread's wall-span track: a helper's own
     * ("wall/pool<n>#<h>"), the one its Install named, or
     * "wall/pool". Spans on one track nest, so a phase span recorded
     * here sits inside whatever span its thread has open.
     */
    static const std::string &traceTrack();

    /** Installs a pool (and optionally the thread's trace track) on
     * the calling thread for its lifetime, and restores the previous
     * ones after. */
    class Install
    {
      public:
        explicit Install(WorkerPool *pool,
                         const std::string *track = nullptr);
        ~Install();

        Install(const Install &) = delete;
        Install &operator=(const Install &) = delete;

      private:
        WorkerPool *savedPool;
        const std::string *savedTrack;
    };

  private:
    void helperLoop(std::size_t helper);

    /** Remove @p job from the queue. Under mu. */
    void unlink(Job &job);

    std::mutex mu;
    std::condition_variable wake; //!< helpers: a job was queued
    std::condition_variable idle; //!< joiners: a helper left a job
    Job *head = nullptr;          //!< jobs still wanting helpers
    Job *tail = nullptr;
    bool stopping = false;
    std::vector<std::string> tracks; //!< one per helper
    std::vector<std::thread> threads;
};

/**
 * Run fn(chunk, worker) over [0, chunks) on the installed pool with
 * up to chunks - 1 helpers, or on a region-scoped pool when none is
 * installed.
 */
template <class Fn>
void
dispatchRegion(std::size_t chunks, const Fn &fn)
{
    if (WorkerPool *pool = WorkerPool::installed()) {
        pool->run(chunks, chunks - 1, fn);
        return;
    }
    WorkerPool region(static_cast<int>(chunks - 1));
    region.run(chunks, chunks - 1, fn);
}

/**
 * Run fn(begin, end) over [0, n) split into @p threads contiguous
 * blocks. fn must be thread-safe across disjoint ranges.
 */
template <class Fn>
void
parallelFor(std::size_t n, int threads, const Fn &fn)
{
    if (threads <= 1 || n < static_cast<std::size_t>(threads) * 2) {
        if (n > 0)
            fn(std::size_t{0}, n);
        return;
    }
    const std::size_t t = static_cast<std::size_t>(threads);
    const std::size_t chunk = (n + t - 1) / t;
    dispatchRegion((n + chunk - 1) / chunk,
                   [&fn, chunk, n](std::size_t c, std::size_t) {
                       const std::size_t begin = c * chunk;
                       fn(begin, begin + chunk < n ? begin + chunk : n);
                   });
}

/**
 * Run @p blocks independent blocks on up to @p threads workers that
 * claim them dynamically from an atomic counter. Worker w (the
 * calling thread is worker 0) calls setup(w) — it returns the
 * worker's scratch context, typically a reference — before fn(ctx,
 * block) for the blocks it claims. Which worker runs a block
 * varies; fn must write only block-owned output slots, so results do
 * not depend on the schedule.
 */
template <class Setup, class Fn>
void
parallelBlocks(std::size_t blocks, int threads, const Setup &setup,
               const Fn &fn)
{
    std::size_t t = threads > 1 ? static_cast<std::size_t>(threads) : 1;
    if (t > blocks)
        t = blocks;
    std::atomic<std::size_t> next{0};
    const auto work = [&](std::size_t, std::size_t w) {
        auto &&ctx = setup(w);
        for (std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
             b < blocks;
             b = next.fetch_add(1, std::memory_order_relaxed))
            fn(ctx, b);
    };
    if (t <= 1) {
        if (blocks > 0)
            work(0, 0);
        return;
    }
    // One chunk per worker: each claims blocks until none is left.
    dispatchRegion(t, work);
}

} // namespace hgpcn

#endif // HGPCN_COMMON_PARALLEL_FOR_H
