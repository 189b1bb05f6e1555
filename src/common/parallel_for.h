/**
 * @file
 * Intra-frame parallelism: a work-size gate, the cores a caller may
 * use, and two fork-join loops.
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
 * Threads are spawned per region — once per level — at tens of
 * microseconds each, so a region only pays off for chunky bodies.
 * gatedThreads() caps the thread count by the work: one thread per
 * kMinMacsPerThread multiply-accumulates (about a millisecond of
 * GEMM on one core), so small levels — the edge classifier's, even
 * micro-batched — run serially on the calling thread with no spawn.
 *
 * How many threads to offer is the caller's choice: a StreamRunner
 * offers allowedCores() (its affinity mask, read when a run starts)
 * unless configured otherwise; RunOptions defaults to 1.
 */

#ifndef HGPCN_COMMON_PARALLEL_FOR_H
#define HGPCN_COMMON_PARALLEL_FOR_H

#include <sched.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
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
 * Run fn(begin, end) over [0, n) split into @p threads contiguous
 * blocks. fn must be thread-safe across disjoint ranges. The calling
 * thread executes the first block.
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
    std::vector<std::thread> pool;
    pool.reserve(t - 1);
    for (std::size_t w = 1; w < t; ++w) {
        const std::size_t begin = w * chunk;
        if (begin >= n)
            break;
        const std::size_t end = begin + chunk < n ? begin + chunk : n;
        pool.emplace_back([&fn, begin, end] { fn(begin, end); });
    }
    fn(std::size_t{0}, chunk < n ? chunk : n);
    for (std::thread &th : pool)
        th.join();
}

/**
 * Run @p blocks independent blocks on up to @p threads threads that
 * claim them dynamically from an atomic counter. Worker w (the
 * calling thread is worker 0) first calls setup(w) once — it returns
 * the worker's scratch context, typically a reference — then fn(ctx,
 * block) for every block it claims. Which worker runs a block
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
    const auto work = [&](std::size_t w) {
        auto &&ctx = setup(w);
        for (std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
             b < blocks;
             b = next.fetch_add(1, std::memory_order_relaxed))
            fn(ctx, b);
    };
    if (t <= 1) {
        if (blocks > 0)
            work(0);
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(t - 1);
    for (std::size_t w = 1; w < t; ++w)
        pool.emplace_back([&work, w] { work(w); });
    work(0);
    for (std::thread &th : pool)
        th.join();
}

} // namespace hgpcn

#endif // HGPCN_COMMON_PARALLEL_FOR_H
