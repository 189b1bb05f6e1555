#include "common/parallel_for.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/trace.h"

namespace hgpcn
{
namespace
{

/** The calling thread's installed pool and trace track. Plain
 * pointers: trivially destructible, so no thread-exit hook is
 * registered for them. */
thread_local WorkerPool *tl_pool = nullptr;
thread_local const std::string *tl_track = nullptr;

/** Numbers pools, so that helpers of two pools never share a track. */
std::atomic<std::uint64_t> pools_created{0};

} // namespace

void
WorkerPool::Job::drain(std::size_t worker)
{
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
         c < chunks; c = next.fetch_add(1, std::memory_order_relaxed))
        invoke(fn, c, worker);
}

WorkerPool::WorkerPool(int helpers)
{
    HGPCN_ASSERT(helpers >= 0, "helpers=", helpers);
    const std::uint64_t id = pools_created.fetch_add(1) + 1;
    const std::size_t n = static_cast<std::size_t>(helpers);
    tracks.reserve(n);
    for (std::size_t h = 1; h <= n; ++h) {
        tracks.push_back(std::string("wall/pool")
                             .append(std::to_string(id))
                             .append("#")
                             .append(std::to_string(h)));
    }
    threads.reserve(n);
    for (std::size_t h = 0; h < n; ++h)
        threads.emplace_back([this, h] { helperLoop(h); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        HGPCN_ASSERT(head == nullptr, "pool destroyed with a job queued");
        stopping = true;
    }
    wake.notify_all();
    for (std::thread &t : threads)
        t.join();
}

void
WorkerPool::unlink(Job &job)
{
    Job *prev = nullptr;
    for (Job *j = head; j != &job; j = j->link)
        prev = j;
    (prev != nullptr ? prev->link : head) = job.link;
    if (tail == &job)
        tail = prev;
    job.link = nullptr;
    job.queued = false;
}

void
WorkerPool::helperLoop(std::size_t helper)
{
    tl_track = &tracks[helper];
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
        wake.wait(lock, [this] { return stopping || head != nullptr; });
        if (head == nullptr)
            return; // stopping, nothing queued
        Job &job = *head;
        const std::size_t worker = ++job.attached;
        ++job.running;
        if (job.attached >= job.maxHelpers)
            unlink(job);
        lock.unlock();
        job.drain(worker);
        lock.lock();
        // Every chunk is claimed now: no later helper is needed.
        if (job.queued)
            unlink(job);
        if (--job.running == 0)
            idle.notify_all();
    }
}

void
WorkerPool::post(Job &job)
{
    const std::size_t wanted =
        std::min({job.maxHelpers, job.chunks, threads.size()});
    if (wanted == 0)
        return; // join() runs every chunk
    {
        std::lock_guard<std::mutex> lock(mu);
        (tail != nullptr ? tail->link : head) = &job;
        tail = &job;
        job.queued = true;
    }
    if (wanted >= threads.size()) {
        wake.notify_all();
    } else {
        for (std::size_t i = 0; i < wanted; ++i)
            wake.notify_one();
    }
}

void
WorkerPool::join(Job &job)
{
    job.drain(0);
    std::unique_lock<std::mutex> lock(mu);
    if (job.queued)
        unlink(job);
    idle.wait(lock, [&job] { return job.running == 0; });
}

void
WorkerPool::run(Job &job)
{
    HGPCN_TRACE_WALL_SPAN(span, "pool:dispatch", "pool", traceTrack());
    post(job);
    join(job);
}

WorkerPool *
WorkerPool::installed()
{
    return tl_pool;
}

const std::string &
WorkerPool::traceTrack()
{
    static const std::string fallback = "wall/pool";
    return tl_track != nullptr ? *tl_track : fallback;
}

WorkerPool::Install::Install(WorkerPool *pool, const std::string *track)
    : savedPool(tl_pool), savedTrack(tl_track)
{
    tl_pool = pool;
    if (track != nullptr)
        tl_track = track;
}

WorkerPool::Install::~Install()
{
    tl_pool = savedPool;
    tl_track = savedTrack;
}

} // namespace hgpcn
