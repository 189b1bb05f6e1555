/**
 * @file
 * Bounded multi-producer/multi-consumer queue with back-pressure.
 *
 * The inter-stage channel of the streaming runtime (docs/RUNTIME.md):
 * a fixed-capacity FIFO whose full state blocks the producer. It
 * never drops: overload (OverloadPolicy) is decided on the virtual
 * timeline (runtime/virtual_timeline.h), not on these wall-clock
 * queues. close() releases every blocked producer and consumer so a
 * pipeline can shut down with items in flight.
 */

#ifndef HGPCN_COMMON_BOUNDED_QUEUE_H
#define HGPCN_COMMON_BOUNDED_QUEUE_H

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"

namespace hgpcn
{

/** Result of one push() call. */
enum class PushOutcome
{
    Pushed, //!< element admitted
    Closed, //!< queue closed, element refused
};

/**
 * A mutex-and-condvar MPMC FIFO with a hard capacity.
 *
 * All operations are thread-safe. Elements only need to be movable,
 * so move-only payloads (e.g. std::unique_ptr) work.
 */
template <typename T>
class BoundedQueue
{
  public:
    /**
     * Occupancy and traffic counters (monotonic, except size).
     *
     * Invariants (see test_common):
     *  - pushed == popped + size(): every admitted element is
     *    either consumed or still queued;
     *  - blockedPushes <= pushed: only pushes that were eventually
     *    admitted count as blocked — a producer woken by close()
     *    counts under closedPushes instead, so shutdown is not
     *    misread as back-pressure;
     *  - closedPushes == refused push() calls.
     */
    struct Counters
    {
        std::uint64_t pushed = 0;       //!< elements admitted
        std::uint64_t popped = 0;       //!< elements consumed
        std::uint64_t blockedPushes = 0;//!< admitted pushes that waited
        std::uint64_t closedPushes = 0; //!< pushes refused by close()
        std::size_t peakSize = 0;       //!< max occupancy observed
    };

    /** @param capacity Maximum occupancy; must be >= 1. */
    explicit BoundedQueue(std::size_t capacity) : cap(capacity)
    {
        HGPCN_ASSERT(capacity >= 1, "queue capacity must be >= 1");
    }

    BoundedQueue(const BoundedQueue &) = delete;
    BoundedQueue &operator=(const BoundedQueue &) = delete;

    /**
     * Attach a tracer that samples this queue's depth (a wall-clock
     * Counter track named "queue:<name>") after every push and pop.
     * Call before producers/consumers start; pass nullptr to detach.
     * Costs one enabled() check per operation when tracing is off.
     */
    void
    instrument(Tracer *tracer, std::string name)
    {
        std::lock_guard<std::mutex> lock(mu);
        trace = tracer;
        trace_name = std::move(name);
    }

    /** Offer @p value, waiting for space (or for close()). */
    PushOutcome
    push(T value)
    {
        std::unique_lock<std::mutex> lock(mu);
        if (closed) {
            ++stats.closedPushes;
            return PushOutcome::Closed;
        }

        if (items.size() >= cap) {
            not_full.wait(lock,
                          [this] { return closed || items.size() < cap; });
            // The wake reason decides the counter: a close()
            // destroys the value without enqueueing it, which is
            // shutdown, not back-pressure.
            if (closed) {
                ++stats.closedPushes;
                return PushOutcome::Closed;
            }
            ++stats.blockedPushes;
        }
        items.push_back(std::move(value));
        ++stats.pushed;
        stats.peakSize = std::max(stats.peakSize, items.size());
        const std::size_t depth = items.size();
        lock.unlock();
        not_empty.notify_one();
        sampleDepth(depth);
        return PushOutcome::Pushed;
    }

    /**
     * Take the front element, waiting for one to arrive.
     *
     * @return the element, or std::nullopt once the queue is closed
     * and drained.
     */
    std::optional<T>
    pop()
    {
        std::unique_lock<std::mutex> lock(mu);
        not_empty.wait(lock,
                       [this] { return closed || !items.empty(); });
        if (items.empty())
            return std::nullopt; // closed and drained
        T value = std::move(items.front());
        items.pop_front();
        ++stats.popped;
        const std::size_t depth = items.size();
        lock.unlock();
        not_full.notify_one();
        sampleDepth(depth);
        return value;
    }

    /**
     * Close the queue: subsequent pushes are refused, blocked
     * producers and consumers wake up, remaining elements stay
     * poppable until drained.
     */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            closed = true;
        }
        not_empty.notify_all();
        not_full.notify_all();
    }

    /** @return true once close() has been called. */
    bool
    isClosed() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return closed;
    }

    /** @return current occupancy. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return items.size();
    }

    /** @return configured capacity. */
    std::size_t capacity() const { return cap; }

    /** @return a snapshot of the traffic counters. */
    Counters
    counters() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return stats;
    }

  private:
    /**
     * Record a depth observed while mu was held. Called *after*
     * unlocking so the tracer's string building and buffer lock
     * never extend the queue's critical section (the traced arm of
     * the overhead gate was paying queue contention, not recording
     * cost). Reading trace/trace_name unlocked is safe under the
     * instrument() contract: attach/detach only happens while
     * producers and consumers are quiescent.
     */
    void
    sampleDepth(std::size_t depth)
    {
#ifndef HGPCN_TRACING_DISABLED
        if (trace && trace->enabled()) {
            trace->counter(TraceClock::Wall, trace->wallNowSec(),
                           "depth", "queue:" + trace_name,
                           static_cast<double>(depth));
        }
#else
        (void)depth;
#endif
    }

    const std::size_t cap;

    mutable std::mutex mu;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::deque<T> items;
    Counters stats;
    bool closed = false;
    Tracer *trace = nullptr; //!< optional depth sampling (see instrument())
    std::string trace_name;
};

} // namespace hgpcn

#endif // HGPCN_COMMON_BOUNDED_QUEUE_H
