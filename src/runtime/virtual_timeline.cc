#include "runtime/virtual_timeline.h"

#include <algorithm>
#include <deque>
#include <queue>

#include "common/logging.h"

namespace hgpcn
{
namespace
{

/** Time-weighted depth bookkeeping for one queue. */
struct QueueMeter
{
    double lastSec = 0.0;
    double weighted = 0.0;
    std::size_t peak = 0;

    /** Account the interval since the last change at depth @p d. */
    void
    advance(double now, std::size_t d)
    {
        weighted += static_cast<double>(d) * (now - lastSec);
        lastSec = now;
    }
};

struct Event
{
    double sec;
    std::uint64_t seq; //!< insertion order, breaks time ties
    /** Timeout: the oldest queued frame's batch-fill wait expired —
     * a pure wake-up; the dispatch gate re-checks state. May fire
     * spuriously after the frame already dispatched (harmless).
     * BatchComplete: `frame` holds a batch-registry index. */
    enum Kind { Arrival, Complete, Timeout, BatchComplete } kind;
    std::size_t frame;
    std::size_t stage; //!< Complete/Timeout/BatchComplete only
};

struct EventLater
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        if (a.sec != b.sec)
            return a.sec > b.sec;
        return a.seq > b.seq;
    }
};

} // namespace

TimelineResult
simulateTimeline(const TimelineConfig &cfg,
                 const std::vector<double> &arrivals,
                 const std::vector<std::vector<double>> &costs,
                 const TimelineBatchCost &batch_cost)
{
    const std::size_t n_stages = cfg.stages.size();
    const std::size_t n = arrivals.size();
    HGPCN_ASSERT(n_stages >= 1, "timeline needs at least one stage");
    HGPCN_ASSERT(cfg.batch.maxBatch >= 1, "maxBatch must be >= 1");
    HGPCN_ASSERT(cfg.batch.timeoutSec >= 0.0,
                 "batch timeout must be >= 0");
    HGPCN_ASSERT(cfg.queueCapacity >= 1, "queue capacity must be >= 1");
    HGPCN_ASSERT(costs.size() == n, "one cost row per frame");
    for (std::size_t i = 1; i < n; ++i) {
        HGPCN_ASSERT(arrivals[i] >= arrivals[i - 1],
                     "arrivals must be non-decreasing");
    }

    TimelineResult out;
    out.frames.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        HGPCN_ASSERT(costs[i].size() == n_stages,
                     "one cost per stage per frame");
        out.frames[i].arrivalSec = arrivals[i];
        out.frames[i].startSec.assign(n_stages, 0.0);
        out.frames[i].finishSec.assign(n_stages, 0.0);
        out.frames[i].enqueueSec.assign(n_stages, 0.0);
    }

    // Device units: configured, defaulting to 1 per named resource.
    std::map<std::string, std::size_t> units = cfg.resourceUnits;
    for (const TimelineStageSpec &st : cfg.stages) {
        if (units.find(st.resource) == units.end())
            units[st.resource] = 1;
        HGPCN_ASSERT(units[st.resource] >= 1,
                     "resource '", st.resource, "' needs >= 1 unit");
    }
    std::map<std::string, std::size_t> free_units = units;

    std::vector<std::deque<std::size_t>> queue(n_stages);
    std::vector<QueueMeter> meter(n_stages);
    // Stage-s units held by a finished frame waiting for space in
    // queue s+1 (back-pressure).
    std::vector<std::deque<std::size_t>> held(n_stages);
    std::vector<double> busy(n_stages, 0.0);

    // Micro-batching state of the last stage.
    const std::size_t last = n_stages - 1;
    const bool batching = cfg.batch.maxBatch > 1;
    const double batch_timeout = cfg.batch.timeoutSec;
    std::vector<double> ready_at(batching ? n : 0, 0.0);
    std::vector<char> timeout_scheduled(batching ? n : 0, 0);
    // First time a frame was seen waiting on the dispatch gate with
    // a unit free (-1 = never). Pure attribution bookkeeping: turns
    // into TimelineFrame::batchWaitSec at dispatch, never read by
    // the scheduling decisions themselves.
    std::vector<double> form_start(batching ? n : 0, -1.0);

    std::priority_queue<Event, std::vector<Event>, EventLater> events;
    std::uint64_t seq = 0;

    std::size_t next_arrival = 0;
    bool pending = false;      //!< a frame is waiting at the source
    std::size_t pending_frame = 0;
    std::size_t in_flight = 0;
    double last_done = n > 0 ? arrivals[0] : 0.0;

    const auto scheduleArrival = [&](double now) {
        if (next_arrival < n) {
            events.push({std::max(arrivals[next_arrival], now), seq++,
                         Event::Arrival, next_arrival, 0});
            ++next_arrival;
        }
    };

    const auto enqueue = [&](std::size_t s, std::size_t f, double now) {
        meter[s].advance(now, queue[s].size());
        queue[s].push_back(f);
        meter[s].peak = std::max(meter[s].peak, queue[s].size());
        out.frames[f].enqueueSec[s] = now;
        if (batching && s == last)
            ready_at[f] = now; // batch-fill wait starts here
    };

    const auto dequeueFront = [&](std::size_t s, double now) {
        meter[s].advance(now, queue[s].size());
        const std::size_t f = queue[s].front();
        queue[s].pop_front();
        return f;
    };

    const auto dropFrame = [&](std::size_t f, double now) {
        out.frames[f].dropped = true;
        out.frames[f].droppedAtSec = now;
        ++out.dropped;
    };

    // Run admissions, blocked hand-offs and dispatches to fixpoint.
    const auto settle = [&](double now) {
        bool changed = true;
        while (changed) {
            changed = false;

            // 1. Blocked hand-offs, downstream first: freed space in
            // queue s+1 releases the oldest held unit of stage s.
            for (std::size_t s = n_stages - 1; s-- > 0;) {
                while (!held[s].empty() &&
                       queue[s + 1].size() < cfg.queueCapacity) {
                    const std::size_t f = held[s].front();
                    held[s].pop_front();
                    enqueue(s + 1, f, now);
                    ++free_units[cfg.stages[s].resource];
                    changed = true;
                }
            }

            // 2. Source admission of the pending frame, if any.
            if (pending) {
                const std::size_t f = pending_frame;
                const bool space = queue[0].size() < cfg.queueCapacity;
                const bool credit = cfg.maxInFlight == 0 ||
                                    in_flight < cfg.maxInFlight;
                if (space && credit) {
                    out.frames[f].admitSec = now;
                    enqueue(0, f, now);
                    ++in_flight;
                    pending = false;
                    scheduleArrival(now);
                    changed = true;
                } else if (cfg.policy == OverloadPolicy::DropNewest) {
                    dropFrame(f, now);
                    pending = false;
                    scheduleArrival(now);
                    changed = true;
                } else if (cfg.policy == OverloadPolicy::DropOldest) {
                    if (!queue[0].empty()) {
                        dropFrame(dequeueFront(0, now), now);
                        --in_flight;
                        out.frames[f].admitSec = now;
                        enqueue(0, f, now);
                        ++in_flight;
                    } else {
                        // Credit exhausted with nothing still queued:
                        // every admitted frame is already on a device,
                        // so the newcomer is the only evictable one.
                        dropFrame(f, now);
                    }
                    pending = false;
                    scheduleArrival(now);
                    changed = true;
                }
                // Block: stays pending until a state change frees
                // space or credit.
            }

            // 3. Dispatch, downstream first: drain work in flight
            // before starting new frames on a shared device.
            for (std::size_t s = n_stages; s-- > 0;) {
                const std::string &res = cfg.stages[s].resource;
                if (batching && s == last) {
                    // Coalesced dispatch: min(queued, maxBatch)
                    // frames FIFO on ONE unit, occupancy charged
                    // once with the shared batched cost.
                    while (!queue[s].empty() && free_units[res] > 0) {
                        const std::size_t front = queue[s].front();
                        const bool full =
                            queue[s].size() >= cfg.batch.maxBatch;
                        // `now >= ready_at + timeout` reuses the
                        // exact expression the Timeout event was
                        // scheduled with, so the wake-up always
                        // passes its own gate.
                        const bool waited_out =
                            batch_timeout <= 0.0 ||
                            now >= ready_at[front] + batch_timeout;
                        if (!full && !waited_out) {
                            if (!timeout_scheduled[front]) {
                                timeout_scheduled[front] = 1;
                                events.push(
                                    {ready_at[front] + batch_timeout,
                                     seq++, Event::Timeout, front,
                                     s});
                            }
                            // The queued frames that would join this
                            // dispatch are now waiting on FILL, not
                            // on a busy device — stamp the moment the
                            // formation wait became the only blocker.
                            const std::size_t would_join = std::min(
                                queue[s].size(), cfg.batch.maxBatch);
                            for (std::size_t i = 0; i < would_join;
                                 ++i) {
                                const std::size_t qf = queue[s][i];
                                if (form_start[qf] < 0.0)
                                    form_start[qf] = now;
                            }
                            break; // hold for fill or timeout
                        }
                        const std::size_t count = std::min(
                            queue[s].size(), cfg.batch.maxBatch);
                        std::vector<std::size_t> members;
                        members.reserve(count);
                        for (std::size_t i = 0; i < count; ++i)
                            members.push_back(dequeueFront(s, now));
                        --free_units[res];
                        // A batch of one is solo service by
                        // definition; >= 2 shares the backend's
                        // batched pass.
                        double cost;
                        if (members.size() == 1) {
                            cost = costs[members.front()][s];
                        } else if (batch_cost) {
                            cost = batch_cost(members);
                        } else {
                            cost = 0.0;
                            for (const std::size_t f : members)
                                cost += costs[f][s];
                        }
                        for (const std::size_t f : members) {
                            out.frames[f].startSec[s] = now;
                            out.frames[f].finishSec[s] = now + cost;
                            out.frames[f].batchSize = members.size();
                            out.frames[f].batchId =
                                static_cast<std::int64_t>(
                                    out.batches.size());
                            if (form_start[f] >= 0.0) {
                                out.frames[f].batchWaitSec =
                                    now - form_start[f];
                            }
                        }
                        busy[s] += cost; // ONE occupancy interval
                        events.push({now + cost, seq++,
                                     Event::BatchComplete,
                                     out.batches.size(), s});
                        TimelineBatch batch;
                        batch.startSec = now;
                        batch.finishSec = now + cost;
                        batch.members = std::move(members);
                        out.batches.push_back(std::move(batch));
                        changed = true;
                    }
                    continue;
                }
                while (!queue[s].empty() && free_units[res] > 0) {
                    const std::size_t f = dequeueFront(s, now);
                    --free_units[res];
                    const double cost = costs[f][s];
                    out.frames[f].startSec[s] = now;
                    out.frames[f].finishSec[s] = now + cost;
                    busy[s] += cost;
                    events.push({now + cost, seq++, Event::Complete,
                                 f, s});
                    changed = true;
                }
            }
        }
    };

    scheduleArrival(n > 0 ? arrivals[0] : 0.0);

    while (!events.empty()) {
        const Event ev = events.top();
        events.pop();
        const double now = ev.sec;

        if (ev.kind == Event::Arrival) {
            HGPCN_ASSERT(!pending, "source admissions are ordered");
            pending = true;
            pending_frame = ev.frame;
        } else if (ev.kind == Event::Timeout) {
            // Wake-up only: settle() below re-evaluates the batch
            // gate at `now`. Spurious after dispatch — harmless.
        } else if (ev.kind == Event::BatchComplete) {
            const std::size_t s = ev.stage;
            for (const std::size_t f : out.batches[ev.frame].members) {
                out.frames[f].doneSec = now;
                out.frames[f].latencySec =
                    now - out.frames[f].arrivalSec;
                ++out.processed;
                --in_flight;
            }
            ++free_units[cfg.stages[s].resource]; // the ONE unit
            last_done = std::max(last_done, now);
        } else {
            const std::size_t s = ev.stage;
            const std::size_t f = ev.frame;
            if (s + 1 == n_stages) {
                out.frames[f].doneSec = now;
                out.frames[f].latencySec =
                    now - out.frames[f].arrivalSec;
                ++out.processed;
                --in_flight;
                ++free_units[cfg.stages[s].resource];
                last_done = std::max(last_done, now);
            } else if (queue[s + 1].size() < cfg.queueCapacity) {
                enqueue(s + 1, f, now);
                ++free_units[cfg.stages[s].resource];
            } else {
                held[s].push_back(f); // unit stays occupied
            }
        }
        settle(now);
    }

    HGPCN_ASSERT(!pending && next_arrival == n && in_flight == 0,
                 "timeline drained with work outstanding");

    const double start = n > 0 ? arrivals[0] : 0.0;
    out.makespanSec = last_done - start;

    out.stages.resize(n_stages);
    for (std::size_t s = 0; s < n_stages; ++s) {
        TimelineStageStats &st = out.stages[s];
        st.name = cfg.stages[s].name;
        st.resource = cfg.stages[s].resource;
        st.units = units[st.resource];
        st.busySec = busy[s];
        meter[s].advance(last_done, queue[s].size());
        if (out.makespanSec > 0.0) {
            st.utilization =
                busy[s] / (static_cast<double>(st.units) *
                           out.makespanSec);
            st.meanQueueDepth = meter[s].weighted / out.makespanSec;
        }
        st.peakQueueDepth = meter[s].peak;
    }

    if (batching) {
        out.batchCount = out.batches.size();
        std::size_t total = 0;
        for (const TimelineBatch &batch : out.batches) {
            total += batch.members.size();
            out.maxBatchSize =
                std::max(out.maxBatchSize, batch.members.size());
            if (batch.members.size() >= 2)
                out.batchedFrames += batch.members.size();
            else
                ++out.soloFrames;
        }
        HGPCN_ASSERT(total == out.processed,
                     "every processed frame is in exactly one batch");
        if (out.batchCount > 0) {
            out.meanBatchSize = static_cast<double>(total) /
                                static_cast<double>(out.batchCount);
        }
    }
    return out;
}

void
BatchStats::mergeBatches(const BatchStats &other)
{
    batchCount += other.batchCount;
    batchedFrames += other.batchedFrames;
    soloFrames += other.soloFrames;
    maxBatchSize = std::max(maxBatchSize, other.maxBatchSize);
    meanBatchSize =
        batchCount > 0 ? static_cast<double>(batchedFrames + soloFrames) /
                             static_cast<double>(batchCount)
                       : 0.0;
}

} // namespace hgpcn
