#include "runtime/stage_pipeline.h"

#include <algorithm>
#include <map>
#include <thread>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "obs/trace.h"

namespace hgpcn
{

StagePipeline::StagePipeline(std::vector<StageSpec> stage_specs,
                             const Config &config)
    : specs(std::move(stage_specs)), cfg(config)
{
    HGPCN_ASSERT(!specs.empty(), "pipeline needs at least one stage");
    HGPCN_ASSERT(cfg.queueCapacity >= 1,
                 "queue capacity must be >= 1");
    for (std::size_t s = 0; s < specs.size(); ++s) {
        const StageSpec &spec = specs[s];
        HGPCN_ASSERT(spec.stage != nullptr, "null stage");
        HGPCN_ASSERT(spec.workers >= 1, "stage '",
                     spec.stage->name(), "' needs >= 1 worker");
        if (spec.batch != nullptr && spec.batch->maxBatch > 1) {
            HGPCN_ASSERT(s + 1 == specs.size(),
                         "stage '", spec.stage->name(),
                         "' batches but is not the last stage");
            HGPCN_ASSERT(spec.workers == 1,
                         "batching stage '", spec.stage->name(),
                         "' must have exactly one worker");
        }
    }
}

std::vector<std::unique_ptr<FrameTask>>
StagePipeline::run(std::vector<std::unique_ptr<FrameTask>> tasks,
                   const FrameTaskCallback &on_task)
{
    const std::size_t n_stages = specs.size();

    // Restart contract: a stop belongs to the run it aborted, so a
    // new run starts fresh rather than inheriting staleness from a
    // previous requestStop().
    stopped.store(false);

    // Queue i feeds stage i; the last queue feeds the collector.
    {
        std::lock_guard<std::mutex> lock(queues_mu);
        queues.clear();
        for (std::size_t i = 0; i <= n_stages; ++i) {
            queues.push_back(
                std::make_shared<TaskQueue>(cfg.queueCapacity));
            queues.back()->instrument(
                &Tracer::global(),
                i < n_stages ? specs[i].stage->name() : "collect");
        }
        // A requestStop() that raced this entry (after the reset
        // above) targets *this* run: honor it.
        if (stopped.load()) {
            for (auto &q : queues)
                q->close();
        }
    }

    // Source: admit in order; a Closed push means stop was
    // requested and the rest of the stream is abandoned.
    std::thread source([this, &tasks] {
        for (auto &task : tasks) {
            if (stopped.load())
                break;
            task->stageCostSec.resize(specs.size(), 0.0);
            if (queues.front()->push(std::move(task)) ==
                PushOutcome::Closed) {
                break;
            }
        }
        queues.front()->close();
    });

    // Worker pools: the last worker leaving a stage closes its
    // output queue so downstream pools (and the collector) drain.
    std::vector<std::unique_ptr<std::atomic<std::size_t>>> alive;
    for (const StageSpec &spec : specs) {
        alive.push_back(std::make_unique<std::atomic<std::size_t>>(
            spec.workers));
    }
    // Stage workers borrow the caller's pool, if it installed one,
    // and name their wall tracks for it. The names are built here:
    // a worker thread allocates nothing before its first frame.
    WorkerPool *const pool = WorkerPool::installed();
    std::vector<std::string> tracks;
    for (const StageSpec &spec : specs) {
        const bool batching = spec.batch != nullptr && spec.batch->maxBatch > 1;
        for (std::size_t w = 0; w < spec.workers; ++w) {
            tracks.push_back(batching ? "wall/" + spec.stage->name()
                                      : "wall/" + spec.stage->name() + "#" +
                                            std::to_string(w));
        }
    }
    std::vector<std::thread> workers;
    for (std::size_t s = 0; s < n_stages; ++s) {
        const bool batching = specs[s].batch != nullptr &&
                              specs[s].batch->maxBatch > 1;
        for (std::size_t w = 0; w < specs[s].workers; ++w) {
            const std::string &track = tracks[workers.size()];
            if (batching) {
                // Single coalescing worker (asserted in the ctor):
                // assemble fixed admission-index groups, run each
                // through processBatch, forward members in order.
                workers.emplace_back([this, s, &alive, pool, &track] {
                    WorkerPool::Install use(pool, &track);
                    TaskQueue &in = *queues[s];
                    TaskQueue &out = *queues[s + 1];
                    BatchingStage assembler(specs[s].batch->maxBatch);
                    bool out_closed = false;
                    const auto serve =
                        [&](BatchingStage::Group group) {
                            std::vector<FrameTask *> ptrs;
                            ptrs.reserve(group.size());
                            for (auto &t : group)
                                ptrs.push_back(t.get());
                            std::vector<double> costs(group.size(),
                                                      0.0);
                            {
                                TraceIds ids;
                                ids.frame = static_cast<std::int64_t>(
                                    group.front()->index);
                                HGPCN_TRACE_WALL_SPAN(
                                    span,
                                    "host:" + specs[s].stage->name() +
                                        ":batch" +
                                        std::to_string(group.size()),
                                    specs[s].stage->resource(), track,
                                    ids);
                                specs[s].stage->processBatch(ptrs,
                                                             costs);
                            }
                            for (std::size_t i = 0; i < group.size();
                                 ++i) {
                                group[i]->stageCostSec[s] = costs[i];
                            }
                            for (auto &t : group) {
                                if (out.push(std::move(t)) ==
                                    PushOutcome::Closed) {
                                    return false;
                                }
                            }
                            return true;
                        };
                    while (auto item = in.pop()) {
                        std::unique_ptr<FrameTask> task =
                            std::move(*item);
                        if (stopped.load())
                            continue; // drain-discard on shutdown
                        for (auto &group :
                             assembler.add(std::move(task))) {
                            if (!serve(std::move(group))) {
                                out_closed = true;
                                break;
                            }
                        }
                        if (out_closed)
                            break;
                    }
                    // Normal end of stream: the tail that never
                    // filled a group still runs, as partial batches.
                    // A stop discards it with the rest of the queue.
                    if (!out_closed && !stopped.load()) {
                        for (auto &group : assembler.flush()) {
                            if (!serve(std::move(group)))
                                break;
                        }
                    }
                    if (alive[s]->fetch_sub(1) == 1)
                        out.close();
                });
                continue;
            }
            workers.emplace_back([this, s, &alive, pool, &track] {
                WorkerPool::Install use(pool, &track);
                TaskQueue &in = *queues[s];
                TaskQueue &out = *queues[s + 1];
                while (auto item = in.pop()) {
                    std::unique_ptr<FrameTask> task =
                        std::move(*item);
                    if (stopped.load())
                        continue; // drain-discard on shutdown
                    {
                        TraceIds ids;
                        ids.frame = static_cast<std::int64_t>(
                            task->index);
                        HGPCN_TRACE_WALL_SPAN(
                            span,
                            "host:" + specs[s].stage->name(),
                            specs[s].stage->resource(), track, ids);
                        task->stageCostSec[s] =
                            specs[s].stage->process(*task);
                    }
                    if (out.push(std::move(task)) ==
                        PushOutcome::Closed) {
                        break;
                    }
                }
                if (alive[s]->fetch_sub(1) == 1)
                    out.close();
            });
        }
    }

    // Collector (this thread): reorder to admission order and emit.
    std::vector<std::unique_ptr<FrameTask>> done;
    std::map<std::size_t, std::unique_ptr<FrameTask>> reorder;
    std::size_t next_emit = 0;
    const auto emit = [&](std::unique_ptr<FrameTask> task) {
        if (on_task)
            on_task(*task);
        done.push_back(std::move(task));
    };
    while (auto item = queues.back()->pop()) {
        std::unique_ptr<FrameTask> task = std::move(*item);
        reorder[task->index] = std::move(task);
        while (true) {
            auto it = reorder.find(next_emit);
            if (it == reorder.end())
                break;
            emit(std::move(it->second));
            reorder.erase(it);
            ++next_emit;
        }
    }
    // A truncated run leaves index gaps; flush what completed, in
    // order (std::map iterates ascending).
    for (auto &[index, task] : reorder) {
        (void)index;
        emit(std::move(task));
    }

    source.join();
    for (std::thread &w : workers)
        w.join();
    return done;
}

void
StagePipeline::requestStop()
{
    stopped.store(true);
    std::lock_guard<std::mutex> lock(queues_mu);
    for (auto &q : queues)
        q->close();
}

} // namespace hgpcn
