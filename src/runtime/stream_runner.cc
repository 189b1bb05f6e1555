#include "runtime/stream_runner.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "core/temporal_preprocess.h"
#include "obs/trace.h"

namespace hgpcn
{
namespace
{

/** Track prefix of this runner's trace events. */
std::string
traceScope(std::int64_t shard)
{
    return shard >= 0 ? "shard" + std::to_string(shard) : "runner";
}

/** Spans smaller than this are schedule noise, not stalls; skipping
 *  them keeps traces compact without losing any attribution mass. */
constexpr double kMinSpanSec = 1e-12;

/**
 * Emit the virtual-time schedule as trace events. Runs AFTER
 * simulateTimeline, purely over its deterministic result, so the
 * emitted stream is identical across runs and thread interleavings.
 *
 * Per frame, the spans partition [arrival, done] exactly:
 *   pend:source | per stage: wait:<s> (queue) -> batchwait:<s>
 *   (last stage, fill-gate share) -> exec:<s> -> blocked:<s>
 *   (back-pressure hold before stage s+1 admits).
 * trace_report.py's stall table and --check conservation rule rely
 * on this decomposition.
 *
 * @param t0 Global virtual time of local second 0 (the first
 *        frame's sensor stamp when paced) — shard timelines land on
 *        the fleet clock with no extra plumbing.
 * @param tasks The scheduled tasks, aligned with timeline.frames;
 *        each fault directive's retry/fail/degrade markers are
 *        emitted as instants (the charged time already lives inside
 *        the exec span, so the tiling decomposition above is
 *        undisturbed).
 */
void
emitVirtualTrace(Tracer &tracer, const TimelineResult &timeline,
                 const std::vector<TimelineStageSpec> &stages,
                 double t0, std::int64_t shard,
                 const std::vector<std::int64_t> &frame_ids,
                 const std::vector<std::int64_t> &sensor_ids,
                 const std::vector<std::unique_ptr<FrameTask>> &tasks)
{
    const std::string scope = traceScope(shard);
    const std::size_t n_stages = stages.size();
    const std::size_t last = n_stages - 1;
    // The stage honoring the degraded sample budget (down-sample in
    // the standard three-stage graph).
    const std::size_t ds = n_stages >= 2 ? last - 1 : 0;

    for (std::size_t j = 0; j < timeline.frames.size(); ++j) {
        const TimelineFrame &tf = timeline.frames[j];
        TraceIds ids;
        ids.frame = frame_ids[j];
        ids.sensor = sensor_ids[j];
        ids.shard = shard;
        if (tf.dropped) {
            tracer.instant(TraceClock::Virtual,
                           t0 + tf.droppedAtSec, "drop:source",
                           "overload", scope + "/source", ids);
            continue;
        }
        const FrameFaultDirective &d = tasks[j]->fault;
        if (!d.clean()) {
            const std::string track =
                scope + "/" + stages[last].name;
            if (d.attempts > 1) {
                tracer.instant(TraceClock::Virtual,
                               t0 + tf.startSec[last],
                               "retry:" + stages[last].name, "fault",
                               track, ids);
            }
            if (d.failed) {
                tracer.instant(TraceClock::Virtual, t0 + tf.doneSec,
                               "fail:" + stages[last].name, "fault",
                               track, ids);
            }
            if (d.degraded) {
                tracer.instant(TraceClock::Virtual,
                               t0 + tf.startSec[ds],
                               "degrade:" + stages[ds].name, "fault",
                               scope + "/" + stages[ds].name, ids);
            }
        }
        if (tf.admitSec - tf.arrivalSec > kMinSpanSec) {
            tracer.span(TraceClock::Virtual, t0 + tf.arrivalSec,
                        tf.admitSec - tf.arrivalSec, "pend:source",
                        "stall", scope + "/source", ids);
        }
        ids.batch = tf.batchId;
        for (std::size_t s = 0; s < n_stages; ++s) {
            const std::string track = scope + "/" + stages[s].name;
            const double batch_wait =
                s == last ? tf.batchWaitSec : 0.0;
            const double queue_wait =
                tf.startSec[s] - tf.enqueueSec[s] - batch_wait;
            if (queue_wait > kMinSpanSec) {
                tracer.span(TraceClock::Virtual,
                            t0 + tf.enqueueSec[s], queue_wait,
                            "wait:" + stages[s].name, "stall",
                            track, ids);
            }
            if (batch_wait > kMinSpanSec) {
                tracer.span(TraceClock::Virtual,
                            t0 + tf.startSec[s] - batch_wait,
                            batch_wait,
                            "batchwait:" + stages[s].name, "stall",
                            track, ids);
            }
            tracer.span(TraceClock::Virtual, t0 + tf.startSec[s],
                        tf.finishSec[s] - tf.startSec[s],
                        "exec:" + stages[s].name,
                        stages[s].resource, track, ids);
            if (s < last) {
                const double held =
                    tf.enqueueSec[s + 1] - tf.finishSec[s];
                if (held > kMinSpanSec) {
                    tracer.span(TraceClock::Virtual,
                                t0 + tf.finishSec[s], held,
                                "blocked:" + stages[s].name,
                                "stall", track, ids);
                }
            }
        }
    }

    // The device view of batching: one span per coalesced dispatch
    // (the ONE occupancy interval the schedule charged).
    for (std::size_t b = 0; b < timeline.batches.size(); ++b) {
        const TimelineBatch &batch = timeline.batches[b];
        TraceIds ids;
        ids.shard = shard;
        ids.batch = static_cast<std::int64_t>(b);
        tracer.counter(TraceClock::Virtual, t0 + batch.startSec,
                       "batch-size", scope + "/batches",
                       static_cast<double>(batch.members.size()));
        tracer.span(TraceClock::Virtual, t0 + batch.startSec,
                    batch.finishSec - batch.startSec,
                    "batch:" + stages[last].name,
                    stages[last].resource, scope + "/batches", ids);
    }
}

/** Cross-frame cache matching the engine's octree policy, or null
 * when the runner is configured without one. */
std::shared_ptr<TemporalPreprocessState>
makeCarry(const PreprocessingEngine &preprocess,
          const StreamRunner::Config &cfg)
{
    if (!cfg.temporalCache)
        return nullptr;
    TemporalPreprocessState::Config tc;
    tc.octree = preprocess.config().octree;
    // No stage reads the raw-cloud KNN buckets or occupancy list.
    tc.cacheIndices = false;
    return std::make_shared<TemporalPreprocessState>(tc);
}

std::vector<StagePipeline::StageSpec>
makeSpecs(const OctreeBuildStage &build, const DownSampleStage &sample,
          const InferenceStage &infer, const BatchPolicy &batch,
          const StreamRunner::Config &cfg)
{
    StagePipeline::StageSpec inference{&infer, cfg.fpgaUnits,
                                       nullptr};
    if (batch.maxBatch > 1) {
        // The coalescing point is an ordering point: one worker
        // assembles deterministic admission-index groups (the
        // virtual timeline still schedules fpgaUnits device units).
        inference.workers = 1;
        inference.batch = &batch;
    }
    return {{&build, cfg.buildWorkers},
            {&sample, cfg.fpgaUnits},
            inference};
}

/** Down-sampling device: the FPGA, split into its DSU half only
 * when an FPGA-resident backend runs unshared. */
std::string
sampleResource(const ExecutionBackend &backend,
               const StreamRunner::Config &cfg)
{
    if (backend.resource() == "fpga" && !cfg.shareFpga)
        return "fpga.dsu";
    return "fpga";
}

/** Inference device: an FPGA-resident backend follows the shareFpga
 * semantics (the one fabric of Fig. 4, or its FCU half); any other
 * backend occupies its own device. */
std::string
inferResource(const ExecutionBackend &backend,
              const StreamRunner::Config &cfg)
{
    if (backend.resource() == "fpga")
        return cfg.shareFpga ? "fpga" : "fpga.fcu";
    return backend.resource();
}

StagePipeline::Config
pipelineConfig(const StreamRunner::Config &cfg)
{
    StagePipeline::Config pc;
    pc.queueCapacity = cfg.maxInFlight > 0
                           ? std::min(cfg.queueCapacity,
                                      cfg.maxInFlight)
                           : cfg.queueCapacity;
    return pc;
}

} // namespace

void
FrameCounts::addCounts(const FrameCounts &other)
{
    framesIn += other.framesIn;
    framesProcessed += other.framesProcessed;
    framesDropped += other.framesDropped;
    framesAbandoned += other.framesAbandoned;
    framesFailed += other.framesFailed;
    framesRetried += other.framesRetried;
    framesDegraded += other.framesDegraded;
}

std::string
RuntimeReport::toString() const
{
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(1);
    oss << "frames: " << framesProcessed << "/" << framesIn
        << " processed";
    if (framesDropped > 0)
        oss << ", " << framesDropped << " dropped ("
            << overloadPolicyName(policy) << ")";
    if (framesAbandoned > 0)
        oss << ", " << framesAbandoned << " abandoned (stopped)";
    oss << (paced ? ", sensor-paced" : ", batch") << "\n";
    // Printed only when some frame failed, retried or degraded.
    if (framesFailed > 0 || framesRetried > 0 || framesDegraded > 0) {
        oss << "faults: " << framesFailed << " failed | "
            << framesRetried << " retried | " << framesDegraded
            << " degraded\n";
    }
    oss << "sustained: " << sustainedFps << " FPS over "
        << makespanSec * 1e3 << " ms";
    if (generationFps > 0.0)
        oss << " | sensor: " << generationFps << " FPS";
    oss << " | real-time: " << realTimeVerdictName(realTime);
    if (realTime == RealTimeVerdict::NotApplicable)
        oss << " (no sensor pacing)";
    oss << "\n";
    oss.precision(2);
    oss << "latency ms: mean " << meanLatencySec * 1e3 << " | p50 "
        << p50LatencySec * 1e3 << " | p95 " << p95LatencySec * 1e3
        << " | p99 " << p99LatencySec * 1e3 << " | max "
        << maxLatencySec * 1e3 << "\n";
    // Printed only when batching is on (maxBatch > 1).
    if (configuredMaxBatch > 1) {
        oss << "batching: max " << configuredMaxBatch
            << " | dispatches " << batchCount << " | batched "
            << batchedFrames << " | solo " << soloFrames
            << " | mean size " << meanBatchSize << " | peak "
            << maxBatchSize << "\n";
    }
    for (const TimelineStageStats &st : stages) {
        oss << "stage " << st.name << " [" << st.resource << " x"
            << st.units << "]: util "
            << static_cast<int>(st.utilization * 100.0 + 0.5)
            << "%, queue mean " << st.meanQueueDepth << " peak "
            << st.peakQueueDepth << "\n";
    }
    // Printed only when a temporal carry attributed some frame.
    if (temporalSubtreeReusePct >= 0.0 || temporalKnnHitPct >= 0.0) {
        oss << "temporal: subtree reuse ";
        if (temporalSubtreeReusePct >= 0.0)
            oss << temporalSubtreeReusePct << "%";
        else
            oss << "n/a";
        oss << " | knn cache ";
        if (temporalKnnHitPct >= 0.0)
            oss << temporalKnnHitPct << "%";
        else
            oss << "n/a";
        oss << "\n";
    }
    return oss.str();
}

StreamRunner::StreamRunner(const PreprocessingEngine &preprocess,
                           const ExecutionBackend &backend,
                           const Config &config)
    : cfg(config), carry(makeCarry(preprocess, config)),
      build(preprocess, "cpu", carry.get()),
      sample(preprocess, config.inputPoints,
             sampleResource(backend, config), &streamWorkload),
      infer(backend, inferResource(backend, config), &workspacePool),
      batchPolicy{config.maxBatch, config.batchTimeoutVirtualSec},
      pipeline(makeSpecs(build, sample, infer, batchPolicy, config),
               pipelineConfig(config))
{
    HGPCN_ASSERT(cfg.inputPoints >= 1, "inputPoints must be >= 1");
    HGPCN_ASSERT(cfg.buildWorkers >= 1, "buildWorkers must be >= 1");
    HGPCN_ASSERT(cfg.fpgaUnits >= 1, "fpgaUnits must be >= 1");
    HGPCN_ASSERT(cfg.intraOpThreads >= 0,
                 "intraOpThreads must be >= 0");
    HGPCN_ASSERT(cfg.maxBatch >= 1, "maxBatch must be >= 1");
    HGPCN_ASSERT(cfg.batchTimeoutVirtualSec >= 0.0,
                 "batchTimeoutVirtualSec must be >= 0");
    if (carry)
        carry->setObservability(&metricsReg, cfg.traceShard);
}

RuntimeResult
StreamRunner::run(const std::vector<Frame> &frames,
                  const FrameTaskCallback &on_frame,
                  const StreamTraceIds *trace_ids,
                  const std::vector<FrameFaultDirective> *faults)
{
    HGPCN_ASSERT(trace_ids == nullptr ||
                     (trace_ids->frame.size() == frames.size() &&
                      trace_ids->sensor.size() == frames.size()),
                 "trace_ids must parallel the input stream");
    HGPCN_ASSERT(faults == nullptr ||
                     faults->size() == frames.size(),
                 "fault directives must parallel the input stream");
    RuntimeResult out;
    out.report.policy = cfg.policy;
    out.report.paced = cfg.paceBySensor;
    out.report.framesIn = frames.size();
    // Fresh registry per run (the runner-reuse contract): the
    // temporal carry and the sections below write into it, and the
    // final snapshot is the report's source of truth.
    metricsReg.clear();
    if (frames.empty()) {
        out.metrics = metricsReg.snapshot();
        return out;
    }

    // A malformed stream should fail on this thread before any work
    // is done, not abort a worker mid-run: check the sensor rate
    // (timestamp monotonicity) and that every frame covers K.
    // Streams that carry no timestamps at all (generators other
    // than the LiDAR simulator leave 0.0) cannot be sensor-paced;
    // fall back to batch admission rather than treating them as
    // corrupt.
    bool paced = cfg.paceBySensor;
    if (paced && frames.size() >= 2) {
        bool unstamped = true;
        for (const Frame &frame : frames) {
            if (frame.timestamp != frames.front().timestamp) {
                unstamped = false;
                break;
            }
        }
        if (unstamped) {
            warn("stream carries no generation timestamps; "
                 "falling back to batch admission");
            paced = false;
        }
    }
    out.report.paced = paced;
    const double generation_fps =
        paced ? streamGenerationFps(frames) : 0.0;
    for (const Frame &frame : frames) {
        HGPCN_ASSERT(frame.cloud.size() >= cfg.inputPoints,
                     "frame '", frame.name, "' smaller than K: ",
                     frame.cloud.size(), " < ", cfg.inputPoints);
    }
    streamWorkload.clear();
    if (carry) {
        // A frame holds its pooled bundle from its build until the
        // down-sample stage drops it, and the carry holds the last
        // frame's: reserve that many bundles now, so the pool's size
        // does not depend on how far the build stage ran ahead.
        const std::size_t in_flight = cfg.buildWorkers +
                                      pipelineConfig(cfg).queueCapacity +
                                      cfg.fpgaUnits;
        carry->reserveBundles(std::min(frames.size(), in_flight) + 1);
    }
    const int intra_op =
        cfg.intraOpThreads > 0 ? cfg.intraOpThreads : allowedCores();
    infer.setIntraOpThreads(intra_op);

    // Real concurrent execution of the functional work.
    std::vector<std::unique_ptr<FrameTask>> tasks;
    tasks.reserve(frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
        auto task = std::make_unique<FrameTask>();
        task->index = i;
        task->frame = &frames[i];
        if (faults != nullptr)
            task->fault = (*faults)[i];
        tasks.push_back(std::move(task));
    }
    std::vector<std::unique_ptr<FrameTask>> completed;
    {
        // One pool per run, its helpers on this thread's cores: the
        // stage workers borrow it for the network's parallel regions.
        // Helpers start only when some region can get more than one
        // thread; without them the installed pool runs every region
        // on its caller.
        const bool parallel = backend().model().maxRegionThreads(
                                  cfg.inputPoints, cfg.maxBatch,
                                  intra_op) > 1;
        WorkerPool workers(parallel ? allowedCores() - 1 : 0);
        WorkerPool::Install use(&workers);
        completed = pipeline.run(std::move(tasks), on_frame);
    }

    // Virtual-time schedule over the recorded cycle-model costs.
    const double t0 = frames.front().timestamp;
    std::vector<double> arrivals;
    std::vector<std::vector<double>> costs;
    arrivals.reserve(completed.size());
    costs.reserve(completed.size());
    for (const auto &task : completed) {
        arrivals.push_back(paced ? task->frame->timestamp - t0
                                 : 0.0);
        costs.push_back(task->stageCostSec);
    }
    out.workload = streamWorkload.snapshot();

    TimelineConfig tl;
    tl.stages = {{build.name(), build.resource()},
                 {sample.name(), sample.resource()},
                 {infer.name(), infer.resource()}};
    tl.resourceUnits["cpu"] = cfg.buildWorkers;
    // Collapses to one "fpga" entry when the backend shares the
    // fabric with the down-sampler (the Fig. 4 platform).
    tl.resourceUnits[sample.resource()] = cfg.fpgaUnits;
    tl.resourceUnits[infer.resource()] = cfg.fpgaUnits;
    tl.queueCapacity = cfg.queueCapacity;
    tl.policy = cfg.policy;
    tl.maxInFlight = cfg.maxInFlight;
    // Micro-batching: the inference stage coalesces; a dispatch of
    // >= 2 frames is charged the backend's shared batched service
    // time, computed from the per-frame traces recorded by the
    // functional run (pure arithmetic — deterministic).
    TimelineBatchCost batch_cost;
    if (cfg.maxBatch > 1) {
        tl.batch.maxBatch = cfg.maxBatch;
        tl.batch.timeoutSec = cfg.batchTimeoutVirtualSec;
        batch_cost = [this, &completed](
                         const std::vector<std::size_t> &members) {
            std::vector<const BackendInference *> ptrs;
            ptrs.reserve(members.size());
            // Each member's fault surcharge (retries, backoff,
            // slowdown) extends the shared occupancy — the device
            // is held exactly as long as in solo dispatch. Zero for
            // clean directives, keeping the sum bit-exact.
            double fault_extra = 0.0;
            for (const std::size_t j : members) {
                ptrs.push_back(&completed[j]->result.inference);
                fault_extra += completed[j]->faultExtraSec;
            }
            return backend().batchServiceSec(ptrs) + fault_extra;
        };
    }
    const TimelineResult timeline =
        simulateTimeline(tl, arrivals, costs, batch_cost);

    // Fault tallies over the scheduled frames: a terminally failed
    // frame occupied the device (the schedule charged it) but
    // delivers nothing, so it moves from "processed" to "failed" —
    // conservation: in == processed + dropped + abandoned + failed.
    for (std::size_t j = 0; j < completed.size(); ++j) {
        if (timeline.frames[j].dropped)
            continue;
        const FrameFaultDirective &d = completed[j]->fault;
        if (d.failed) {
            out.failedFrames.push_back(completed[j]->index);
            continue;
        }
        if (d.attempts > 1)
            out.retriedFrames.push_back(completed[j]->index);
        if (d.degraded)
            out.degradedFrames.push_back(completed[j]->index);
    }
    const std::size_t n_failed = out.failedFrames.size();

    // Publish the schedule into the run's metrics registry; the
    // report reads these back from the snapshot below, so adding a
    // new attribution is one registration away from every consumer
    // (RuntimeReport, ServingReport, trace_report.py).
    metricsReg.counter("frames.in").add(frames.size());
    metricsReg.counter("frames.processed")
        .add(timeline.processed - n_failed);
    metricsReg.counter("frames.dropped").add(timeline.dropped);
    metricsReg.counter("frames.abandoned")
        .add(frames.size() - completed.size());
    metricsReg.counter("frames.failed").add(n_failed);
    metricsReg.counter("frames.retried").add(out.retriedFrames.size());
    metricsReg.counter("frames.degraded").add(out.degradedFrames.size());
    metricsReg.gauge("timeline.makespan_sec")
        .add(timeline.makespanSec);
    Histogram &latency_hist = metricsReg.histogram(
        "frame.latency_sec",
        {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0});
    Gauge &wait_sum = metricsReg.gauge("stall.queue_wait_sec");
    Gauge &batch_wait_sum = metricsReg.gauge("stall.batch_wait_sec");
    Gauge &exec_sum = metricsReg.gauge("stall.exec_sec");
    Gauge &blocked_sum = metricsReg.gauge("stall.output_blocked_sec");
    Gauge &pend_sum = metricsReg.gauge("stall.source_pend_sec");
    const std::size_t last_stage = tl.stages.size() - 1;
    for (std::size_t j = 0; j < timeline.frames.size(); ++j) {
        const TimelineFrame &tf = timeline.frames[j];
        if (tf.dropped)
            continue;
        // Failed frames still contribute their stall attribution
        // (they held real schedule time) but not completion latency.
        if (!completed[j]->fault.failed)
            latency_hist.observe(tf.latencySec);
        pend_sum.add(tf.admitSec - tf.arrivalSec);
        batch_wait_sum.add(tf.batchWaitSec);
        for (std::size_t s = 0; s < tl.stages.size(); ++s) {
            const double bw = s == last_stage ? tf.batchWaitSec : 0.0;
            wait_sum.add(tf.startSec[s] - tf.enqueueSec[s] - bw);
            exec_sum.add(tf.finishSec[s] - tf.startSec[s]);
            if (s < last_stage)
                blocked_sum.add(tf.enqueueSec[s + 1] -
                                tf.finishSec[s]);
        }
    }
    for (const TimelineStageStats &st : timeline.stages)
        metricsReg.gauge("stage." + st.name + ".busy_sec")
            .add(st.busySec);
    if (cfg.maxBatch > 1) {
        metricsReg.counter("batch.dispatches")
            .add(timeline.batchCount);
        metricsReg.counter("batch.batched_frames")
            .add(timeline.batchedFrames);
        metricsReg.counter("batch.solo_frames")
            .add(timeline.soloFrames);
    }
    out.metrics = metricsReg.snapshot();

    // The deterministic virtual schedule as trace events, on the
    // GLOBAL virtual clock (t0 re-added): shard traces from a fleet
    // serve align without extra plumbing.
    if (HGPCN_TRACE_ENABLED()) {
        std::vector<std::int64_t> frame_ids(completed.size());
        std::vector<std::int64_t> sensor_ids(completed.size(), -1);
        for (std::size_t j = 0; j < completed.size(); ++j) {
            const std::size_t idx = completed[j]->index;
            frame_ids[j] =
                trace_ids ? trace_ids->frame[idx]
                          : static_cast<std::int64_t>(idx);
            if (trace_ids)
                sensor_ids[j] = trace_ids->sensor[idx];
        }
        emitVirtualTrace(Tracer::global(), timeline, tl.stages,
                         paced ? t0 : 0.0, cfg.traceShard,
                         frame_ids, sensor_ids, completed);
    }

    // Assemble the report — counts come from the frozen snapshot
    // (the registry is authoritative), schedule detail from the
    // timeline.
    RuntimeReport &rep = out.report;
    rep.framesProcessed = out.metrics.countOf("frames.processed");
    rep.framesDropped = out.metrics.countOf("frames.dropped");
    rep.framesAbandoned = out.metrics.countOf("frames.abandoned");
    rep.framesFailed = out.metrics.countOf("frames.failed");
    rep.framesRetried = out.metrics.countOf("frames.retried");
    rep.framesDegraded = out.metrics.countOf("frames.degraded");
    rep.makespanSec = timeline.makespanSec;
    rep.sustainedFps =
        rep.makespanSec > 0.0
            ? static_cast<double>(rep.framesProcessed) /
                  rep.makespanSec
            : 0.0;
    rep.generationFps = generation_fps;
    // generation_fps is forced to 0 for unpaced runs, so batch mode
    // yields NotApplicable rather than a vacuous YES.
    rep.realTime =
        evaluateRealTime(rep.sustainedFps, rep.generationFps);
    rep.stages = timeline.stages;
    rep.configuredMaxBatch = cfg.maxBatch;
    static_cast<BatchStats &>(rep) = timeline;

    std::vector<double> latencies;
    latencies.reserve(timeline.processed);
    for (std::size_t j = 0; j < completed.size(); ++j) {
        const TimelineFrame &tf = timeline.frames[j];
        if (tf.dropped)
            continue;
        // A terminally failed frame delivers no output: counted in
        // framesFailed above, absent from completions and latency.
        if (completed[j]->fault.failed)
            continue;
        ProcessedFrame pf;
        pf.index = completed[j]->index;
        pf.latencySec = tf.latencySec;
        pf.doneSec = tf.doneSec;
        pf.result = std::move(completed[j]->result);
        latencies.push_back(tf.latencySec);
        out.frames.push_back(std::move(pf));
    }
    rep.summarizeLatencies(std::move(latencies));

    // Temporal-cache attribution, read back from the registry the
    // carry wrote into during the functional run.
    const std::uint64_t reused =
        out.metrics.countOf("temporal.nodes.reused");
    const std::uint64_t erected =
        out.metrics.countOf("temporal.nodes.erected");
    if (reused + erected > 0) {
        rep.temporalSubtreeReusePct =
            100.0 * static_cast<double>(reused) /
            static_cast<double>(reused + erected);
    }
    const std::uint64_t knn_inc =
        out.metrics.countOf("temporal.knn.incremental");
    const std::uint64_t knn_scratch =
        out.metrics.countOf("temporal.knn.scratch");
    if (knn_inc + knn_scratch > 0) {
        rep.temporalKnnHitPct =
            100.0 * static_cast<double>(knn_inc) /
            static_cast<double>(knn_inc + knn_scratch);
    }
    return out;
}

void
StreamRunner::requestStop()
{
    pipeline.requestStop();
}

} // namespace hgpcn
