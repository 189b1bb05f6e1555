/**
 * @file
 * StreamRunner: source-paced, multi-frame-in-flight E2E execution.
 *
 * The front door of the streaming runtime (docs/RUNTIME.md). A
 * runner owns the three stages — OctreeBuildStage (CPU),
 * DownSampleStage (FPGA) and a backend-parameterized InferenceStage
 * (src/backends) — admits a frame stream at the sensor rate,
 * executes the functional work on a real concurrent StagePipeline,
 * schedules the recorded cycle-model costs on the virtual timeline
 * and reports sustained throughput, tail latency, per-stage
 * occupancy/utilization, drops and the Section VII-E real-time
 * verdict. The default Config with paceBySensor = false is the
 * serial-shaped system of Fig. 4: one CPU builds frame i+1's octree
 * while the one FPGA down-samples and infers frame i.
 *
 * Device mapping: a backend on the HgPCN fabric (resource "fpga",
 * i.e. HgpcnBackend) follows the shareFpga semantics — inference
 * contends with OIS down-sampling for the one FPGA of Fig. 4, or
 * splits onto fpga.dsu/fpga.fcu. Any other backend (Mesorasi's GPU,
 * PointACC's die, the CPU reference) occupies its own device with
 * fpgaUnits units while the down-sampler keeps the FPGA to itself.
 */

#ifndef HGPCN_RUNTIME_STREAM_RUNNER_H
#define HGPCN_RUNTIME_STREAM_RUNNER_H

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/real_time.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "runtime/stage_pipeline.h"
#include "runtime/stages.h"
#include "runtime/virtual_timeline.h"

namespace hgpcn
{

/** One frame that completed the pipeline (not dropped). */
struct ProcessedFrame
{
    std::size_t index = 0;  //!< position in the input stream
    double latencySec = 0;  //!< admission-to-completion, virtual time
    double doneSec = 0;     //!< completion on the virtual timeline
    E2eResult result;       //!< functional outputs + cycle breakdown
};

/**
 * Frame tallies of a run or a serve, declared once for RuntimeReport
 * and ServingReport. Conservation: framesIn == framesProcessed +
 * framesDropped + framesAbandoned + framesFailed (a serve adds its
 * shed frames). Retried and degraded frames are subsets of
 * framesProcessed.
 */
struct FrameCounts
{
    std::size_t framesIn = 0;        //!< offered by the source
    std::size_t framesProcessed = 0;
    std::size_t framesDropped = 0;   //!< overload-policy victims
    std::size_t framesAbandoned = 0; //!< lost to requestStop()
    std::size_t framesFailed = 0;    //!< retries/deadline exhausted
    std::size_t framesRetried = 0;   //!< completed with > 1 attempt
    std::size_t framesDegraded = 0;  //!< completed at reduced fidelity

    /** Add each of @p other's counts to this one's. */
    void addCounts(const FrameCounts &other);
};

/**
 * Stream-level performance report (virtual-time, deterministic):
 * frame tallies, the per-frame latency (arrival to completion)
 * distribution and the inference stage's batch occupancy, plus the
 * fields below.
 */
struct RuntimeReport : FrameCounts, LatencySummary, BatchStats
{
    double makespanSec = 0;   //!< first arrival -> last completion
    double sustainedFps = 0;  //!< processed / makespan

    /** Sensor rate from timestamps (0 when unpaced or <2 frames). */
    double generationFps = 0;
    /** Section VII-E criterion: sustainedFps >= generationFps.
     * NotApplicable when no generation rate is derivable — batch
     * admission, an unstamped stream or <2 frames race no sensor,
     * so there is no criterion to pass. */
    RealTimeVerdict realTime = RealTimeVerdict::NotApplicable;

    OverloadPolicy policy = OverloadPolicy::Block;
    bool paced = true;

    /** Per-stage load, in dataflow order. */
    std::vector<TimelineStageStats> stages;

    // Temporal-cache attribution, read back from the run's metrics
    // registry ("temporal.*" counters). -1 = not applicable (cache
    // off or no frames); percentages in [0, 100] otherwise.
    double temporalSubtreeReusePct = -1;
    double temporalKnnHitPct = -1;

    /** StreamRunner::Config::maxBatch; the BatchStats stay zero
     * (and toString() prints no batching line) when it is 1. */
    std::size_t configuredMaxBatch = 1;

    /** Render a multi-line human-readable summary. */
    std::string toString() const;
};

/** Everything one run() produced. */
struct RuntimeResult
{
    /** Completed frames in stream order (dropped frames absent). */
    std::vector<ProcessedFrame> frames;
    RuntimeReport report;
    /** Aggregated workload counters across all frames. */
    StatSet workload;
    /** The run's metrics registry, frozen: frame/drop/batch
     * counters, stall attribution gauges, temporal-cache telemetry.
     * ServingResult merges these shard-wise. */
    MetricsSnapshot metrics;

    /** Stream-local indices of frames that terminally failed /
     * completed after retries / completed degraded. Empty when
     * every directive is clean; the serving layer maps them to
     * global frame indices for per-sensor and per-backend
     * attribution. */
    std::vector<std::size_t> failedFrames;
    std::vector<std::size_t> retriedFrames;
    std::vector<std::size_t> degradedFrames;
};

/**
 * Optional per-frame identity for trace events, parallel to the
 * input stream. A ShardedRunner passes each shard's global frame
 * indices and sensor ids so the shard's spans carry fleet-level ids
 * instead of shard-local positions.
 */
struct StreamTraceIds
{
    std::vector<std::int64_t> frame;
    std::vector<std::int64_t> sensor;
};

/** Concurrent stage-pipeline runner over the HgPCN engines. */
class StreamRunner
{
  public:
    struct Config
    {
        /** PCN input size K (points after down-sampling). 0 means
         * "inherit" — HgPcnSystem::runStream substitutes its own K;
         * constructing a StreamRunner directly requires nonzero. */
        std::size_t inputPoints = 0;

        /** Octree-build workers — host CPU cores devoted to
         * building frame i+1's (i+2's, ...) octree while the FPGA
         * works on frame i. */
        std::size_t buildWorkers = 1;

        /** FPGA devices. Each runs OIS down-sampling and inference
         * serially (shareFpga) or in parallel unit pairs. */
        std::size_t fpgaUnits = 1;

        /** true: down-sampling and inference contend for the same
         * FPGA (the Fig. 4 platform). false: independent devices. */
        bool shareFpga = true;

        /** Capacity of each inter-stage queue (>= 1). */
        std::size_t queueCapacity = 8;

        /** Admission credit: max frames admitted-but-unfinished;
         * 0 = bounded only by queues and units. */
        std::size_t maxInFlight = 0;

        /** Source-queue behavior when full (virtual timeline). */
        OverloadPolicy policy = OverloadPolicy::Block;

        /** true: admit each frame at its sensor timestamp; false:
         * batch mode, every frame available at t=0. */
        bool paceBySensor = true;

        /** Host threads running one frame's inference: each SA/FP
         * level is one parallel region over blocks of centroids or
         * fine points, gated by the level's work size so small
         * networks stay serial (nn/pointnet2.h, RunOptions).
         * 0 (default) = the cores this runner may run on, read
         * from the CPU affinity mask when run() starts — with the
         * stream pinned to three cores, three threads; >= 1 is
         * used as given. Wall-clock only — the modeled schedule
         * and every output bit are identical at any value. */
        int intraOpThreads = 0;

        /** Carry pre-processing indices across frames
         * (core/temporal_preprocess.h): each frame's octree is
         * rebuilt incrementally against the previous frame's and
         * the storage is pooled. Wall-clock only — every output bit
         * is identical either way. Frames that can update from the
         * carry take turns on its mutex; frames that miss it build
         * from scratch in parallel across buildWorkers. */
        bool temporalCache = true;

        /** Cross-sensor micro-batching: frames coalesced per
         * inference pass (runtime/batching_stage.h). 1 (default)
         * disables batching: every frame is dispatched alone and
         * the report's BatchStats stay zero. > 1 makes
         * the inference stage the coalescing point: per-frame
         * outputs and modeled numbers stay bit-identical; only the
         * schedule (shared device occupancy) moves. */
        std::size_t maxBatch = 1;

        /** Virtual seconds the oldest queued frame waits for a
         * batch to fill before a partial batch dispatches; 0 is
         * greedy/work-conserving (batches form only under backlog).
         * Used only when maxBatch > 1. */
        double batchTimeoutVirtualSec = 0.0;

        /** Shard id stamped on this runner's trace events and used
         * as its track prefix ("shard<N>/..."); -1 = standalone
         * ("runner/..."). Observability-only — never read by
         * scheduling. */
        std::int64_t traceShard = -1;
    };

    /**
     * @param preprocess Pre-processing engine (borrowed).
     * @param backend Execution backend to infer on (borrowed; binds
     *        its own model replica and is thread-safe by contract).
     * @param config Runner parameters.
     */
    StreamRunner(const PreprocessingEngine &preprocess,
                 const ExecutionBackend &backend,
                 const Config &config);

    /**
     * Process @p frames end to end (blocking).
     *
     * Runners are reusable: run() starts fresh even after a
     * previous run was aborted by requestStop() (the StagePipeline
     * restart contract).
     *
     * @param frames The stream; timestamps must be strictly
     *        increasing when paceBySensor is set.
     * @param on_frame Optional per-frame hook, called in stream
     *        order on the collecting thread.
     * @param trace_ids Optional fleet-level frame/sensor ids for
     *        trace events (see StreamTraceIds); sizes must match
     *        @p frames when given.
     * @param faults Optional resolved per-frame fault directives,
     *        parallel to @p frames (serving/failover.h): retries,
     *        backoff and slowdown are charged as virtual time on
     *        the inference stage, degraded frames run with their
     *        reduced sample budget, failed frames are scheduled but
     *        excluded from completions. Null means every frame is
     *        clean: a clean directive charges no time and changes
     *        no output.
     */
    RuntimeResult run(const std::vector<Frame> &frames,
                      const FrameTaskCallback &on_frame = {},
                      const StreamTraceIds *trace_ids = nullptr,
                      const std::vector<FrameFaultDirective> *faults =
                          nullptr);

    /** Abort the in-progress run() from any thread (including the
     * on_frame hook); run() returns the frames completed so far.
     * No-op against an idle runner; a later run() starts fresh. */
    void requestStop();

    /** @return runner parameters. */
    const Config &config() const { return cfg; }

    /** @return the backend this runner infers on. */
    const ExecutionBackend &backend() const { return infer.backend(); }

  private:
    Config cfg;
    /** Per-run metrics registry (cleared at each run() start;
     * frozen into RuntimeResult::metrics at the end). */
    MetricsRegistry metricsReg;
    /** Cross-frame workload aggregate, merged into by down-sample
     * workers concurrently; snapshot into RuntimeResult::workload. */
    ConcurrentStatSet streamWorkload;
    /** Reusable frame workspaces leased by inference workers; warm
     * across frames and runs (declared before the stages that
     * borrow it). */
    WorkspacePool workspacePool;
    /** Cross-frame pre-processing cache (null when temporalCache is
     * off; declared before the build stage that borrows it). */
    std::shared_ptr<TemporalPreprocessState> carry;
    OctreeBuildStage build;
    DownSampleStage sample;
    InferenceStage infer;
    /** Coalescing policy referenced by the pipeline's inference
     * StageSpec (declared before the pipeline that borrows it). */
    BatchPolicy batchPolicy;
    StagePipeline pipeline;
};

} // namespace hgpcn

#endif // HGPCN_RUNTIME_STREAM_RUNNER_H
