/**
 * @file
 * The HgPCN engines as pluggable pipeline stages.
 *
 * The serial HgPcnSystem::processFrame flow of Fig. 4 split at its
 * two natural device boundaries:
 *
 *   OctreeBuildStage (CPU)     - Octree-build Unit: octree + table
 *   DownSampleStage  (FPGA)    - Down-sampling Unit: OIS-FPS to K
 *   InferenceStage   (backend) - whatever ExecutionBackend is
 *                                deployed (HgPCN DSU+FCU, Mesorasi,
 *                                PointACC, CPU reference, ...)
 *
 * Each stage wraps the existing engine without changing its cycle
 * model; the modeled per-stage cost it returns is exactly the term
 * that engine already contributed to the serial E2E latency. The
 * inference stage is backend-parameterized (src/backends): it
 * executes on the backend it is handed and occupies that backend's
 * device on the virtual timeline.
 */

#ifndef HGPCN_RUNTIME_STAGES_H
#define HGPCN_RUNTIME_STAGES_H

#include <string>

#include "backends/execution_backend.h"
#include "common/stats.h"
#include "core/frame_workspace.h"
#include "core/preprocessing_engine.h"
#include "runtime/stage.h"

namespace hgpcn
{

class TemporalPreprocessState;

/** Octree-build Unit on the host CPU. */
class OctreeBuildStage : public PipelineStage
{
  public:
    /**
     * @param engine Pre-processing engine (borrowed, not owned).
     * @param carry_state Optional cross-frame preprocessing cache
     *        (borrowed, core/temporal_preprocess.h): frames build
     *        their octree incrementally against the previous frame.
     *        Bit-identical outputs; frames that update from the
     *        carry take turns on its mutex, misses build in
     *        parallel across workers.
     */
    explicit OctreeBuildStage(const PreprocessingEngine &engine,
                              std::string stage_resource = "cpu",
                              TemporalPreprocessState *carry_state =
                                  nullptr)
        : pre(engine), res(std::move(stage_resource)),
          carry(carry_state)
    {
    }

    const std::string &name() const override { return nm; }
    const std::string &resource() const override { return res; }
    double process(FrameTask &task) const override;

  private:
    const PreprocessingEngine &pre;
    std::string res;
    TemporalPreprocessState *carry;
    std::string nm = "octree-build";
};

/** Down-sampling Unit on the FPGA (OIS-FPS over the Octree-Table). */
class DownSampleStage : public PipelineStage
{
  public:
    /**
     * @param engine Pre-processing engine (borrowed).
     * @param input_points K, the PCN input size.
     * @param stage_resource Device name; keep equal to the
     *        InferenceStage's to model the single shared FPGA.
     * @param stream_workload Optional cross-frame aggregate the
     *        stage merges each frame's pre-processing counters into
     *        — workers run concurrently, hence the locked set.
     */
    DownSampleStage(const PreprocessingEngine &engine,
                    std::size_t input_points,
                    std::string stage_resource = "fpga",
                    ConcurrentStatSet *stream_workload = nullptr)
        : pre(engine), k(input_points), res(std::move(stage_resource)),
          workload(stream_workload)
    {
    }

    const std::string &name() const override { return nm; }
    const std::string &resource() const override { return res; }
    double process(FrameTask &task) const override;

  private:
    const PreprocessingEngine &pre;
    std::size_t k;
    std::string res;
    ConcurrentStatSet *workload;
    std::string nm = "down-sample";
};

/** Inference on the deployed execution backend. */
class InferenceStage : public PipelineStage
{
  public:
    /**
     * @param execution_backend Backend to execute on (borrowed;
     *        backends are thread-safe by contract).
     * @param stage_resource Device occupied on the virtual
     *        timeline; defaults to the backend's own resource.
     *        StreamRunner overrides it to model the shared HgPCN
     *        fabric ("fpga" / "fpga.fcu").
     * @param workspace_pool Optional pool of reusable frame
     *        workspaces (borrowed): each process() call leases one,
     *        giving the backend a warm scratch arena — the
     *        zero-alloc steady state (core/frame_workspace.h).
     * @param intra_op_threads Host threads per frame's inference
     *        (>= 1; output is bit-identical at any value).
     */
    explicit InferenceStage(const ExecutionBackend &execution_backend,
                            std::string stage_resource = "",
                            WorkspacePool *workspace_pool = nullptr,
                            int intra_op_threads = 1)
        : be(execution_backend),
          res(stage_resource.empty() ? execution_backend.resource()
                                     : std::move(stage_resource)),
          workspaces(workspace_pool), intraOp(intra_op_threads)
    {
    }

    const std::string &name() const override { return nm; }
    const std::string &resource() const override { return res; }
    double process(FrameTask &task) const override;

    /** One ExecutionBackend::inferBatch pass over the coalesced
     * frames sharing a single leased workspace arena; per-frame
     * outputs bit-identical to process(), and costs[i] is frame i's
     * SOLO modeled seconds (the timeline charges the shared batched
     * occupancy separately via batchServiceSec). */
    void processBatch(std::span<FrameTask *const> tasks,
                      std::span<double> costs) const override;

    /** @return the backend this stage executes on. */
    const ExecutionBackend &backend() const { return be; }

    /** Set the host threads per frame (>= 1). Call while no frame
     * is in flight (StreamRunner does, at each run()'s start). */
    void setIntraOpThreads(int threads) { intraOp = threads; }

  private:
    const ExecutionBackend &be;
    std::string res;
    WorkspacePool *workspaces;
    int intraOp;
    std::string nm = "inference";
};

} // namespace hgpcn

#endif // HGPCN_RUNTIME_STAGES_H
