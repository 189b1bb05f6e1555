/**
 * @file
 * System-level HgPCN: the complete E2E service of Fig. 1(b)/Fig. 4.
 *
 * For every raw frame: Pre-processing Engine (octree build on the
 * CPU, OIS down-sampling on the FPGA) followed by the Inference
 * Engine (VEG data structuring + systolic feature computation),
 * reusing the pre-processing octree for the first SA level.
 * The real-time criterion of Section VII-E: the achieved frame rate
 * must meet or exceed the sensor's generation rate.
 *
 * Streams run on the concurrent stage-pipeline runtime (src/runtime,
 * docs/RUNTIME.md) via runStream(), which reports a RuntimeReport.
 */

#ifndef HGPCN_CORE_HGPCN_SYSTEM_H
#define HGPCN_CORE_HGPCN_SYSTEM_H

#include <memory>

#include "backends/hgpcn_backend.h"
#include "core/e2e_result.h"
#include "core/frame_workspace.h"
#include "core/inference_engine.h"
#include "core/preprocessing_engine.h"
#include "datasets/frame.h"
#include "runtime/stream_runner.h"

namespace hgpcn
{

/** The complete HgPCN platform. */
class HgPcnSystem
{
  public:
    /** System parameters. */
    struct Config
    {
        PreprocessingEngine::Config preprocess;
        InferenceEngine::Config inference;
        /** PCN input size K (points after down-sampling). */
        std::size_t inputPoints = 4096;
    };

    /**
     * @param config System parameters.
     * @param spec Network to deploy (its inputPoints overrides
     *             config.inputPoints when nonzero).
     */
    HgPcnSystem(const Config &config, const PointNet2Spec &spec);

    /** Process one raw frame end to end. */
    E2eResult processFrame(const PointCloud &raw) const;

    /**
     * Process a frame stream on the concurrent runtime with
     * @p runner_cfg worker/queue/overload parameters. The runner
     * K defaults to this system's inputPoints when the config
     * leaves it at 0.
     */
    RuntimeResult runStream(const std::vector<Frame> &frames,
                            StreamRunner::Config runner_cfg) const;

    /** @return the deployed network. */
    const PointNet2 &model() const { return *net; }

    /** @return the pre-processing engine (for composing runners). */
    const PreprocessingEngine &preprocessor() const { return preproc; }

    /** @return the engine as an ExecutionBackend — what this
     * system's serial and streamed paths both execute on, and what
     * a heterogeneous fleet swaps out per shard. */
    const ExecutionBackend &backend() const { return *be; }

    /** @return system parameters. */
    const Config &config() const { return cfg; }

  private:
    Config cfg;
    std::unique_ptr<PointNet2> net;
    PreprocessingEngine preproc;
    /** The engine behind the backend interface; references *net,
     * which the unique_ptr keeps address-stable. */
    std::unique_ptr<HgpcnBackend> be;
    /** Warm scratch arenas for the serial processFrame() path
     * (streamed runs use the StreamRunner's own pool). */
    mutable WorkspacePool serialWorkspaces;
};

} // namespace hgpcn

#endif // HGPCN_CORE_HGPCN_SYSTEM_H
