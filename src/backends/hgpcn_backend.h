/**
 * @file
 * HgpcnBackend: the paper's Inference Engine as an ExecutionBackend.
 *
 * Times each frame with the DSU + FCU engine's cycle models
 * (core/inference_engine.h) without changing its numbers: dsSec is
 * the DSU's pipelined latency, fcSec the FCU's, and the two overlap
 * through the BF-stage buffer — exactly InferenceResult::totalSec().
 * infer() reproduces InferenceEngine::run bit for bit
 * (tests/test_backends.cc pins it).
 */

#ifndef HGPCN_BACKENDS_HGPCN_BACKEND_H
#define HGPCN_BACKENDS_HGPCN_BACKEND_H

#include "backends/execution_backend.h"
#include "core/inference_engine.h"

namespace hgpcn
{

/** The FPGA DSU/FCU engine behind the backend interface. */
class HgpcnBackend : public ModeledBackend
{
  public:
    /**
     * Shares the HgPCN fabric ("fpga") with the Down-sampling Unit.
     *
     * @param engine Engine to time with (copied; an InferenceEngine
     *        is its configuration, whose ds/centroid/seed drive the
     *        functional run).
     * @param net Deployed network replica (borrowed).
     */
    HgpcnBackend(const InferenceEngine &engine, const PointNet2 &net)
        : ModeledBackend("hgpcn", "fpga", net, engine.config().ds,
                         engine.config().centroid,
                         engine.config().seed),
          eng(engine)
    {
    }

    /** InferenceEngine::time(): DSU and FCU overlap through the BF
     * buffer. */
    BackendInference time(const ExecutionTrace &trace) const override;

    /** DSU passes run back-to-back (summed); the FCU runs the
     * layer-merged batched pass (FcuSim::runStacked); the two
     * overlap through the BF buffer, so the batch holds the device
     * for the slower side. */
    double batchServiceSec(std::span<const BackendInference *const>
                               frames) const override;

  private:
    InferenceEngine eng;
};

} // namespace hgpcn

#endif // HGPCN_BACKENDS_HGPCN_BACKEND_H
