/**
 * @file
 * MesorasiBackend: the Mesorasi [6] baseline (paper Section VII-D).
 *
 * Mesorasi performs data structuring on a mobile GPU and feature
 * computation with *delayed aggregation*: the per-point MLPs run on
 * the unique input points before neighborhood aggregation, removing
 * the (centroids*k)/points redundancy of grouped execution. DS and
 * FC are overlapped, but — as the paper stresses in Section VII-D —
 * "the inference speed is still largely limited by the latency of
 * the data structuring step" on the GPU.
 *
 * The functional path is the real PointNet++ execution with
 * brute-force KNN — the workload Mesorasi's GPU actually runs — so
 * labels and traces stay comparable to every other backend.
 */

#ifndef HGPCN_BACKENDS_MESORASI_BACKEND_H
#define HGPCN_BACKENDS_MESORASI_BACKEND_H

#include "backends/execution_backend.h"
#include "core/inference_engine.h"
#include "sim/device_model.h"
#include "sim/sim_config.h"

namespace hgpcn
{

/** Mesorasi-style GPU delayed aggregation behind the interface. */
class MesorasiBackend : public ModeledBackend
{
  public:
    /**
     * Occupies its own "gpu" — never contends with the HgPCN
     * fabric.
     *
     * @param engine_cfg Platform parameters: sim drives the FC-side
     *        fabric model, centroid/seed the functional execution
     *        (the ds method is forced to brute KNN — that is what
     *        the GPU executes).
     * @param net Deployed network replica (borrowed).
     */
    MesorasiBackend(const InferenceEngine::Config &engine_cfg,
                    const PointNet2 &net)
        : ModeledBackend("mesorasi", "gpu", net, DsMethod::BruteKnn,
                         engine_cfg.centroid, engine_cfg.seed),
          cfg(engine_cfg.sim), gpu(DeviceModel::tx2MobileGpu())
    {
    }

    /**
     * DS on the paired GPU — a TX2-class mobile Pascal GPU, weaker
     * than the Xavier NX baseline device — overlapped with
     * delayed-aggregation FC on the fabric's systolic model.
     * @p trace must carry brute-force DS workload.
     */
    BackendInference time(const ExecutionTrace &trace) const override;

  private:
    SimConfig cfg;
    DeviceModel gpu;
};

} // namespace hgpcn

#endif // HGPCN_BACKENDS_MESORASI_BACKEND_H
