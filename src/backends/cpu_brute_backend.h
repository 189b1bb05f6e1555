/**
 * @file
 * CpuBruteBackend: host-CPU brute-force reference backend.
 *
 * The no-accelerator floor of every comparison: the real PointNet++
 * functional path with brute-force KNN, timed by the paper's Xeon
 * W-2255 device model (effective rates over the recorded workload
 * counters). DS and FC do not overlap on a general-purpose core, so
 * the total is their serial sum — DeviceModel::inferenceSec exactly.
 */

#ifndef HGPCN_BACKENDS_CPU_BRUTE_BACKEND_H
#define HGPCN_BACKENDS_CPU_BRUTE_BACKEND_H

#include "backends/execution_backend.h"
#include "core/inference_engine.h"
#include "sim/device_model.h"

namespace hgpcn
{

/** Brute-force PointNet++ on the host CPU behind the interface. */
class CpuBruteBackend : public ModeledBackend
{
  public:
    /**
     * Occupies "cpu.brute", a dedicated host core pool separate
     * from the octree-build workers' "cpu" resource.
     *
     * @param engine_cfg Functional parameters (centroid/seed; the
     *        ds method is forced to brute KNN).
     * @param net Deployed network replica (borrowed).
     */
    CpuBruteBackend(const InferenceEngine::Config &engine_cfg,
                    const PointNet2 &net)
        : ModeledBackend("cpu-brute", "cpu.brute", net,
                         DsMethod::BruteKnn, engine_cfg.centroid,
                         engine_cfg.seed),
          dev(DeviceModel::xeonW2255())
    {
    }

    /** Serial DS + FC on the host device model. */
    BackendInference time(const ExecutionTrace &trace) const override;

    /** Serial DS sum + one batched GEMM pass: MAC time is rate-
     * linear, so batching only merges the per-op dispatch overhead
     * (DeviceModel::fcSecStacked). */
    double batchServiceSec(std::span<const BackendInference *const>
                               frames) const override;

  private:
    DeviceModel dev;
};

} // namespace hgpcn

#endif // HGPCN_BACKENDS_CPU_BRUTE_BACKEND_H
