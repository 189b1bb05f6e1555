/**
 * @file
 * PointAccBackend: the PointACC [16] baseline (paper Section VII-D).
 *
 * PointACC pairs a 16x16 systolic array with a Mapping Unit that
 * performs exact data structuring: for every central point it
 * computes the distance to *every* input point and bitonic-sorts the
 * full candidate list for the top K (Section VII-D: "the searched
 * range of PointACC's bitonic sorter is over the entire input point
 * cloud"). DS and FC are overlapped. The architectural difference to
 * HgPCN's DSU is therefore exactly the sorter workload — the entire
 * cloud versus VEG's last ring Nn (Fig. 15).
 *
 * The model runs at the same fabric clock and systolic geometry as
 * HgPCN so that feature computation cancels out of the comparison,
 * as the paper's setup intends. The functional path is real
 * PointNet++ with brute-force KNN — the exact DS workload the
 * Mapping Unit executes.
 */

#ifndef HGPCN_BACKENDS_POINT_ACC_BACKEND_H
#define HGPCN_BACKENDS_POINT_ACC_BACKEND_H

#include "backends/execution_backend.h"
#include "core/inference_engine.h"
#include "sim/sim_config.h"

namespace hgpcn
{

/** PointACC's Mapping Unit + systolic array behind the interface. */
class PointAccBackend : public ModeledBackend
{
  public:
    /**
     * Occupies its own "pointacc" die — no contention with the
     * front end.
     *
     * @param engine_cfg Platform parameters (sim: fabric clock and
     *        systolic geometry, shared with HgPCN so FC cancels out
     *        of the comparison; centroid/seed: functional picks).
     * @param net Deployed network replica (borrowed).
     */
    PointAccBackend(const InferenceEngine::Config &engine_cfg,
                    const PointNet2 &net)
        : ModeledBackend("pointacc", "pointacc", net,
                         DsMethod::BruteKnn, engine_cfg.centroid,
                         engine_cfg.seed),
          cfg(engine_cfg.sim)
    {
    }

    /**
     * Mapping Unit (dsSec) overlapped with systolic FC. @p trace
     * must have been produced with brute-force data structuring
     * (DsMethod::BruteKnn).
     */
    BackendInference time(const ExecutionTrace &trace) const override;

  private:
    SimConfig cfg;
};

} // namespace hgpcn

#endif // HGPCN_BACKENDS_POINT_ACC_BACKEND_H
