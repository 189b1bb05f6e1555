/**
 * @file
 * HgPCN Inference Engine (paper Section VI).
 *
 * DSU + FCU on the FPGA: the Data Structuring Unit serves every
 * neighbor-gathering request of the PCN through Voxel-Expanded
 * Gathering, buffering input feature maps for the Feature
 * Computation Unit (the systolic DLA). The functional result comes
 * from the real PointNet++ execution with VEG data structuring; the
 * latency comes from the DSU pipeline and FCU cycle models, which
 * overlap through the BF-stage buffer.
 */

#ifndef HGPCN_CORE_INFERENCE_ENGINE_H
#define HGPCN_CORE_INFERENCE_ENGINE_H

#include "nn/pointnet2.h"
#include "sim/dsu_pipeline.h"
#include "sim/fcu_dla.h"
#include "sim/sim_config.h"

namespace hgpcn
{

class FrameWorkspace;

/** Result of one inference pass on the Inference Engine. */
struct InferenceResult
{
    /** Network outputs (logits, labels) and the execution trace. */
    RunOutput output;

    /** DSU latency, accumulated over every gather of the network. */
    DsuPipelineResult dsu;

    /** FCU latency over every GEMM of the network. */
    FcuResult fcu;

    /** @return end-to-end seconds; DSU and FCU overlap through the
     * input-feature-map buffer, so the slower unit dominates. */
    double
    totalSec() const
    {
        const double dsu_sec = dsu.pipelinedSec;
        const double fcu_sec = fcu.totalSec();
        return dsu_sec > fcu_sec ? dsu_sec : fcu_sec;
    }
};

/** The FPGA inference back end. */
class InferenceEngine
{
  public:
    /** Engine parameters. */
    struct Config
    {
        /** Platform timing parameters. */
        SimConfig sim = SimConfig::defaults();
        /** Data structuring flavor (paper default: exact VEG). */
        DsMethod ds = DsMethod::Veg;
        /** Central-point selection (random matches the Fig. 14
         * comparison protocol). */
        CentroidMethod centroid = CentroidMethod::Random;
        /** Inference seed (centroid picks). */
        std::uint64_t seed = 7;
    };

    /** Create with default configuration. */
    InferenceEngine() : InferenceEngine(Config{}) {}

    explicit InferenceEngine(const Config &config) : cfg(config) {}

    /**
     * Run @p model over @p input on the engine.
     *
     * @param model The PCN to execute.
     * @param input Down-sampled input cloud (K points).
     * @param input_octree Optional pre-processing octree to reuse
     *        for the first SA level's VEG (input must be its
     *        reordered cloud).
     * @param workspace Optional reusable scratch arena
     *        (core/frame_workspace.h) — zero-alloc steady state.
     * @param intra_op_threads Host threads splitting MLP rows
     *        (>= 1; bit-identical output at any value).
     */
    InferenceResult run(const PointNet2 &model, const PointCloud &input,
                        const Octree *input_octree = nullptr,
                        FrameWorkspace *workspace = nullptr,
                        int intra_op_threads = 1) const;

    /**
     * The DSU/FCU timing of one recorded trace — the cycle-model
     * half of run(); the result's output is left empty. The batched
     * backend path executes several frames functionally in one pass
     * (PointNet2::runBatch) and then times each frame's trace here,
     * so per-frame modeled numbers match solo run() exactly.
     */
    InferenceResult time(const ExecutionTrace &trace) const;

    /** time() over @p output's trace, with @p output attached. */
    InferenceResult timeOutput(RunOutput output) const;

    /** @return configured parameters. */
    const Config &config() const { return cfg; }

  private:
    Config cfg;
};

} // namespace hgpcn

#endif // HGPCN_CORE_INFERENCE_ENGINE_H
