/**
 * @file
 * PointNet++ [22] reference models.
 *
 * The paper's backend PCN for all four tasks (Table I):
 * Pointnet++(c) for ModelNet40 classification, Pointnet++(ps) for
 * ShapeNet part segmentation, Pointnet++(s) for S3DIS / KITTI
 * semantic segmentation. Each Set-Abstraction (SA) layer performs the
 * three-step loop of Fig. 2 — central point selection, data
 * structuring (KNN or Ball Query), feature computation (shared MLP +
 * max pool) — and Feature-Propagation (FP) layers interpolate
 * features back for segmentation heads.
 *
 * Weights are seeded-random: every evaluated quantity in the paper is
 * latency, and the layer shapes (which drive the FCU) are identical
 * to a trained network's. Execution is real — outputs are computed,
 * permutation-invariance holds, and the ExecutionTrace records every
 * GEMM and gather for the hardware simulators.
 */

#ifndef HGPCN_NN_POINTNET2_H
#define HGPCN_NN_POINTNET2_H

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nn/layer_trace.h"
#include "nn/mlp.h"
#include "octree/octree.h"

namespace hgpcn
{

/** How SA layers pick their central points. */
enum class CentroidMethod
{
    Random, //!< random picking (the Mesorasi-compatible mode the
            //!< paper uses for the Fig. 14 comparison)
    Fps,    //!< farthest point sampling (standard PointNet++)
};

/** Which data-structuring method SA/FP layers use. */
enum class DsMethod
{
    BruteKnn,  //!< full-scan KNN (CPU/GPU/PointACC/Mesorasi path)
    BruteBq,   //!< full-scan Ball Query
    Veg,       //!< Voxel-Expanded Gathering (HgPCN DSU path)
    VegBq,     //!< VEG-backed Ball Query
    VegStrict, //!< provably exact VEG (ablation)
};

/** @return printable name of a DsMethod. */
const char *toString(DsMethod method);

/** One Set-Abstraction level. */
struct SaLayerSpec
{
    std::size_t npoint; //!< central points; 0 means group-all
    std::size_t k;      //!< neighbors per centroid
    float radius;       //!< ball-query radius (cloud units)
    std::vector<std::size_t> mlp; //!< shared-MLP widths
};

/** One Feature-Propagation level. */
struct FpLayerSpec
{
    std::vector<std::size_t> mlp; //!< unit-MLP widths
};

/** Complete network description. */
struct PointNet2Spec
{
    std::string name;
    std::size_t inputPoints = 0;
    std::size_t inputFeatureDim = 0; //!< extra channels beside xyz
    std::size_t numClasses = 0;
    bool segmentation = false;
    std::vector<SaLayerSpec> sa;
    std::vector<FpLayerSpec> fp; //!< one per non-group-all SA level
    std::vector<std::size_t> head; //!< hidden widths of the head

    /** Pointnet++(c), ModelNet40-class config (1024 points). */
    static PointNet2Spec classification(std::size_t num_classes = 40);

    /** Pointnet++(ps), ShapeNet part segmentation (2048 points). */
    static PointNet2Spec partSegmentation(std::size_t num_parts = 50);

    /** Pointnet++(s), S3DIS semantic segmentation (4096 points). */
    static PointNet2Spec semanticSegmentation(
        std::size_t num_classes = 13);

    /** Pointnet++(s) scaled for KITTI outdoor frames (16384). */
    static PointNet2Spec outdoorSegmentation(
        std::size_t num_classes = 4);

    /**
     * Compact edge-node classifier (256 points, narrow SA fan-out,
     * wide MLPs). Its GEMMs have small row counts (m <= 64), so
     * per-tile systolic fill/drain and the per-layer weight pass
     * dominate solo cost — the regime where cross-sensor
     * micro-batching pays (bench/batching_throughput.cc).
     */
    static PointNet2Spec edgeClassification(
        std::size_t num_classes = 16);
};

class FrameWorkspace;

/** Inference options. */
struct RunOptions
{
    CentroidMethod centroid = CentroidMethod::Random;
    DsMethod ds = DsMethod::BruteKnn;
    std::uint64_t seed = 7;
    /**
     * Pre-built octree over the input cloud (the Pre-processing
     * Engine's tree, reused by the DSU per Section VIII "the VEG
     * method can reuse the built Octree to amortize the overhead").
     * Only consulted for VEG methods at the first SA level; its
     * reordered cloud must be the cloud passed to run().
     */
    const Octree *inputOctree = nullptr;

    /**
     * Reusable scratch arena (core/frame_workspace.h). When null,
     * run() uses a private per-call workspace — same results, plus
     * per-frame allocation. Must not be shared by concurrent runs.
     */
    FrameWorkspace *workspace = nullptr;

    /**
     * Host threads running this frame's levels (>= 1). Each SA/FP
     * level is one parallel region over blocks of centroids (SA) or
     * fine points (FP); a block runs its gather, grouped-row fill,
     * the whole MLP and the pool or interpolation, writes its own
     * output rows, and multiplies them by the next level's delayed
     * layer-1 rows (delayed aggregation, nn/mlp.h). A level uses at most one thread per
     * kMinMacsPerThread of its MLP work (common/parallel_for.h), so
     * small levels stay on the calling thread. Outputs, traces and
     * gather counters are bit-identical at any value.
     */
    int intraOpThreads = 1;

    /**
     * Centroids (SA) or fine points (FP) per block; 0 sizes blocks
     * by work (about 128 MLP rows, at least four blocks per
     * thread). Bit-identical output at any value — a test knob.
     */
    std::size_t blockPoints = 0;

    /**
     * Serve DsMethod::BruteKnn through the exact spatial-hash index
     * (src/knn) instead of the full-scan kernel. Identical neighbor
     * sets and identical modeled workload (the index reports the
     * brute counters it stands in for); false keeps the oracle
     * kernel on the host — tests and A/B checks.
     */
    bool fastKnn = true;
};

/** Inference output. */
struct RunOutput
{
    Tensor logits; //!< [1, classes] or [points, classes]
    std::vector<std::size_t> labels; //!< argmax per row
    ExecutionTrace trace;
};

/**
 * A PointNet++ network with materialised (seeded-random) weights.
 */
class PointNet2
{
  public:
    /**
     * Build a network for @p spec.
     * @param weight_seed Seed for the deterministic weights.
     */
    explicit PointNet2(const PointNet2Spec &spec,
                       std::uint64_t weight_seed = 42);

    /** @return the architecture description. */
    const PointNet2Spec &spec() const { return arch; }

    /**
     * Run inference over @p input (already down-sampled to
     * spec().inputPoints; a differing size is allowed and simply
     * shifts the workload).
     */
    RunOutput run(const PointCloud &input,
                  const RunOptions &opts = {}) const;

    /**
     * Batched inference over several frames sharing one workspace
     * and one parallel region per level, whose blocks come from
     * every frame: each frame's data structuring runs independently
     * (its own Rng seeded opts.seed, its own trace), and every
     * per-frame output — logits, labels, recorded trace — is
     * bit-identical to a solo run() of that frame. opts.inputOctree
     * must be null (batches mix sensors; per-frame trees are built
     * where needed).
     */
    std::vector<RunOutput> runBatch(
        std::span<const PointCloud *const> inputs,
        const RunOptions &opts = {}) const;

  private:
    PointNet2Spec arch;
    std::vector<Mlp> sa_mlps;
    std::vector<Mlp> fp_mlps;
    std::unique_ptr<Mlp> head_mlp;

    /** One resolution level; storage lives in the frame workspace
     * (or the caller) and stays valid for the whole frame. */
    struct Level
    {
        std::span<const Vec3> positions;
        const Tensor *features = nullptr; //!< [points, C]; C may be 0
    };

    /** One frame of a run: its levels, rng and output
     * (pointnet2.cc). */
    struct FrameRun;

    /** run() and runBatch(): every level runs over all frames at
     * once (@p input_octree serves a single frame's level 0). */
    std::vector<RunOutput> runFrames(
        std::span<const PointCloud *const> inputs,
        const RunOptions &opts, const Octree *input_octree) const;

    /** A sampling SA level: per-frame centroid selection (and, for
     * non-VEG methods, the whole gather), then one parallel region
     * over centroid blocks. @p next is the MLP of the level run next
     * when its layer 1 has delayed rows over this level's output
     * (else null); the blocks compute those products. */
    void runSaLevel(std::size_t layer, std::span<FrameRun> frames,
                    const RunOptions &opts, FrameWorkspace &ws,
                    const Mlp *next) const;

    /** A group-all SA level: one neighborhood per frame, its MLP
     * rows split across threads. */
    void runGroupAll(std::size_t layer, std::span<FrameRun> frames,
                     const RunOptions &opts, FrameWorkspace &ws,
                     const Mlp *next) const;

    /** An FP level: one parallel region over fine-point blocks;
     * level 0 runs the head in the same blocks. */
    void runFpLevel(std::size_t layer, std::span<FrameRun> frames,
                    const RunOptions &opts, FrameWorkspace &ws,
                    const Mlp *next) const;

    /** @return the MLP whose delayed layer-1 rows read the output of
     * run-order step @p step (SA levels, then FP levels top-down), or
     * null. */
    const Mlp *delayedConsumer(std::size_t step) const;

    /** Classification head over each frame's last level. */
    void runHead(std::span<FrameRun> frames, const RunOptions &opts,
                 FrameWorkspace &ws) const;
};

} // namespace hgpcn

#endif // HGPCN_NN_POINTNET2_H
