/**
 * @file
 * Shared MLP blocks (per-point 1x1 convolutions).
 *
 * PointNet++ applies the same small MLP to every point of every
 * gathered neighborhood; on hardware this is one batched GEMM per
 * layer, which is what the trace records.
 *
 * The host execution path is the register-tiled GEMM kernel of
 * nn/tensor.cc, against weights packed into its panel layout once at
 * construction, with bias + ReLU fused into the tile's store.
 * forwardArena() is the hot-path entry: activations
 * ping-pong between FrameWorkspace arena tensors (no per-frame heap
 * traffic once warm) and rows may be split across intra-op threads —
 * both bit-identical to the plain forward(), since rows are
 * independent and each element keeps its ascending-k accumulation
 * order.
 */

#ifndef HGPCN_NN_MLP_H
#define HGPCN_NN_MLP_H

#include <span>
#include <string>
#include <vector>

#include "nn/layer_trace.h"
#include "nn/tensor.h"

namespace hgpcn
{

class FrameWorkspace;

/** One fully-connected layer with bias. */
struct Linear
{
    PackedPanels weight; //!< [in, out], packed for the GEMM kernel
    std::vector<float> bias;

    /** Create with He-scaled random weights. */
    Linear(std::size_t in, std::size_t out, Rng &rng);

    /** @return x * W + b, recording the GEMM into @p trace. */
    Tensor forward(const Tensor &x, const std::string &layer_name,
                   ExecutionTrace &trace) const;

    /**
     * out = x * W + b (+ ReLU when @p relu) into a preallocated
     * tensor, rows split over @p threads. Records the GEMM.
     */
    void forwardInto(const Tensor &x, Tensor &out, bool relu,
                     int threads, const std::string &layer_name,
                     ExecutionTrace &trace) const;

    /**
     * forwardInto() without the trace record — the compute core.
     * The batch-stacked path runs this once over a tall tensor and
     * records per-frame GemmOps itself.
     */
    void forwardIntoUntraced(const Tensor &x, Tensor &out, bool relu,
                             int threads) const;
};

/**
 * A stack of Linear+ReLU layers (ReLU omitted after the final layer
 * when @p final_relu is false).
 */
class Mlp
{
  public:
    /**
     * @param in Input feature width.
     * @param widths Output width of each layer.
     * @param rng Weight initialisation source.
     * @param final_relu Apply ReLU after the last layer too.
     */
    Mlp(std::size_t in, const std::vector<std::size_t> &widths, Rng &rng,
        bool final_relu = true);

    /** @return network output; GEMMs recorded into @p trace. */
    Tensor forward(const Tensor &x, const std::string &name_prefix,
                   ExecutionTrace &trace) const;

    /**
     * Hot-path forward: activations come from @p ws's bump arena
     * and rows are split across @p threads. The returned tensor
     * lives in the arena — valid until the workspace's next
     * beginFrame(). Output values are bit-identical to forward().
     */
    const Tensor &forwardArena(const Tensor &x,
                               const std::string &name_prefix,
                               ExecutionTrace &trace,
                               FrameWorkspace &ws, int threads) const;

    /**
     * Batched forwardArena(): @p stacked holds several frames'
     * rows concatenated (frame f owns frame_rows[f] rows, in batch
     * order). Each layer runs ONCE over the tall tensor — one
     * weight pass serves the whole batch — and the layer's GEMM is
     * recorded into every frame's trace with that frame's own row
     * count, so modeled per-frame numbers are unchanged by
     * construction. Row independence + ascending-k accumulation
     * keep each frame's rows bit-identical to a solo
     * forwardArena() call on that frame alone.
     */
    const Tensor &forwardBatchArena(
        const Tensor &stacked, std::span<const std::size_t> frame_rows,
        std::span<ExecutionTrace *const> traces,
        const std::string &name_prefix, FrameWorkspace &ws,
        int threads) const;

    /** @return output feature width. */
    std::size_t outWidth() const { return out_width; }

  private:
    std::vector<Linear> layers;
    std::size_t out_width;
    bool relu_last;
};

} // namespace hgpcn

#endif // HGPCN_NN_MLP_H
