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
 * traffic once warm) and rows may be split across intra-op threads,
 * bit-identical to a single-thread run, since rows are independent
 * and each element keeps its ascending-k accumulation order.
 *
 * Delayed aggregation (Mesorasi): a shared MLP's first layer is
 * linear, so the part of it that reads per-point features can run
 * once per point before grouping instead of once per grouped row.
 * An Mlp built with delayed input rows keeps layer 1's weight as two
 * packed panels: the delayed rows, applied by forwardDelayed() once
 * per level point, and the direct rows, applied per grouped row by
 * forwardRows() on top of the gathered delayed products. The trace
 * still records the spec's full layer-1 GEMM (recordGemms()), so the
 * modeled FCU is charged the paper's dataflow.
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

/** Input rows [begin, end) of a layer; empty when begin == end. */
struct RowRange
{
    std::size_t begin = 0;
    std::size_t end = 0;
};

/** One fully-connected layer with bias. */
struct Linear
{
    PackedPanels weight;  //!< direct input rows, packed for the kernel
    PackedPanels delayed; //!< delayed input rows; empty if none
    std::vector<float> bias;

    /**
     * Create with He-scaled random weights [in, out]. Input rows in
     * @p delayed_rows, which must touch one end of [0, in), go to
     * `delayed` and the others to `weight`, so no row is held twice.
     */
    Linear(std::size_t in, std::size_t out, Rng &rng,
           RowRange delayed_rows = {});

    /** @return the spec's input width: direct plus delayed rows. */
    std::size_t inputs() const { return weight.rows() + delayed.rows(); }

    /** @return multiply-accumulates forwardIntoUntraced() runs per
     * input row (direct rows only). */
    std::uint64_t
    macsPerRow() const
    {
        return static_cast<std::uint64_t>(weight.rows()) * weight.cols();
    }

    /**
     * out = x * W + b (+ ReLU when @p relu), rows split over
     * @p threads, recording nothing: the batch-stacked path records
     * per-frame GemmOps itself. With @p accumulate, @p out already
     * has x's rows and holds an addend that each element adds before
     * bias and ReLU.
     */
    void forwardIntoUntraced(const Tensor &x, Tensor &out, bool relu,
                             int threads, bool accumulate = false) const;
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
     * @param delayed Layer-1 input rows run once per point by
     *        forwardDelayed() (delayed aggregation); empty = none.
     *        Weights are drawn as without a split.
     */
    Mlp(std::size_t in, const std::vector<std::size_t> &widths, Rng &rng,
        bool final_relu = true, RowRange delayed = {});

    /**
     * Hot-path forward, GEMMs recorded into @p trace: activations
     * come from @p ws's bump arena (valid until its next
     * beginFrame()), rows split across @p threads. This and
     * forwardBatchArena() run whole input rows: MLPs without delayed
     * rows only (group-all levels, the head).
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

    /**
     * Untraced single-thread forward of one block of rows through
     * every layer, ping-ponging between @p ping and @p pong (their
     * capacity is the caller's: a warmed pair never allocates).
     * @return whichever of the two holds the output. Values are
     * bit-identical to the same rows of forwardArena().
     *
     * With delayed rows, @p x holds only each row's direct inputs
     * and @p ping, [x.rows(), layer-1 width], holds on entry each
     * row's aggregate of forwardDelayed() products; layer 1 is then
     * relu((x * W_direct + ping) + b), each term rounded separately.
     */
    const Tensor &forwardRows(const Tensor &x, Tensor &ping,
                              Tensor &pong) const;

    /**
     * Layer 1's delayed rows applied once per point: out = x *
     * W_delayed over all of @p x's rows (no bias, no ReLU), rows split
     * over up to @p threads gated threads. Needs delayed rows.
     */
    void forwardDelayed(const Tensor &x, Tensor &out, int threads) const;

    /**
     * forwardDelayed() of rows [begin, end) only, into @p out, which
     * is already [x.rows(), firstWidth()]: a level's blocks run this
     * over the rows they have just written, for the next level.
     */
    void forwardDelayedRows(const Tensor &x, Tensor &out, std::size_t begin,
                            std::size_t end) const;

    /** @return whether layer 1 has delayed rows. */
    bool hasDelayed() const { return layers[0].delayed.rows() > 0; }

    /** @return layer 1's output width. */
    std::size_t firstWidth() const { return layers[0].weight.cols(); }

    /** Record this MLP's GEMMs over @p rows rows into @p trace —
     * what forwardArena() records for a @p rows-row input. Layer 1
     * is recorded with its full spec width, delayed rows included. */
    void recordGemms(std::size_t rows, const std::string &name_prefix,
                     ExecutionTrace &trace) const;

    /** @return multiply-accumulates the host runs per input row,
     * all layers: layer 1's direct rows only, since its delayed rows
     * run once per point in forwardDelayed(). The spec's count, which
     * recordGemms() traces, is higher by the delayed rows. */
    std::uint64_t macsPerRow() const;

    /** @return multiply-accumulates forwardDelayed() runs per row
     * (0 without delayed rows). */
    std::uint64_t delayedMacsPerRow() const;

    /** @return the most multiply-accumulates one layer runs per
     * input row: forwardArena()'s largest per-layer region. */
    std::uint64_t widestLayerMacsPerRow() const;

    /** @return widest layer output. */
    std::size_t maxWidth() const;

    /** @return output feature width. */
    std::size_t outWidth() const { return out_width; }

  private:
    std::vector<Linear> layers;
    std::size_t out_width;
    bool relu_last;
};

} // namespace hgpcn

#endif // HGPCN_NN_MLP_H
