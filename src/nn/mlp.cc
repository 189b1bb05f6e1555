#include "nn/mlp.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "core/frame_workspace.h"

namespace hgpcn
{

Linear::Linear(std::size_t in, std::size_t out, Rng &rng,
               RowRange delayed_rows)
    : bias(out, 0.0f)
{
    const float scale =
        std::sqrt(2.0f / static_cast<float>(in > 0 ? in : 1));
    Tensor w(in, out);
    w.randomize(rng, scale);
    const auto [d0, d1] = delayed_rows;
    HGPCN_ASSERT(d0 <= d1 && d1 <= in && (d0 == d1 || d0 == 0 || d1 == in),
                 "delayed rows [", d0, ", ", d1,
                 ") must touch one end of [0, ", in, ")");
    if (d0 == d1) {
        weight = PackedPanels(w);
    } else {
        delayed = PackedPanels(w, d0, d1);
        weight = d0 == 0 ? PackedPanels(w, d1, in) : PackedPanels(w, 0, d0);
    }
    for (auto &b : bias)
        b = rng.uniform(-0.01f, 0.01f);
}

void
Linear::forwardIntoUntraced(const Tensor &x, Tensor &out, bool relu,
                            int threads, bool accumulate) const
{
    out.resizeUninit(x.rows(), weight.cols());
    const std::uint64_t macs =
        static_cast<std::uint64_t>(x.rows()) * x.cols() *
        weight.cols();
    parallelFor(x.rows(), gatedThreads(macs, threads),
                [&](std::size_t begin, std::size_t end) {
                    Tensor::matmulRowsInto(x, weight, out, begin, end,
                                           {bias.data(), relu, accumulate});
                });
}

Mlp::Mlp(std::size_t in, const std::vector<std::size_t> &widths, Rng &rng,
         bool final_relu, RowRange delayed)
    : out_width(widths.empty() ? in : widths.back()),
      relu_last(final_relu)
{
    HGPCN_ASSERT(!widths.empty(), "MLP needs at least one layer");
    std::size_t cur = in;
    for (std::size_t w : widths) {
        layers.emplace_back(cur, w, rng, layers.empty() ? delayed
                                                        : RowRange{});
        cur = w;
    }
}

void
Mlp::forwardDelayed(const Tensor &x, Tensor &out, int threads) const
{
    const PackedPanels &w = layers[0].delayed;
    out.resizeUninit(x.rows(), w.cols());
    const std::uint64_t macs =
        static_cast<std::uint64_t>(x.rows()) * w.rows() * w.cols();
    parallelFor(x.rows(), gatedThreads(macs, threads),
                [&](std::size_t begin, std::size_t end) {
                    forwardDelayedRows(x, out, begin, end);
                });
}

void
Mlp::forwardDelayedRows(const Tensor &x, Tensor &out, std::size_t begin,
                        std::size_t end) const
{
    HGPCN_ASSERT(hasDelayed(), "MLP has no delayed rows");
    Tensor::matmulRowsInto(x, layers[0].delayed, out, begin, end);
}

std::uint64_t
Mlp::macsPerRow() const
{
    std::uint64_t macs = 0;
    for (const Linear &l : layers)
        macs += static_cast<std::uint64_t>(l.inputs()) * l.weight.cols();
    return macs;
}

std::size_t
Mlp::maxWidth() const
{
    std::size_t w = 0;
    for (const Linear &l : layers)
        w = std::max(w, l.weight.cols());
    return w;
}

const Tensor &
Mlp::forwardRows(const Tensor &x, Tensor &ping, Tensor &pong) const
{
    const Tensor *cur = &x;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        Tensor &dst = i % 2 == 0 ? ping : pong;
        const bool relu = i + 1 < layers.size() || relu_last;
        layers[i].forwardIntoUntraced(*cur, dst, relu, /*threads=*/1,
                                      /*accumulate=*/i == 0 &&
                                          hasDelayed());
        cur = &dst;
    }
    return *cur;
}

void
Mlp::recordGemms(std::size_t rows, const std::string &name_prefix,
                 ExecutionTrace &trace) const
{
    for (std::size_t i = 0; i < layers.size(); ++i)
        trace.gemms.push_back(GemmOp{
            name_prefix + ".fc" + std::to_string(i), rows,
            layers[i].inputs(), layers[i].weight.cols()});
}

const Tensor &
Mlp::forwardArena(const Tensor &x, const std::string &name_prefix,
                  ExecutionTrace &trace, FrameWorkspace &ws,
                  int threads) const
{
    const std::size_t rows[] = {x.rows()};
    ExecutionTrace *const traces[] = {&trace};
    return forwardBatchArena(x, rows, traces, name_prefix, ws, threads);
}

const Tensor &
Mlp::forwardBatchArena(const Tensor &stacked,
                       std::span<const std::size_t> frame_rows,
                       std::span<ExecutionTrace *const> traces,
                       const std::string &name_prefix,
                       FrameWorkspace &ws, int threads) const
{
    HGPCN_ASSERT(frame_rows.size() == traces.size(),
                 "batched MLP: rows/traces size mismatch");
    std::size_t total = 0;
    for (std::size_t r : frame_rows)
        total += r;
    HGPCN_ASSERT(total == stacked.rows(),
                 "batched MLP: frame rows ", total,
                 " do not cover stacked tensor of ", stacked.rows());
    const Tensor *cur = &stacked;
    Tensor *dst = nullptr;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        dst = &ws.tensor(cur->rows(), layers[i].weight.cols());
        const bool relu = i + 1 < layers.size() || relu_last;
        layers[i].forwardIntoUntraced(*cur, *dst, relu, threads);
        cur = dst;
    }
    for (std::size_t f = 0; f < traces.size(); ++f)
        recordGemms(frame_rows[f], name_prefix, *traces[f]);
    return *dst;
}

} // namespace hgpcn
