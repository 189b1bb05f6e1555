#include "nn/mlp.h"

#include <cmath>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "core/frame_workspace.h"

namespace hgpcn
{

namespace
{

/** Only fan work out when a layer is chunky enough to amortize the
 * per-call thread spawn (~50 us each). */
constexpr std::uint64_t kMinMacsPerThread = 2'000'000;

int
effectiveThreads(std::uint64_t macs, int threads)
{
    if (threads <= 1)
        return 1;
    const std::uint64_t cap = macs / kMinMacsPerThread;
    if (cap <= 1)
        return 1;
    return cap < static_cast<std::uint64_t>(threads)
               ? static_cast<int>(cap)
               : threads;
}

} // namespace

Linear::Linear(std::size_t in, std::size_t out, Rng &rng)
    : bias(out, 0.0f)
{
    const float scale =
        std::sqrt(2.0f / static_cast<float>(in > 0 ? in : 1));
    Tensor w(in, out);
    w.randomize(rng, scale);
    weight = PackedPanels(w);
    for (auto &b : bias)
        b = rng.uniform(-0.01f, 0.01f);
}

Tensor
Linear::forward(const Tensor &x, const std::string &layer_name,
                ExecutionTrace &trace) const
{
    Tensor out;
    forwardInto(x, out, /*relu=*/false, /*threads=*/1, layer_name,
                trace);
    return out;
}

void
Linear::forwardInto(const Tensor &x, Tensor &out, bool relu,
                    int threads, const std::string &layer_name,
                    ExecutionTrace &trace) const
{
    forwardIntoUntraced(x, out, relu, threads);
    trace.gemms.push_back(
        GemmOp{layer_name, x.rows(), x.cols(), weight.cols()});
}

void
Linear::forwardIntoUntraced(const Tensor &x, Tensor &out, bool relu,
                            int threads) const
{
    out.resizeUninit(x.rows(), weight.cols());
    const std::uint64_t macs =
        static_cast<std::uint64_t>(x.rows()) * x.cols() *
        weight.cols();
    const int t = effectiveThreads(macs, threads);
    parallelFor(x.rows(), t,
                [&](std::size_t begin, std::size_t end) {
                    Tensor::matmulRowsInto(x, weight, out, begin, end,
                                           {bias.data(), relu});
                });
}

Mlp::Mlp(std::size_t in, const std::vector<std::size_t> &widths, Rng &rng,
         bool final_relu)
    : out_width(widths.empty() ? in : widths.back()),
      relu_last(final_relu)
{
    HGPCN_ASSERT(!widths.empty(), "MLP needs at least one layer");
    std::size_t cur = in;
    for (std::size_t w : widths) {
        layers.emplace_back(cur, w, rng);
        cur = w;
    }
}

Tensor
Mlp::forward(const Tensor &x, const std::string &name_prefix,
             ExecutionTrace &trace) const
{
    Tensor bufs[2];
    const Tensor *cur = &x;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        Tensor &dst = bufs[i % 2];
        const bool relu = i + 1 < layers.size() || relu_last;
        layers[i].forwardInto(*cur, dst, relu, /*threads=*/1,
                              name_prefix + ".fc" + std::to_string(i),
                              trace);
        cur = &dst;
    }
    return std::move(bufs[(layers.size() - 1) % 2]);
}

const Tensor &
Mlp::forwardArena(const Tensor &x, const std::string &name_prefix,
                  ExecutionTrace &trace, FrameWorkspace &ws,
                  int threads) const
{
    const Tensor *cur = &x;
    Tensor *dst = nullptr;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        dst = &ws.tensor(cur->rows(), layers[i].weight.cols());
        const bool relu = i + 1 < layers.size() || relu_last;
        layers[i].forwardInto(*cur, *dst, relu, threads,
                              name_prefix + ".fc" + std::to_string(i),
                              trace);
        cur = dst;
    }
    return *dst;
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
        const std::string name =
            name_prefix + ".fc" + std::to_string(i);
        for (std::size_t f = 0; f < traces.size(); ++f)
            traces[f]->gemms.push_back(GemmOp{
                name, frame_rows[f], cur->cols(),
                layers[i].weight.cols()});
        cur = dst;
    }
    return *dst;
}

} // namespace hgpcn
