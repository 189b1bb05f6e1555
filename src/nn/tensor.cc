#include "nn/tensor.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "nn/gemm_kernel.h"

namespace hgpcn
{

void
Tensor::randomize(Rng &rng, float scale)
{
    for (auto &v : store)
        v = rng.uniform(-scale, scale);
}

void
Tensor::reluInPlace()
{
    for (auto &v : store)
        v = v > 0.0f ? v : 0.0f;
}

/*
 * The GEMM kernel: one register-tiled micro-kernel. A tile of
 * TileRows x kPanelCols outputs lives in vector registers for the
 * whole k loop — each step broadcasts one a[i][k] per row against a
 * kPanelCols-wide row of a packed panel of b — and is stored once,
 * with the bias + ReLU epilogue applied on the way out. Rows left
 * over at the end of a range run a shorter tile; columns past cols()
 * are zero in the panel and never stored. Each output element is
 * still acc = 0, then acc += a[i][k] * b[k][j] for ascending k with a
 * separate multiply and add (-ffp-contract=off pins that, see
 * src/CMakeLists.txt), so results are bit-identical to the naive
 * triple loop: vectors run across independent outputs, never
 * across k.
 *
 * One source, compiled twice: 8-wide at AVX2 and 4-wide at the
 * build's baseline ISA, each with a tile that fits its 16 vector
 * registers. (A single 8-wide source compiled for both, as
 * target_clones would, emulates each 8-wide vector through memory on
 * the baseline and ran ~9x slower there than the scalar loop.)
 */
namespace
{

constexpr std::size_t kPanelCols = PackedPanels::kPanelCols;

typedef float Vec8 __attribute__((vector_size(8 * sizeof(float))));
typedef float Vec4 __attribute__((vector_size(4 * sizeof(float))));

// Vectors pass by reference: by value, a Vec8 would change the ABI
// between the AVX2 and baseline code (-Wpsabi).
template <class V>
[[gnu::always_inline]] inline void
load(V &v, const float *p)
{
    std::memcpy(&v, p, sizeof v);
}

template <class V>
[[gnu::always_inline]] inline void
store(float *p, const V &v)
{
    std::memcpy(p, &v, sizeof v);
}

[[gnu::always_inline]] inline float
finish(float v, const float *bias, std::size_t j, bool relu)
{
    if (bias)
        v = v + bias[j];
    return relu ? (v > 0.0f ? v : 0.0f) : v;
}

template <class V>
[[gnu::always_inline]] inline void
finish(V &v, const float *bias, std::size_t j, bool relu)
{
    if (bias) {
        V b;
        load(b, bias + j);
        v = v + b;
    }
    if (relu) {
        const V zero = {};
        v = v > zero ? v : zero;
    }
}

/** One R x kPanelCols tile: rows [0, R) of a (stride kk) times
 * @p panel, stored to the first @p width columns of rows [0, R) of
 * out (stride n). */
template <class V, std::size_t R>
[[gnu::always_inline]] inline void
gemmTile(const float *a, const float *panel, float *out, std::size_t kk,
         std::size_t n, std::size_t width, const float *bias, bool relu)
{
    constexpr std::size_t lanes = sizeof(V) / sizeof(float);
    constexpr std::size_t per_row = kPanelCols / lanes;
    V acc[R][per_row] = {};
    for (std::size_t k = 0; k < kk; ++k) {
        V b[per_row];
#pragma GCC unroll 4
        for (std::size_t v = 0; v < per_row; ++v)
            load(b[v], panel + k * kPanelCols + v * lanes);
#pragma GCC unroll 6
        for (std::size_t r = 0; r < R; ++r) {
            const float s = a[r * kk + k];
#pragma GCC unroll 4
            for (std::size_t v = 0; v < per_row; ++v)
                acc[r][v] += s * b[v];
        }
    }
#pragma GCC unroll 6
    for (std::size_t r = 0; r < R; ++r) {
        float *o = out + r * n;
        if (width == kPanelCols) {
#pragma GCC unroll 4
            for (std::size_t v = 0; v < per_row; ++v) {
                finish(acc[r][v], bias, v * lanes, relu);
                store(o + v * lanes, acc[r][v]);
            }
        } else {
            float tmp[kPanelCols];
#pragma GCC unroll 4
            for (std::size_t v = 0; v < per_row; ++v)
                store(tmp + v * lanes, acc[r][v]);
            for (std::size_t j = 0; j < width; ++j)
                o[j] = finish(tmp[j], bias, j, relu);
        }
    }
}

/** gemmTile() over @p rows rows, 1 <= rows <= R. */
template <class V, std::size_t R>
[[gnu::always_inline]] inline void
gemmTileUpTo(std::size_t rows, const float *a, const float *panel,
             float *out, std::size_t kk, std::size_t n,
             std::size_t width, const float *bias, bool relu)
{
    if constexpr (R > 1) {
        if (rows < R) {
            gemmTileUpTo<V, R - 1>(rows, a, panel, out, kk, n, width,
                                   bias, relu);
            return;
        }
    }
    gemmTile<V, R>(a, panel, out, kk, n, width, bias, relu);
}

/** Rows [0, rows) of a (stride kk) times the packed [kk, n] panels
 * into out (stride n). */
template <class V, std::size_t TileRows>
[[gnu::always_inline]] inline void
gemmRows(const float *a, const float *panels, float *out,
         std::size_t rows, std::size_t kk, std::size_t n,
         const float *bias, bool relu)
{
    for (std::size_t i = 0; i < rows; i += TileRows) {
        const std::size_t tile_rows = std::min(TileRows, rows - i);
        for (std::size_t j = 0; j < n; j += kPanelCols)
            gemmTileUpTo<V, TileRows>(
                tile_rows, a + i * kk, panels + j * kk, out + i * n + j,
                kk, n, std::min(kPanelCols, n - j),
                bias ? bias + j : nullptr, relu);
    }
}

using GemmRowsFn = void(const float *, const float *, float *,
                        std::size_t, std::size_t, std::size_t,
                        const float *, bool);

/** 6 x 16 tiles of 8-wide vectors: 12 of the 16 ymm registers. */
[[gnu::target("avx2")]] void
gemmRowsAvx2(const float *a, const float *panels, float *out,
             std::size_t rows, std::size_t kk, std::size_t n,
             const float *bias, bool relu)
{
    gemmRows<Vec8, 6>(a, panels, out, rows, kk, n, bias, relu);
}

/** 3 x 16 tiles of 4-wide vectors: 12 of the 16 xmm registers. */
void
gemmRowsBaseline(const float *a, const float *panels, float *out,
                 std::size_t rows, std::size_t kk, std::size_t n,
                 const float *bias, bool relu)
{
    gemmRows<Vec4, 3>(a, panels, out, rows, kk, n, bias, relu);
}

/** The variant this host runs, chosen once. */
GemmRowsFn *
hostGemmRows()
{
    static GemmRowsFn *const fn =
        gemm_kernel::hostRuns(gemm_kernel::Isa::Avx2) ? gemmRowsAvx2
                                                      : gemmRowsBaseline;
    return fn;
}

void
runGemmRows(GemmRowsFn *fn, const Tensor &a, const PackedPanels &b,
            Tensor &out, std::size_t row_begin, std::size_t row_end,
            GemmEpilogue epilogue)
{
    HGPCN_ASSERT(a.cols() == b.rows(), "matmul shape mismatch: [",
                 a.rows(), ",", a.cols(), "] x [", b.rows(), ",",
                 b.cols(), "]");
    HGPCN_ASSERT(out.rows() == a.rows() && out.cols() == b.cols(),
                 "matmul output shape mismatch");
    HGPCN_ASSERT(row_begin <= row_end && row_end <= a.rows(),
                 "matmul row range out of bounds");
    if (row_begin == row_end || b.cols() == 0)
        return;
    fn(a.row(row_begin), b.data(), out.row(row_begin),
       row_end - row_begin, a.cols(), b.cols(), epilogue.bias,
       epilogue.relu);
}

} // namespace

PackedPanels::PackedPanels(const Tensor &b)
    : n_rows(b.rows()), n_cols(b.cols()),
      store((b.cols() + kPanelCols - 1) / kPanelCols * kPanelCols *
                b.rows(),
            0.0f)
{
    for (std::size_t j = 0; j < n_cols; j += kPanelCols) {
        float *panel = store.data() + j * n_rows;
        const std::size_t width = std::min(kPanelCols, n_cols - j);
        for (std::size_t k = 0; k < n_rows; ++k)
            std::copy(b.row(k) + j, b.row(k) + j + width,
                      panel + k * kPanelCols);
    }
}

void
Tensor::matmulRowsInto(const Tensor &a, const PackedPanels &b,
                       Tensor &out, std::size_t row_begin,
                       std::size_t row_end, GemmEpilogue epilogue)
{
    runGemmRows(hostGemmRows(), a, b, out, row_begin, row_end,
                epilogue);
}

void
Tensor::matmulRowsInto(const Tensor &a, const Tensor &b, Tensor &out,
                       std::size_t row_begin, std::size_t row_end)
{
    matmulRowsInto(a, PackedPanels(b), out, row_begin, row_end);
}

void
Tensor::matmulInto(const Tensor &a, const Tensor &b, Tensor &out)
{
    out.resizeUninit(a.rows(), b.cols());
    matmulRowsInto(a, b, out, 0, a.rows());
}

Tensor
Tensor::matmul(const Tensor &a, const Tensor &b)
{
    Tensor out(a.rows(), b.cols());
    matmulRowsInto(a, b, out, 0, a.rows());
    return out;
}

void
Tensor::addRowBias(const std::vector<float> &bias)
{
    HGPCN_ASSERT(bias.size() == n_cols, "bias width mismatch");
    for (std::size_t r = 0; r < n_rows; ++r) {
        float *row_ptr = row(r);
        for (std::size_t c = 0; c < n_cols; ++c)
            row_ptr[c] += bias[c];
    }
}

namespace gemm_kernel
{

bool
hostRuns(Isa isa)
{
    __builtin_cpu_init();
    return isa == Isa::Baseline || __builtin_cpu_supports("avx2");
}

void
matmulRowsInto(Isa isa, const Tensor &a, const PackedPanels &b,
               Tensor &out, std::size_t row_begin, std::size_t row_end,
               GemmEpilogue epilogue)
{
    HGPCN_ASSERT(hostRuns(isa), "host cannot run this GEMM variant");
    runGemmRows(isa == Isa::Avx2 ? gemmRowsAvx2 : gemmRowsBaseline, a, b,
                out, row_begin, row_end, epilogue);
}

} // namespace gemm_kernel

Tensor
Tensor::maxPoolGroups(std::size_t group) const
{
    Tensor out;
    maxPoolGroupsInto(group, out);
    return out;
}

void
Tensor::maxPoolGroupsInto(std::size_t group, Tensor &out) const
{
    HGPCN_ASSERT(group >= 1 && n_rows % group == 0,
                 "rows ", n_rows, " not a multiple of group ", group);
    const std::size_t out_rows = n_rows / group;
    out.resizeUninit(out_rows, n_cols);
    for (std::size_t g = 0; g < out_rows; ++g) {
        float *__restrict dst = out.row(g);
        const float *__restrict first = row(g * group);
        std::copy(first, first + n_cols, dst);
        for (std::size_t i = 1; i < group; ++i) {
            const float *__restrict src = row(g * group + i);
            for (std::size_t c = 0; c < n_cols; ++c)
                dst[c] = std::max(dst[c], src[c]);
        }
    }
}

void
Tensor::maxPoolGroupsRowsInto(std::size_t group, std::size_t src_begin,
                              std::size_t src_end, Tensor &out) const
{
    HGPCN_ASSERT(src_begin <= src_end && src_end <= n_rows,
                 "pool row range out of bounds");
    const std::size_t span = src_end - src_begin;
    HGPCN_ASSERT(group >= 1 && span % group == 0,
                 "rows ", span, " not a multiple of group ", group);
    const std::size_t out_rows = span / group;
    out.resizeUninit(out_rows, n_cols);
    for (std::size_t g = 0; g < out_rows; ++g) {
        float *__restrict dst = out.row(g);
        const float *__restrict first = row(src_begin + g * group);
        std::copy(first, first + n_cols, dst);
        for (std::size_t i = 1; i < group; ++i) {
            const float *__restrict src =
                row(src_begin + g * group + i);
            for (std::size_t c = 0; c < n_cols; ++c)
                dst[c] = std::max(dst[c], src[c]);
        }
    }
}

void
Tensor::copyRowsInto(std::size_t src_begin, std::size_t src_end,
                     Tensor &out) const
{
    HGPCN_ASSERT(src_begin <= src_end && src_end <= n_rows,
                 "copy row range out of bounds");
    out.resizeUninit(src_end - src_begin, n_cols);
    if (src_end > src_begin)
        std::copy(row(src_begin), row(src_begin) + (src_end - src_begin) * n_cols,
                  out.row(0));
}

std::size_t
Tensor::argmaxRow(std::size_t r) const
{
    HGPCN_ASSERT(n_cols > 0, "empty tensor");
    const float *row_ptr = row(r);
    return static_cast<std::size_t>(
        std::max_element(row_ptr, row_ptr + n_cols) - row_ptr);
}

} // namespace hgpcn
