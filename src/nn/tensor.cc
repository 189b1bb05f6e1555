#include "nn/tensor.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "nn/gemm_kernel.h"

/** fmaf() for the GEMM's baseline variant, called through the GOT
 * rather than the PLT: a PLT entry would grow .plt, which the linker
 * places ahead of every program's .text, and so shift e2e_bench's
 * speed probe (docs/PERFORMANCE.md). */
extern "C" float gotFmaf(float, float, float) noexcept __asm__("fmaf")
    __attribute__((noplt));

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
 * acc = 0, then acc = fma(a[i][k], b[k][j], acc) for ascending k: one
 * fused multiply-add per term, rounded once, as the FCU's MAC array
 * accumulates. The fusion is written out (fmaLanes()), not left to
 * the compiler, which -ffp-contract=off keeps from fusing anything
 * else (src/CMakeLists.txt). Vectors run across independent outputs,
 * never across k, so results are bit-identical to the scalar loop
 * over std::fma.
 *
 * One source, compiled twice: 8-wide at AVX2 + FMA and 4-wide at the
 * build's baseline ISA, each with a tile that fits its 16 vector
 * registers. std::fma is correctly rounded, so both give the same
 * bits; without FMA instructions the baseline calls fmaf() per lane
 * and runs far slower (docs/PERFORMANCE.md, "Fused GEMM"). (A single
 * 8-wide source compiled for both, as target_clones would, emulates
 * each 8-wide vector through memory on the baseline and ran ~9x
 * slower there than the scalar loop.)
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

/** std::fma in the baseline variant: one instruction where the build
 * ISA has FMA, a call to fmaf() elsewhere. */
[[gnu::always_inline]] inline float
baselineFma(float a, float b, float c)
{
#ifdef __FP_FAST_FMAF
    return __builtin_fmaf(a, b, c);
#else
    return gotFmaf(a, b, c);
#endif
}

/** acc = fma(s, b, acc) in every lane. Built as one vector
 * constructor so GCC packs the lanes into a vfmadd231ps where the
 * target has FMA (a per-lane store loop stays scalar).
 * _mm256_fmadd_ps would not inline here: these templates carry no
 * target of their own. */
template <class V, std::size_t... L>
[[gnu::always_inline]] inline void
fmaLanes(V &acc, float s, const V &b, std::index_sequence<L...>)
{
    if constexpr (std::is_same_v<V, Vec8>) // only under avx2,fma
        acc = V{__builtin_fmaf(s, b[L], acc[L])...};
    else
        acc = V{baselineFma(s, b[L], acc[L])...};
}

[[gnu::always_inline]] inline float
finish(float v, const float *prior, const float *bias, std::size_t j,
       bool relu)
{
    if (prior)
        v = v + prior[j];
    if (bias)
        v = v + bias[j];
    return relu ? (v > 0.0f ? v : 0.0f) : v;
}

template <class V>
[[gnu::always_inline]] inline void
finish(V &v, const float *prior, const float *bias, std::size_t j,
       bool relu)
{
    if (prior) {
        V p;
        load(p, prior + j);
        v = v + p;
    }
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
 * out (stride n), plus their prior values when Acc. */
template <class V, std::size_t R, bool Acc>
[[gnu::always_inline]] inline void
gemmTile(const float *a, const float *panel, float *out, std::size_t kk,
         std::size_t n, std::size_t width, const float *bias, bool relu)
{
    constexpr std::size_t lanes = sizeof(V) / sizeof(float);
    constexpr std::size_t per_row = kPanelCols / lanes;
    constexpr auto each_lane = std::make_index_sequence<lanes>{};
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
                fmaLanes(acc[r][v], s, b[v], each_lane);
        }
    }
#pragma GCC unroll 6
    for (std::size_t r = 0; r < R; ++r) {
        float *o = out + r * n;
        const float *prior = Acc ? o : nullptr;
        if (width == kPanelCols) {
#pragma GCC unroll 4
            for (std::size_t v = 0; v < per_row; ++v) {
                finish(acc[r][v], prior, bias, v * lanes, relu);
                store(o + v * lanes, acc[r][v]);
            }
        } else {
            float tmp[kPanelCols];
#pragma GCC unroll 4
            for (std::size_t v = 0; v < per_row; ++v)
                store(tmp + v * lanes, acc[r][v]);
            for (std::size_t j = 0; j < width; ++j)
                o[j] = finish(tmp[j], prior, bias, j, relu);
        }
    }
}

/** gemmTile() over @p rows rows, 1 <= rows <= R. */
template <class V, std::size_t R, bool Acc>
[[gnu::always_inline]] inline void
gemmTileUpTo(std::size_t rows, const float *a, const float *panel,
             float *out, std::size_t kk, std::size_t n,
             std::size_t width, const float *bias, bool relu)
{
    if constexpr (R > 1) {
        if (rows < R) {
            gemmTileUpTo<V, R - 1, Acc>(rows, a, panel, out, kk, n, width,
                                        bias, relu);
            return;
        }
    }
    gemmTile<V, R, Acc>(a, panel, out, kk, n, width, bias, relu);
}

/** Rows [0, rows) of a (stride kk) times the packed [kk, n] panels
 * into out (stride n). The accumulating store is its own
 * instantiation: a runtime flag in the tile's store cost the plain
 * GEMM a quarter of its rate. */
template <class V, std::size_t TileRows, bool Acc>
[[gnu::always_inline]] inline void
gemmRowsOf(const float *a, const float *panels, float *out,
           std::size_t rows, std::size_t kk, std::size_t n,
           const float *bias, bool relu)
{
    for (std::size_t i = 0; i < rows; i += TileRows) {
        const std::size_t tile_rows = std::min(TileRows, rows - i);
        for (std::size_t j = 0; j < n; j += kPanelCols)
            gemmTileUpTo<V, TileRows, Acc>(
                tile_rows, a + i * kk, panels + j * kk, out + i * n + j,
                kk, n, std::min(kPanelCols, n - j),
                bias ? bias + j : nullptr, relu);
    }
}

template <class V, std::size_t TileRows>
[[gnu::always_inline]] inline void
gemmRows(const float *a, const float *panels, float *out,
         std::size_t rows, std::size_t kk, std::size_t n,
         const float *bias, bool relu, bool accumulate)
{
    if (accumulate)
        gemmRowsOf<V, TileRows, true>(a, panels, out, rows, kk, n, bias,
                                      relu);
    else
        gemmRowsOf<V, TileRows, false>(a, panels, out, rows, kk, n, bias,
                                       relu);
}

using GemmRowsFn = void(const float *, const float *, float *,
                        std::size_t, std::size_t, std::size_t,
                        const float *, bool, bool);

/** 6 x 16 tiles of 8-wide vectors: 12 of the 16 ymm registers. */
[[gnu::target("avx2,fma")]] void
gemmRowsAvx2(const float *a, const float *panels, float *out,
             std::size_t rows, std::size_t kk, std::size_t n,
             const float *bias, bool relu, bool accumulate)
{
    gemmRows<Vec8, 6>(a, panels, out, rows, kk, n, bias, relu,
                      accumulate);
}

/** 3 x 16 tiles of 4-wide vectors: 12 of the 16 xmm registers. */
void
gemmRowsBaseline(const float *a, const float *panels, float *out,
                 std::size_t rows, std::size_t kk, std::size_t n,
                 const float *bias, bool relu, bool accumulate)
{
    gemmRows<Vec4, 3>(a, panels, out, rows, kk, n, bias, relu,
                      accumulate);
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
    if (a.cols() == 0) {
        // No k terms (and no rows of a to point at): acc stays 0.
        for (std::size_t i = row_begin; i < row_end; ++i) {
            float *o = out.row(i);
            for (std::size_t j = 0; j < b.cols(); ++j)
                o[j] = finish(0.0f, epilogue.accumulate ? o : nullptr,
                              epilogue.bias, j, epilogue.relu);
        }
        return;
    }
    fn(a.row(row_begin), b.data(), out.row(row_begin),
       row_end - row_begin, a.cols(), b.cols(), epilogue.bias,
       epilogue.relu, epilogue.accumulate);
}

} // namespace

PackedPanels::PackedPanels(const Tensor &b) : PackedPanels(b, 0, b.rows())
{}

PackedPanels::PackedPanels(const Tensor &b, std::size_t row_begin,
                           std::size_t row_end)
    : n_rows(row_end - row_begin), n_cols(b.cols()),
      store((b.cols() + kPanelCols - 1) / kPanelCols * kPanelCols *
                (row_end - row_begin),
            0.0f)
{
    HGPCN_ASSERT(row_begin <= row_end && row_end <= b.rows(),
                 "packed row range out of bounds");
    for (std::size_t j = 0; j < n_cols; j += kPanelCols) {
        float *panel = store.data() + j * n_rows;
        const std::size_t width = std::min(kPanelCols, n_cols - j);
        for (std::size_t k = 0; k < n_rows; ++k)
            std::copy(b.row(row_begin + k) + j,
                      b.row(row_begin + k) + j + width,
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
    return isa == Isa::Baseline || (__builtin_cpu_supports("avx2") &&
                                     __builtin_cpu_supports("fma"));
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
    out.resizeUninit(n_rows / group, n_cols);
    maxPoolGroupsRowsInto(group, 0, n_rows, out, 0);
}

void
Tensor::maxPoolGroupsRowsInto(std::size_t group, std::size_t src_begin,
                              std::size_t src_end, Tensor &out,
                              std::size_t out_begin) const
{
    HGPCN_ASSERT(src_begin <= src_end && src_end <= n_rows,
                 "pool row range out of bounds");
    const std::size_t span = src_end - src_begin;
    HGPCN_ASSERT(group >= 1 && span % group == 0,
                 "rows ", span, " not a multiple of group ", group);
    const std::size_t out_rows = span / group;
    HGPCN_ASSERT(out.cols() == n_cols &&
                     out_begin + out_rows <= out.rows(),
                 "pool output shape mismatch");
    for (std::size_t g = 0; g < out_rows; ++g) {
        float *__restrict dst = out.row(out_begin + g);
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
                     Tensor &out, std::size_t out_begin) const
{
    HGPCN_ASSERT(src_begin <= src_end && src_end <= n_rows,
                 "copy row range out of bounds");
    HGPCN_ASSERT(out.cols() == n_cols &&
                     out_begin + (src_end - src_begin) <= out.rows(),
                 "copy output shape mismatch");
    if (src_end > src_begin)
        std::copy(row(src_begin),
                  row(src_begin) + (src_end - src_begin) * n_cols,
                  out.row(out_begin));
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
