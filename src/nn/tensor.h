/**
 * @file
 * Minimal dense 2D tensor for PCN feature computation.
 *
 * The feature computation step of a PCN decomposes into matrix-vector
 * and matrix-matrix products (Section II-A), which is exactly what
 * the FCU/DLA accelerates. This reference implementation runs the
 * same GEMMs on the CPU so outputs are real numbers and layer shapes
 * are extracted from actual execution rather than hand-derived.
 */

#ifndef HGPCN_NN_TENSOR_H
#define HGPCN_NN_TENSOR_H

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace hgpcn
{

class PackedPanels;

/**
 * What the GEMM applies to each output element as it stores it, in
 * the order of the separate passes it replaces: add bias[j], then
 * ReLU as v > 0 ? v : 0 (which maps -0 and NaN to +0).
 */
struct GemmEpilogue
{
    const float *bias = nullptr; //!< length out.cols(), or none
    bool relu = false;
};

/** A row-major 2D float tensor. */
class Tensor
{
  public:
    Tensor() = default;

    /** Create a zeroed tensor of @p rows x @p cols. */
    Tensor(std::size_t rows, std::size_t cols)
        : n_rows(rows), n_cols(cols), store(rows * cols, 0.0f)
    {}

    /** @return number of rows. */
    std::size_t rows() const { return n_rows; }

    /** @return number of columns. */
    std::size_t cols() const { return n_cols; }

    /** @return element (r, c). */
    float
    at(std::size_t r, std::size_t c) const
    {
        return store[r * n_cols + c];
    }

    /** @return mutable element (r, c). */
    float &
    at(std::size_t r, std::size_t c)
    {
        return store[r * n_cols + c];
    }

    /** @return pointer to row @p r. */
    const float *row(std::size_t r) const { return &store[r * n_cols]; }

    /** @return mutable pointer to row @p r. */
    float *row(std::size_t r) { return &store[r * n_cols]; }

    /** @return underlying storage. */
    const std::vector<float> &data() const { return store; }

    /**
     * Reshape to [rows, cols] without initializing the contents
     * (unspecified stale values). Backing capacity is reused — the
     * FrameWorkspace arena's steady-state path. Callers must write
     * every element before reading.
     */
    void
    resizeUninit(std::size_t rows, std::size_t cols)
    {
        n_rows = rows;
        n_cols = cols;
        store.resize(rows * cols);
    }

    /** @return float capacity of the backing store. */
    std::size_t capacityFloats() const { return store.capacity(); }

    /** Fill with He-style scaled uniform random weights. */
    void randomize(Rng &rng, float scale);

    /** Element-wise max(0, x) in place. */
    void reluInPlace();

    /**
     * this = a * b (a: [M,K], b: [K,N], this becomes [M,N]).
     */
    static Tensor matmul(const Tensor &a, const Tensor &b);

    /**
     * out = a * b into a preallocated tensor (out must already be
     * [a.rows(), b.cols()]). Row range [row_begin, row_end) of a
     * only — rows are independent, so disjoint ranges may run on
     * different threads. Every output element is acc = 0, then
     * acc += a[i][k] * b[k][j] for ascending k, each operation
     * rounded separately: bit-identical to the naive triple loop
     * at any row range. Packs @p b per call; callers that reuse a
     * right-hand side pack it once (PackedPanels).
     */
    static void matmulRowsInto(const Tensor &a, const Tensor &b,
                               Tensor &out, std::size_t row_begin,
                               std::size_t row_end);

    /**
     * matmulRowsInto() against a pre-packed right-hand side, with
     * @p epilogue applied to each element as its tile is stored.
     */
    static void matmulRowsInto(const Tensor &a, const PackedPanels &b,
                               Tensor &out, std::size_t row_begin,
                               std::size_t row_end,
                               GemmEpilogue epilogue = {});

    /** out = a * b over all rows (out resized in place). */
    static void matmulInto(const Tensor &a, const Tensor &b,
                           Tensor &out);

    /** Add a length-cols() bias vector to every row. */
    void addRowBias(const std::vector<float> &bias);

    /**
     * Column-wise max over groups of @p group rows: input [G*group,
     * C] reduces to [G, C]. This is the PointNet max-pool over each
     * gathered neighborhood.
     */
    Tensor maxPoolGroups(std::size_t group) const;

    /** maxPoolGroups() into a preallocated tensor. */
    void maxPoolGroupsInto(std::size_t group, Tensor &out) const;

    /**
     * maxPoolGroups() over source rows [src_begin, src_end) only;
     * @p out is resized to [(src_end - src_begin) / group, cols].
     * The batched inference path pools each frame's row range of a
     * stacked activation tensor into that frame's own pooled
     * tensor; every pooled element reduces the same rows in the
     * same order as the solo path, so values are bit-identical.
     */
    void maxPoolGroupsRowsInto(std::size_t group, std::size_t src_begin,
                               std::size_t src_end, Tensor &out) const;

    /**
     * Copy source rows [src_begin, src_end) into @p out, resized to
     * [src_end - src_begin, cols]. Peels one frame's activations
     * out of a batch-stacked tensor.
     */
    void copyRowsInto(std::size_t src_begin, std::size_t src_end,
                      Tensor &out) const;

    /** @return index of the maximum element of row @p r. */
    std::size_t argmaxRow(std::size_t r) const;

  private:
    std::size_t n_rows = 0;
    std::size_t n_cols = 0;
    std::vector<float> store;
};

/**
 * The right-hand side of a GEMM, [rows, cols], repacked for the
 * register-tiled kernel: column panels of kPanelCols floats, panel p
 * holding rows() x kPanelCols floats whose row k is columns
 * [p * kPanelCols, (p + 1) * kPanelCols) of row k, zero past cols().
 * The kernel streams one panel per output tile. Linear packs its
 * weights once at construction.
 */
class PackedPanels
{
  public:
    static constexpr std::size_t kPanelCols = 16;

    PackedPanels() = default;

    /** Pack @p b. */
    explicit PackedPanels(const Tensor &b);

    /** @return rows of the packed matrix (the GEMM's K). */
    std::size_t rows() const { return n_rows; }

    /** @return columns of the packed matrix (the GEMM's N). */
    std::size_t cols() const { return n_cols; }

    /** @return the panels, back to back. */
    const float *data() const { return store.data(); }

  private:
    std::size_t n_rows = 0;
    std::size_t n_cols = 0;
    std::vector<float> store;
};

} // namespace hgpcn

#endif // HGPCN_NN_TENSOR_H
