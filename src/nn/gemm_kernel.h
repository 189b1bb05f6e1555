/**
 * @file
 * Test entry points into the GEMM kernel of nn/tensor.cc.
 *
 * The kernel's one source is compiled twice — 8-wide for AVX2 hosts
 * and 4-wide at the build's baseline ISA — and each host runs one of
 * them, so a normal call only ever exercises one. These entry points
 * run a named variant, so the tests hold both to the scalar reference
 * on any host that can execute them. Not for production callers: use
 * Tensor::matmulRowsInto().
 */

#ifndef HGPCN_NN_GEMM_KERNEL_H
#define HGPCN_NN_GEMM_KERNEL_H

#include <cstddef>

#include "nn/tensor.h"

namespace hgpcn::gemm_kernel
{

/** One compiled variant of the kernel. */
enum class Isa
{
    Avx2,     //!< 6 x 16 tiles of 8-wide AVX2 vectors (mul then add)
    Baseline, //!< 3 x 16 tiles of 4-wide vectors, the build's ISA
};

/** @return whether this host can execute @p isa's variant. */
bool hostRuns(Isa isa);

/** Tensor::matmulRowsInto() through @p isa's variant, which the host
 * must be able to run (hostRuns()). */
void matmulRowsInto(Isa isa, const Tensor &a, const PackedPanels &b,
                    Tensor &out, std::size_t row_begin,
                    std::size_t row_end, GemmEpilogue epilogue = {});

} // namespace hgpcn::gemm_kernel

#endif // HGPCN_NN_GEMM_KERNEL_H
