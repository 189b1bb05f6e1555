/**
 * @file
 * Human-readable rendering of an ExecutionTrace.
 *
 * Sums the per-GEMM / per-gather record of a network run into the
 * totals the hardware models consume (MACs, data-structuring
 * distances, sort candidates), for the examples to print.
 */

#ifndef HGPCN_NN_TRACE_REPORT_H
#define HGPCN_NN_TRACE_REPORT_H

#include <string>

#include "nn/layer_trace.h"

namespace hgpcn
{

/** Render one-line totals (MACs, distances, sort candidates). */
std::string renderTraceTotals(const ExecutionTrace &trace);

} // namespace hgpcn

#endif // HGPCN_NN_TRACE_REPORT_H
