#include "nn/trace_report.h"

#include <sstream>

#include "common/table_printer.h"

namespace hgpcn
{

std::string
renderTraceTotals(const ExecutionTrace &trace)
{
    std::ostringstream oss;
    oss << "totals: " << TablePrinter::fmtCount(trace.totalMacs())
        << " MACs, "
        << TablePrinter::fmtCount(trace.totalGatherDistances())
        << " DS distances, "
        << TablePrinter::fmtCount(trace.totalSortCandidates())
        << " sort candidates";
    return oss.str();
}

} // namespace hgpcn
