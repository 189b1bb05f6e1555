#include "backends/cpu_brute_backend.h"

namespace hgpcn
{

BackendInference
CpuBruteBackend::time(const ExecutionTrace &trace) const
{
    BackendInference out;
    out.dsSec = dev.dsSec(trace);
    out.fcSec = dev.fcSec(trace);
    out.dsFcOverlap = false; // serial on a general-purpose core
    return out;
}

double
CpuBruteBackend::batchServiceSec(
    std::span<const BackendInference *const> frames) const
{
    double ds = 0.0;
    std::vector<const ExecutionTrace *> traces;
    traces.reserve(frames.size());
    for (const BackendInference *f : frames) {
        ds += f->dsSec;
        traces.push_back(&f->output.trace);
    }
    return ds + dev.fcSecStacked(traces);
}

} // namespace hgpcn
