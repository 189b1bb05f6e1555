#include "backends/execution_backend.h"

#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "core/frame_workspace.h"
#include "obs/trace.h"

namespace hgpcn
{

PointCloud
backendProbeCloud(std::size_t points)
{
    HGPCN_ASSERT(points >= 1, "probe cloud needs >= 1 point");
    Rng rng(0x9bacULL); // fixed: estimates must be reproducible
    PointCloud cloud;
    cloud.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        cloud.add(Vec3{rng.uniform(0.0f, 1.0f),
                       rng.uniform(0.0f, 1.0f),
                       rng.uniform(0.0f, 1.0f)});
    }
    return cloud;
}

namespace
{

/** Charge @p batch's frames as one batch of @p backend. */
void
chargeBatch(const ExecutionBackend &backend, BatchInference &batch)
{
    std::vector<const BackendInference *> ptrs;
    ptrs.reserve(batch.frames.size());
    for (const BackendInference &f : batch.frames)
        ptrs.push_back(&f);
    batch.batchSec = backend.batchServiceSec(ptrs);
}

} // namespace

BatchInference
ExecutionBackend::inferBatch(std::span<const PointCloud *const> inputs,
                             FrameWorkspace *workspace) const
{
    HGPCN_ASSERT(!inputs.empty(), "inferBatch: empty batch");
    HGPCN_TRACE_WALL_SPAN(
        span, "infer:" + name() + ":batch" +
                  std::to_string(inputs.size()),
        "backend", "wall/backend:" + name());
    BatchInference out;
    out.frames.reserve(inputs.size());
    for (const PointCloud *input : inputs)
        out.frames.push_back(infer(*input, workspace));
    chargeBatch(*this, out);
    return out;
}

double
ExecutionBackend::batchServiceSec(
    std::span<const BackendInference *const> frames) const
{
    double total = 0.0;
    for (const BackendInference *f : frames)
        total += f->totalSec();
    return total;
}

double
ExecutionBackend::estimateServiceSec() const
{
    std::call_once(probe_once, [this] {
        HGPCN_TRACE_WALL_SPAN(span, "probe:" + name(), "backend",
                              "wall/backend:" + name());
        std::size_t k = model().spec().inputPoints;
        if (k == 0)
            k = 1024;
        probe_sec = infer(backendProbeCloud(k)).totalSec();
    });
    return probe_sec;
}

ModeledBackend::ModeledBackend(std::string name, std::string resource,
                               const PointNet2 &net, DsMethod ds,
                               CentroidMethod centroid,
                               std::uint64_t seed)
    : nm(std::move(name)), res(std::move(resource)), net_(net)
{
    functional.ds = ds;
    functional.centroid = centroid;
    functional.seed = seed;
}

RunOptions
ModeledBackend::runOptions(FrameWorkspace *workspace) const
{
    RunOptions opts = functional;
    opts.workspace = workspace;
    if (workspace != nullptr)
        opts.intraOpThreads = workspace->intraOpThreads;
    return opts;
}

BackendInference
ModeledBackend::timed(RunOutput out) const
{
    BackendInference result = time(out.trace);
    result.backend = nm;
    result.output = std::move(out);
    return result;
}

BackendInference
ModeledBackend::infer(const PointCloud &input,
                      FrameWorkspace *workspace) const
{
    return timed(net_.run(input, runOptions(workspace)));
}

BatchInference
ModeledBackend::inferBatch(std::span<const PointCloud *const> inputs,
                           FrameWorkspace *workspace) const
{
    std::vector<RunOutput> outs =
        net_.runBatch(inputs, runOptions(workspace));
    BatchInference batch;
    batch.frames.reserve(outs.size());
    for (RunOutput &out : outs)
        batch.frames.push_back(timed(std::move(out)));
    chargeBatch(*this, batch);
    return batch;
}

} // namespace hgpcn
