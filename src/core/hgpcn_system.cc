#include "core/hgpcn_system.h"

namespace hgpcn
{

HgPcnSystem::HgPcnSystem(const Config &config, const PointNet2Spec &spec)
    : cfg(config), net(std::make_unique<PointNet2>(spec)),
      preproc(config.preprocess),
      be(std::make_unique<HgpcnBackend>(
          InferenceEngine(config.inference), *net))
{
    if (spec.inputPoints != 0)
        cfg.inputPoints = spec.inputPoints;
}

E2eResult
HgPcnSystem::processFrame(const PointCloud &raw) const
{
    E2eResult result;
    result.preprocess = preproc.process(raw, cfg.inputPoints);

    // The sampled input is normalized for the network (radius-based
    // layers assume unit-cube coordinates), then inference reuses
    // the octree only when coordinates were left untouched — after
    // normalization a fresh level-0 octree is built inside the
    // model, still costed in the trace.
    PointCloud input = result.preprocess.sampled;
    input.normalizeToUnitCube();
    // Serial calls reuse the system's workspace pool: frame 2
    // onwards runs allocation-free in the model (thread-safe — the
    // pool hands concurrent callers distinct arenas).
    WorkspacePool::Lease ws = serialWorkspaces.acquire();
    result.inference = be->infer(input, ws.get());
    return result;
}

RuntimeResult
HgPcnSystem::runStream(const std::vector<Frame> &frames,
                       StreamRunner::Config runner_cfg) const
{
    if (runner_cfg.inputPoints == 0)
        runner_cfg.inputPoints = cfg.inputPoints;
    StreamRunner runner(preproc, *be, runner_cfg);
    return runner.run(frames);
}

} // namespace hgpcn
