/**
 * @file
 * The Pre-processing Engine as a plug-in for other accelerators.
 *
 * Section VIII: "the HgPCN Pre-processing Engine can be a plug-in to
 * other PCN inference accelerators (not using the VEG method) to
 * perform the end-to-end PCN inference." This example front-ends the
 * PointACC model with HgPCN's OIS pre-processing and compares the
 * resulting E2E latency against (a) PointACC with CPU FPS
 * pre-processing and (b) the full HgPCN system.
 *
 *   ./build/examples/preprocessing_plugin [input_points]
 */

#include <cstdio>

#include "backends/point_acc_backend.h"
#include "core/hgpcn_system.h"
#include "datasets/kitti_like.h"
#include "example_util.h"
#include "sampling/fps_sampler.h"
#include "sim/device_model.h"

int
main(int argc, char **argv)
{
    using namespace hgpcn;

    KittiLike::Config lidar_cfg;
    const KittiLike lidar(lidar_cfg);
    const Frame frame = lidar.generate(0);
    const std::size_t k = examples::parsePositiveArg(
        argc, argv, 1, /*fallback=*/16384, "input_points");
    std::printf("frame: %zu raw points -> %zu input points\n",
                frame.cloud.size(), k);

    // OIS pre-processing (shared by both accelerator back ends).
    const PreprocessingEngine preproc;
    const PreprocessResult pre = preproc.process(frame.cloud, k);

    // Back end A: PointACC fed by the OIS plug-in.
    const PointNet2 net(PointNet2Spec::outdoorSegmentation());
    PointCloud input = pre.sampled;
    input.normalizeToUnitCube();
    RunOptions brute_opts;
    brute_opts.ds = DsMethod::BruteKnn;
    const RunOutput brute = net.run(input, brute_opts);
    const PointAccBackend point_acc(InferenceEngine::Config{}, net);
    const double pacc_sec = point_acc.time(brute.trace).totalSec();

    // Back end B: the full HgPCN Inference Engine.
    const InferenceEngine engine;
    const double hgpcn_sec = engine.run(net, input).totalSec();

    // Baseline pre-processing: FPS on the host CPU.
    const DeviceModel cpu(DeviceModel::xeonW2255());
    const double fps_sec = cpu.samplingSec(
        FpsSampler::predictStats(frame.cloud.size(), k), k);

    std::printf("\npre-processing options:\n");
    std::printf("  OIS plug-in (CPU+FPGA): %9.3f ms\n",
                pre.totalSec() * 1e3);
    std::printf("  FPS on Xeon W-2255:     %9.3f ms\n",
                fps_sec * 1e3);

    std::printf("\nE2E combinations:\n");
    std::printf("  CPU FPS + PointACC:     %9.3f ms\n",
                (fps_sec + pacc_sec) * 1e3);
    std::printf("  OIS plug-in + PointACC: %9.3f ms  (%.1fx faster)\n",
                (pre.totalSec() + pacc_sec) * 1e3,
                (fps_sec + pacc_sec) /
                    (pre.totalSec() + pacc_sec));
    std::printf("  full HgPCN:             %9.3f ms  (%.1fx faster)\n",
                (pre.totalSec() + hgpcn_sec) * 1e3,
                (fps_sec + pacc_sec) /
                    (pre.totalSec() + hgpcn_sec));
    return 0;
}
