/**
 * @file
 * LiDAR pipeline: real-time E2E processing of a spinning-LiDAR
 * stream — the paper's headline deployment scenario (Section VII-E).
 *
 * A KITTI-like sensor produces ~1.2e5-point frames at 10 Hz; every
 * frame is octree-indexed, down-sampled to 16384 points and
 * semantically segmented. The stream runs on the concurrent
 * stage-pipeline runtime (docs/RUNTIME.md) three ways:
 *
 *   serial     - one frame at a time (mean modeled E2E rate)
 *   pipelined  - 1 CPU build worker overlapping the shared FPGA
 *   2-worker   - 2 CPU build workers feeding the same FPGA
 *
 * and once sensor-paced, for the real-time verdict plus latency
 * percentiles and per-stage utilization.
 *
 *   ./build/examples/lidar_pipeline [frames]
 */

#include <cstdio>

#include "core/hgpcn_system.h"
#include "datasets/kitti_like.h"
#include "example_util.h"
#include "sampling/fps_sampler.h"
#include "sim/device_model.h"

int
main(int argc, char **argv)
{
    using namespace hgpcn;

    const std::size_t n_frames = examples::parsePositiveArg(
        argc, argv, 1, /*fallback=*/4, "frames");

    KittiLike::Config lidar_cfg;
    const KittiLike lidar(lidar_cfg);
    std::printf("sensor: %zu beams x %zu azimuth steps @ %.0f Hz\n",
                lidar_cfg.beams, lidar_cfg.azimuthSteps,
                lidar_cfg.frameRateHz);

    HgPcnSystem::Config system_cfg;
    const HgPcnSystem system(system_cfg,
                             PointNet2Spec::outdoorSegmentation());
    const DeviceModel cpu(DeviceModel::xeonW2255());

    std::vector<Frame> frames;
    for (std::size_t f = 0; f < n_frames; ++f)
        frames.push_back(lidar.generate(f));

    std::printf("\n%-10s %10s %12s %12s %12s %14s\n", "frame",
                "points", "preproc", "inference", "E2E",
                "CPU-FPS preproc");
    for (const Frame &frame : frames) {
        const E2eResult r = system.processFrame(frame.cloud);
        const double cpu_fps_sec = cpu.samplingSec(
            FpsSampler::predictStats(frame.cloud.size(), 16384),
            16384);
        std::printf("%-10s %10zu %9.2f ms %9.2f ms %9.2f ms %11.2f ms\n",
                    frame.name.c_str(), frame.cloud.size(),
                    r.preprocess.totalSec() * 1e3,
                    r.inference.totalSec() * 1e3, r.totalSec() * 1e3,
                    cpu_fps_sec * 1e3);
    }

    // Throughput ladder (batch admission: throughput limited by the
    // machine, not the 10 Hz sensor). The 1-worker run's frames also
    // give the serial rate: 1 / mean modeled E2E seconds per frame.
    StreamRunner::Config pipelined;
    pipelined.paceBySensor = false;
    const RuntimeResult one_worker = system.runStream(frames, pipelined);
    double total_sec = 0.0;
    for (const ProcessedFrame &pf : one_worker.frames)
        total_sec += pf.result.totalSec();
    const double serial_fps =
        1.0 / (total_sec / static_cast<double>(frames.size()));

    pipelined.buildWorkers = 2;
    const RuntimeResult two_workers =
        system.runStream(frames, pipelined);

    std::printf("\n-- throughput (batch admission) --\n");
    std::printf("serial (1 frame in flight):      %6.1f FPS\n",
                serial_fps);
    std::printf("pipelined (1 CPU build worker):  %6.1f FPS\n",
                one_worker.report.sustainedFps);
    std::printf("pipelined (2 CPU build workers): %6.1f FPS\n",
                two_workers.report.sustainedFps);

    // Sensor-paced run: the deployment view — frames admitted at
    // their 10 Hz stamps, 4 frames in flight.
    StreamRunner::Config paced;
    paced.buildWorkers = 2;
    paced.queueCapacity = 4;
    paced.maxInFlight = 4;
    const RuntimeResult deployed = system.runStream(frames, paced);
    std::printf("\n-- sensor-paced runtime --\n%s",
                deployed.report.toString().c_str());
    std::printf("\nworst-case frame latency: %.2f ms\n",
                deployed.report.maxLatencySec * 1e3);
    return 0;
}
