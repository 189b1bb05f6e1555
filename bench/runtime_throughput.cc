/**
 * @file
 * Streaming-runtime throughput: worker-count and frames-in-flight
 * sweeps over the concurrent stage pipeline (docs/RUNTIME.md).
 *
 * The paper's real-time claim (Section VII-E) rests on overlapping
 * the CPU octree build of frame i+1 with the FPGA work of frame i.
 * This bench quantifies the schedule headroom: batch-admission
 * throughput versus CPU build workers and FPGA devices, then
 * versus the in-flight credit (maxInFlight = 1 reproduces the
 * serial system, larger credits approach the pipelined bound), and
 * finally a sensor-paced run with the full report.
 *
 * Two clocks are reported (docs/PERFORMANCE.md):
 *  - the *virtual* timeline's sustained FPS — the paper-fidelity
 *    number from the cycle models, invariant across host kernels;
 *  - the *wall-clock* host execution rate of the default config —
 *    the perf-trajectory number the optimized kernels move.
 *
 * `--json <path>` writes both to a BENCH_runtime.json record.
 *
 * Observability hooks (docs/OBSERVABILITY.md):
 *  - `--trace <path>` exports the sensor-paced run's virtual-time
 *    trace as Chrome trace_event JSON (virtual clock only, so the
 *    file is byte-identical across runs — CI byte-compares two).
 *  - the wall section interleaves tracer-off and tracer-on+recording
 *    runs (best of N each) and reports the sustained-FPS delta as
 *    tracerOverheadPct; `--assert-tracer-overhead <pct>` turns the
 *    delta into a hard gate. Recording is strictly more work than
 *    the default-off path (one relaxed load per site), so the gate
 *    bounds the disabled overhead a fortiori.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "bench/bench_util.h"
#include "core/hgpcn_system.h"
#include "datasets/kitti_like.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace hgpcn
{
namespace
{

std::vector<Frame>
makeStream(std::size_t n)
{
    KittiLike::Config lidar_cfg;
    lidar_cfg.azimuthSteps = 500; // small frames: sweep-friendly
    const KittiLike lidar(lidar_cfg);
    std::vector<Frame> frames;
    for (std::size_t f = 0; f < n; ++f)
        frames.push_back(lidar.generate(f));
    return frames;
}

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
run(const std::string &json_path, const std::string &trace_path,
    double assert_overhead_pct)
{
    bench::banner("RUNTIME: STAGE-PIPELINE THROUGHPUT",
                  "StreamRunner sustained FPS vs workers and "
                  "frames in flight (KITTI-like stream, "
                  "Pointnet++(s), K = 4096)");

    const std::vector<Frame> frames = makeStream(8);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg,
                             PointNet2Spec::semanticSegmentation());

    // One build worker overlapping one shared FPGA, batch admission:
    // every sweep below varies this config.
    StreamRunner::Config unpaced;
    unpaced.paceBySensor = false;

    // Serial baseline: one frame at a time, 1 / mean modeled E2E
    // seconds per frame.
    double total_sec = 0.0;
    for (const ProcessedFrame &pf :
         system.runStream(frames, unpaced).frames)
        total_sec += pf.result.totalSec();
    const double serial_fps =
        1.0 / (total_sec / static_cast<double>(frames.size()));
    std::printf("serial baseline (one frame at a time): %.1f FPS\n\n",
                serial_fps);

    bench::JsonWriter json;
    json.obj()
        .field("bench", "runtime_throughput")
        .field("schema", "hgpcn-bench-runtime/2")
        .field("frames", frames.size())
        .field("model", "Pointnet++(s)")
        .field("inputPoints", std::uint64_t{4096})
        .field("serialModeledFps", serial_fps);

    bench::section("build workers x FPGA devices (batch admission)");
    json.key("workerSweep").arr();
    TablePrinter workers({"CPU build workers", "FPGA devices",
                          "sustained FPS", "vs serial", "cpu util",
                          "fpga util"});
    for (const std::size_t fpga : {std::size_t{1}, std::size_t{2}}) {
        for (const std::size_t cpu :
             {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
            StreamRunner::Config rc = unpaced;
            rc.buildWorkers = cpu;
            rc.fpgaUnits = fpga;
            const RuntimeResult r = system.runStream(frames, rc);
            // down-sample + inference share the FPGA: utilization
            // of the device is the sum of the two stages'.
            const double fpga_util = r.report.stages[1].utilization +
                                     r.report.stages[2].utilization;
            workers.addRow(
                {TablePrinter::fmtCount(cpu),
                 TablePrinter::fmtCount(fpga),
                 TablePrinter::fmt(r.report.sustainedFps, 1),
                 TablePrinter::fmtRatio(
                     r.report.sustainedFps / serial_fps, 2),
                 TablePrinter::fmt(
                     r.report.stages[0].utilization * 100.0, 0),
                 TablePrinter::fmt(fpga_util * 100.0, 0)});
            json.obj()
                .field("buildWorkers", cpu)
                .field("fpgaUnits", fpga)
                .field("modeledFps", r.report.sustainedFps)
                .close();
        }
    }
    json.close(); // workerSweep
    workers.print();

    bench::section("frames in flight (batch admission, 2 build "
                   "workers)");
    TablePrinter credit({"max in flight", "sustained FPS",
                         "mean latency", "p99 latency"});
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{2}, std::size_t{4},
          std::size_t{8}}) {
        StreamRunner::Config rc = unpaced;
        rc.buildWorkers = 2;
        rc.maxInFlight = n;
        rc.queueCapacity = n;
        const RuntimeResult r = system.runStream(frames, rc);
        credit.addRow(
            {TablePrinter::fmtCount(n),
             TablePrinter::fmt(r.report.sustainedFps, 1),
             TablePrinter::fmtTime(r.report.meanLatencySec),
             TablePrinter::fmtTime(r.report.p99LatencySec)});
    }
    credit.print();

    // --- Wall-clock host execution rate (the perf trajectory). ----
    // Default config, batch admission: how fast the host actually
    // pushes frames through octree build + OIS + inference. The
    // second run is the steady-state number (workspaces warm).
    bench::section("host wall-clock execution (default config)");
    const StreamRunner::Config wall_cfg = unpaced;
    double wall_fps = 0.0;
    double wall_fps_traced = 0.0;
    double wall_p95_modeled = 0.0;
    {
        StreamRunner::Config rc = wall_cfg;
        rc.inputPoints = 4096;
        StreamRunner runner(system.preprocessor(), system.backend(),
                            rc);
        runner.run(frames); // warm-up: arenas grow once
        // Interleaved A/B, best of N each: tracer off vs tracer on
        // *and recording*. Interleaving shares thermal/cache drift
        // between the arms, and the arm order alternates every rep
        // so position-correlated drift (turbo decay, a neighbor
        // stealing the core mid-pair) cannot masquerade as
        // overhead. Run-to-run pipeline variance (~±5% on shared
        // runners) dwarfs the true recording cost, so while the
        // overhead gate is breached the loop keeps adding reps (up
        // to kMaxReps): best-of converges both arms to their
        // throughput ceilings, whose gap is the real overhead — a
        // genuine regression stays visible at any rep count, a
        // noisy rep does not flake the job.
        Tracer &tracer = Tracer::global();
        std::string report_plain;
        std::string report_traced;
        constexpr int kMinReps = 3;
        constexpr int kMaxReps = 9;
        const auto runPlain = [&] {
            tracer.setEnabled(false);
            const double t0 = nowSec();
            const RuntimeResult plain = runner.run(frames);
            const double sec = nowSec() - t0;
            if (sec > 0.0) {
                wall_fps = std::max(
                    wall_fps,
                    static_cast<double>(plain.frames.size()) / sec);
            }
            wall_p95_modeled = plain.report.p95LatencySec;
            report_plain = plain.report.toString();
        };
        const auto runTraced = [&] {
            tracer.clear();
            tracer.setEnabled(true);
            const double t0 = nowSec();
            const RuntimeResult traced = runner.run(frames);
            const double sec = nowSec() - t0;
            tracer.setEnabled(false);
            if (sec > 0.0) {
                wall_fps_traced = std::max(
                    wall_fps_traced,
                    static_cast<double>(traced.frames.size()) / sec);
            }
            report_traced = traced.report.toString();
        };
        const auto overheadNow = [&] {
            return wall_fps > 0.0
                       ? (wall_fps - wall_fps_traced) / wall_fps
                             * 100.0
                       : 0.0;
        };
        int reps = 0;
        while (reps < kMinReps
               || (assert_overhead_pct > 0.0 && reps < kMaxReps
                   && overheadNow() > assert_overhead_pct)) {
            ++reps;
            if (reps % 2 != 0) {
                runPlain();
                runTraced();
            } else {
                runTraced();
                runPlain();
            }
        }
        tracer.clear();
        // The schedule and every modeled number must not move when
        // tracing is on — it is observability, not behavior.
        HGPCN_ASSERT(report_plain == report_traced,
                     "tracing changed the modeled report");
        std::printf("host throughput: %.2f frames/s wall-clock "
                    "(best of %d, steady state)\n",
                    wall_fps, reps);
        std::printf("modeled p95 latency (unchanged by host "
                    "kernels): %.2f ms\n",
                    wall_p95_modeled * 1e3);
    }
    const double overhead_pct =
        wall_fps > 0.0
            ? (wall_fps - wall_fps_traced) / wall_fps * 100.0
            : 0.0;
    std::printf("tracer on+recording: %.2f frames/s (overhead "
                "%.2f%%)\n",
                wall_fps_traced, overhead_pct);
    json.field("wallClockFps", wall_fps)
        .field("wallClockFpsTraced", wall_fps_traced)
        .field("tracerOverheadPct", overhead_pct)
        .field("modeledP95LatencySec", wall_p95_modeled);
    if (assert_overhead_pct > 0.0 &&
        overhead_pct > assert_overhead_pct) {
        std::fprintf(stderr,
                     "FAIL: tracer overhead %.2f%% exceeds the "
                     "--assert-tracer-overhead limit %.2f%%\n",
                     overhead_pct, assert_overhead_pct);
        std::exit(1);
    }

    bench::section("sensor-paced deployment view (10 Hz stream)");
    StreamRunner::Config paced;
    paced.buildWorkers = 2;
    paced.queueCapacity = 4;
    paced.maxInFlight = 4;
    // Trace the deployment-view run: its virtual-time events are
    // deterministic, so the count is a machine-independent record
    // field and the --trace export is byte-stable.
    Tracer::global().clear();
    Tracer::global().setEnabled(true);
    const RuntimeResult deployed = system.runStream(frames, paced);
    Tracer::global().setEnabled(false);
    const std::vector<TraceEvent> events =
        Tracer::global().snapshot();
    std::uint64_t virtual_events = 0;
    for (const TraceEvent &ev : events) {
        if (ev.clock == TraceClock::Virtual)
            ++virtual_events;
    }
    Tracer::global().clear();
    std::printf("%s", deployed.report.toString().c_str());
    json.field("pacedModeledFps", deployed.report.sustainedFps)
        .field("pacedSensorFps", deployed.report.generationFps)
        .field("traceVirtualEvents", virtual_events);

    json.close(); // root
    if (!json_path.empty()) {
        json.writeTo(json_path);
        std::printf("\nwrote %s\n", json_path.c_str());
    }
    if (!trace_path.empty()) {
        TraceExportOptions opts;
        opts.includeWall = false; // byte-identical across runs
        writeChromeTrace(trace_path, events, opts);
        std::printf("wrote %s (%llu virtual-time events)\n",
                    trace_path.c_str(),
                    static_cast<unsigned long long>(virtual_events));
    }
}

} // namespace
} // namespace hgpcn

int
main(int argc, char **argv)
{
    const std::string json_path =
        hgpcn::bench::extractJsonPath(argc, argv);
    const std::string trace_path =
        hgpcn::bench::extractOption(argc, argv, "--trace");
    const std::string overhead_arg = hgpcn::bench::extractOption(
        argc, argv, "--assert-tracer-overhead");
    const double assert_overhead_pct =
        overhead_arg.empty() ? 0.0 : std::atof(overhead_arg.c_str());
    hgpcn::run(json_path, trace_path, assert_overhead_pct);
    return 0;
}
