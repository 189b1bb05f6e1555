/**
 * @file
 * Figure 14: inference-phase speedup of HgPCN over baseline
 * hardware.
 *
 * Per Table I task (random central points, matching the paper's
 * Mesorasi-compatible protocol): HgPCN's Inference Engine
 * (DSU + FCU) against the Jetson Xavier NX GPU model, Mesorasi and
 * PointACC. Paper bands: 6.4x-21x vs Jetson, 2.2x-16.5x vs
 * Mesorasi, 1.3x-10.2x vs PointACC — growing with input size.
 */

#include "backends/mesorasi_backend.h"
#include "backends/point_acc_backend.h"
#include "bench/bench_util.h"
#include "core/inference_engine.h"
#include "datasets/dataset_suite.h"
#include "sim/device_model.h"

namespace hgpcn
{
namespace
{

PointCloud
sampledInput(const Frame &frame, std::size_t k)
{
    PointCloud input;
    const std::size_t stride = frame.cloud.size() / k;
    for (std::size_t i = 0; i < k; ++i) {
        input.add(
            frame.cloud.position(static_cast<PointIndex>(i * stride)));
    }
    input.normalizeToUnitCube();
    return input;
}

void
run()
{
    bench::banner(
        "Figure 14: INFERENCE SPEEDUP OF HGPCN OVER BASELINES",
        "paper: 6.4x-21x vs Jetson NX, 2.2x-16.5x vs Mesorasi, "
        "1.3x-10.2x vs PointACC");

    const InferenceEngine engine;
    const DeviceModel jetson(DeviceModel::jetsonXavierNx());

    TablePrinter table({"task", "K", "HgPCN", "Jetson NX", "Mesorasi",
                        "PointACC", "vs Jetson", "vs Mesorasi",
                        "vs PointACC"});

    for (const auto &task : DatasetSuite::tableOne()) {
        const Frame frame = task.rawFrame(0);
        const PointCloud input = sampledInput(frame, task.inputSize);
        const PointNet2 net(task.spec);
        const MesorasiBackend mesorasi(engine.config(), net);
        const PointAccBackend point_acc(engine.config(), net);

        // HgPCN path: VEG data structuring on the DSU, FCU GEMMs.
        const InferenceResult hgpcn = engine.run(net, input);
        const double hgpcn_sec = hgpcn.totalSec();

        // Baseline path: brute-force DS workload trace.
        RunOptions brute_opts;
        brute_opts.ds = DsMethod::BruteKnn;
        const RunOutput brute = net.run(input, brute_opts);

        const double jetson_sec = jetson.inferenceSec(brute.trace);
        const double mesorasi_sec =
            mesorasi.time(brute.trace).totalSec();
        const double pacc_sec = point_acc.time(brute.trace).totalSec();

        table.addRow({task.dataset, std::to_string(task.inputSize),
                      TablePrinter::fmtTime(hgpcn_sec),
                      TablePrinter::fmtTime(jetson_sec),
                      TablePrinter::fmtTime(mesorasi_sec),
                      TablePrinter::fmtTime(pacc_sec),
                      TablePrinter::fmtRatio(jetson_sec / hgpcn_sec, 1),
                      TablePrinter::fmtRatio(mesorasi_sec / hgpcn_sec,
                                             1),
                      TablePrinter::fmtRatio(pacc_sec / hgpcn_sec,
                                             1)});
    }
    table.print();
}

} // namespace
} // namespace hgpcn

int
main()
{
    hgpcn::run();
    return 0;
}
