/**
 * @file
 * ExecutionBackend: a stream-servable inference accelerator.
 *
 * The paper's headline claims (Fig. 14, Section VII-D) are
 * comparative — the FPGA DSU/FCU engine against Mesorasi-style GPU
 * delayed aggregation and PointACC — and a backend's latency
 * *shape*, not just its mean, decides real-time viability. A backend
 * is therefore a first-class citizen of the streaming runtime: it
 * executes the deployed PCN over one down-sampled frame (the real
 * functional path, so outputs are comparable bit for bit) and
 * returns the modeled latency its cycle model charges, split into
 * the data-structuring and feature-computation sides every modeled
 * accelerator has. InferenceStage/StreamRunner schedule whatever
 * backend they are handed; ShardedRunner composes heterogeneous
 * fleets of them (docs/RUNTIME.md §backends).
 *
 * Concrete backends, each one ModeledBackend: HgpcnBackend (DSU/FCU
 * engine), MesorasiBackend (mobile-GPU delayed aggregation),
 * PointAccBackend (full-range bitonic Mapping Unit) and
 * CpuBruteBackend (host-CPU reference). backend_registry.h maps
 * names to factories.
 */

#ifndef HGPCN_BACKENDS_EXECUTION_BACKEND_H
#define HGPCN_BACKENDS_EXECUTION_BACKEND_H

#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "geometry/point_cloud.h"
#include "nn/pointnet2.h"

namespace hgpcn
{

class FrameWorkspace;

/**
 * Outcome of one inference: backends report failure through this
 * status, never through exceptions, so the streaming pipeline can
 * charge the failed attempt as virtual time and retry or fail over
 * (serving/failover.h). Today only the fault-injection layer sets
 * TransientError — real backends are deterministic — but the
 * channel is part of the interface so a hardware backend with real
 * error paths slots in unchanged.
 */
enum class InferenceStatus
{
    Ok,
    /** The attempt produced no usable output but the device is
     * believed healthy; retrying may succeed. */
    TransientError,
};

/**
 * Result of one frame through an execution backend.
 *
 * Every modeled accelerator has a data-structuring side (neighbor
 * search) and a feature-computation side (the PCN's GEMMs); whether
 * the two overlap is an architectural property the backend reports,
 * so totalSec() reproduces each device model's arithmetic exactly.
 */
struct BackendInference
{
    /** Name of the producing backend ("hgpcn", "mesorasi", ...). */
    std::string backend;

    /** Network outputs (logits, labels) and the execution trace —
     * the real functional result, identical across backends that
     * execute the same data-structuring workload. */
    RunOutput output;

    /** Modeled data-structuring seconds (DSU / GPU DS / Mapping
     * Unit / CPU KNN, per backend). */
    double dsSec = 0.0;

    /** Modeled feature-computation seconds. */
    double fcSec = 0.0;

    /** true: DS and FC overlap (total is the slower side), as on
     * HgPCN, Mesorasi and PointACC; false: serial sum, as on the
     * general-purpose CPU/GPU baselines. */
    bool dsFcOverlap = true;

    /** Attempt outcome; on TransientError the output is not to be
     * trusted (the modeled latencies still are — a failed attempt
     * occupies the device for a full service). */
    InferenceStatus status = InferenceStatus::Ok;

    /** @return modeled end-to-end seconds of the inference phase. */
    double
    totalSec() const
    {
        if (dsFcOverlap)
            return dsSec > fcSec ? dsSec : fcSec;
        return dsSec + fcSec;
    }
};

/**
 * Result of one micro-batch through an execution backend.
 *
 * frames[i] is bit-identical to a solo infer() of input i — the
 * per-frame modeled numbers are unchanged by construction — while
 * batchSec is the ONE device occupancy interval the whole batch
 * holds (shared weight passes amortize fill/drain and dispatch, so
 * batchSec <= sum of per-frame totals). The virtual timeline
 * charges batchSec and derives every member's completion stamp
 * from it.
 */
struct BatchInference
{
    std::vector<BackendInference> frames;
    double batchSec = 0.0;
};

/**
 * One inference accelerator, bound to a deployed network replica.
 *
 * Backends must be thread-safe: the streaming runtime calls infer()
 * from a pool of workers, potentially on several frames at once
 * (the PointNet2 functional path is const and thread-safe; cycle
 * models are pure).
 */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    /** @return registry name of this backend ("hgpcn", ...). */
    virtual const std::string &name() const = 0;

    /**
     * @return the device this backend occupies on the virtual
     * timeline. "fpga" means the HgPCN fabric shared with the
     * Down-sampling Unit (StreamRunner then applies its shareFpga
     * semantics); any other name is the backend's own device and
     * never contends with the pre-processing front end.
     */
    virtual const std::string &resource() const = 0;

    /**
     * Execute the deployed network over one frame.
     *
     * @param input The down-sampled, unit-cube-normalized cloud
     *        (~K points) the pre-processing front end produced.
     * @param workspace Optional reusable scratch arena leased by
     *        the calling pipeline worker (core/frame_workspace.h):
     *        zero-alloc steady state and the worker's intra-op
     *        thread budget. Null runs with per-call scratch — same
     *        results.
     * @return functional output + modeled stage latencies.
     */
    virtual BackendInference
    infer(const PointCloud &input,
          FrameWorkspace *workspace = nullptr) const = 0;

    /**
     * Execute the deployed network over a micro-batch of frames
     * coalesced from different sensors.
     *
     * The base implementation loops infer() under one
     * "infer:<name>:batch<N>" wall span and charges
     * batchServiceSec() — correct for any backend. ModeledBackend
     * overrides it to share one weight pass and one workspace arena
     * reservation across the batch; an override must keep every
     * frame's functional output and recorded trace bit-identical to
     * a solo infer() of that frame.
     */
    virtual BatchInference
    inferBatch(std::span<const PointCloud *const> inputs,
               FrameWorkspace *workspace = nullptr) const;

    /**
     * Modeled device-occupancy seconds for serving the given
     * already-executed frames as one batch. Pure arithmetic over
     * the frames' recorded traces (no functional re-execution), so
     * the virtual timeline can re-derive batch charges
     * deterministically for any batch composition. Base: serial
     * sum of per-frame totals. A single-frame span must equal that
     * frame's totalSec().
     */
    virtual double batchServiceSec(
        std::span<const BackendInference *const> frames) const;

    /** @return the deployed network replica. */
    virtual const PointNet2 &model() const = 0;

    /**
     * Deterministic cost-model estimate of this backend's per-frame
     * inference service seconds — the number join-shortest-queue
     * placement retires backlog with (serving/placement.h).
     *
     * Computed once, lazily, by running the backend's own cycle
     * model over a seeded synthetic probe frame of the deployed
     * network's input size; identical configurations therefore
     * estimate identical service times.
     */
    double estimateServiceSec() const;

  private:
    mutable std::once_flag probe_once;
    mutable double probe_sec = 0.0;
};

/**
 * Base of the built-in backends: one modeled device that executes
 * the deployed network functionally and times the recorded trace
 * with its own cycle model.
 *
 * infer() is one PointNet2::run and inferBatch() one
 * PointNet2::runBatch followed by batchServiceSec(); both pass the
 * workspace and its intra-op thread budget through, and neither
 * records a wall span (callers that want one wrap the backend). A
 * device supplies only time() and, when batching amortizes its
 * work, a batchServiceSec() override.
 */
class ModeledBackend : public ExecutionBackend
{
  public:
    const std::string &name() const override { return nm; }
    const std::string &resource() const override { return res; }
    const PointNet2 &model() const override { return net_; }

    BackendInference infer(const PointCloud &input,
                           FrameWorkspace *workspace =
                               nullptr) const override;

    /** One PointNet2::runBatch pass: shared per-layer weight pass,
     * one arena reservation, per-frame outputs and traces
     * bit-identical to solo infer(). */
    BatchInference inferBatch(std::span<const PointCloud *const> inputs,
                              FrameWorkspace *workspace =
                                  nullptr) const override;

    /**
     * The device's cycle model over one frame's recorded workload.
     *
     * @param trace Execution trace of a run with this backend's ds
     *        method.
     * @return dsSec, fcSec and dsFcOverlap; backend name and output
     *         are left empty.
     */
    virtual BackendInference time(const ExecutionTrace &trace) const = 0;

  protected:
    /**
     * @param name Registry name.
     * @param resource Device occupied on the virtual timeline.
     * @param net Deployed network replica (borrowed).
     * @param ds Data-structuring method the device executes.
     * @param centroid Central-point selection.
     * @param seed Inference seed (centroid picks).
     */
    ModeledBackend(std::string name, std::string resource,
                   const PointNet2 &net, DsMethod ds,
                   CentroidMethod centroid, std::uint64_t seed);

  private:
    /** The functional options with @p workspace's thread budget. */
    RunOptions runOptions(FrameWorkspace *workspace) const;

    /** time() over @p out's trace, with the name and output
     * attached. */
    BackendInference timed(RunOutput out) const;

    std::string nm;
    std::string res;
    const PointNet2 &net_;
    RunOptions functional;
};

/** Seeded synthetic probe cloud: @p points uniform in the unit
 * cube — the representative input estimateServiceSec() times. */
PointCloud backendProbeCloud(std::size_t points);

} // namespace hgpcn

#endif // HGPCN_BACKENDS_EXECUTION_BACKEND_H
