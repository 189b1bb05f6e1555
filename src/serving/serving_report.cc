#include "serving/serving_report.h"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>

#include "common/logging.h"

namespace hgpcn
{
namespace
{

/** (n-1)/span generation rate over a timestamp subsequence. */
double
generationFpsOf(const std::vector<double> &stamps)
{
    if (stamps.size() < 2)
        return 0.0;
    const double span = stamps.back() - stamps.front();
    if (span <= 0.0)
        return 0.0;
    return static_cast<double>(stamps.size() - 1) / span;
}

/** Completed / (first offer -> last completion); 0 on an empty
 * span. */
double
sustainedFpsOf(std::size_t done, double first_offer, double last_done)
{
    const double span = last_done - first_offer;
    return span > 0.0 ? static_cast<double>(done) / span : 0.0;
}

/** Position of every frame within its own sensor's sequence. */
std::vector<std::size_t>
sensorPositions(const SensorStream &stream)
{
    std::vector<std::size_t> position(stream.size(), 0);
    std::vector<std::size_t> seen(stream.sensorCount, 0);
    for (std::size_t i = 0; i < stream.size(); ++i)
        position[i] = seen[stream.sensors[i]]++;
    return position;
}

/** Aggregate makespan, sustained FPS and latency distribution over
 * the completions; rep.paced and rep.framesProcessed must be set. */
void
summarizeAggregate(ServingReport &rep, const SensorStream &stream,
                   const std::vector<ServedFrame> &frames)
{
    if (frames.empty())
        return;
    const double global_start =
        rep.paced && !stream.frames.empty()
            ? stream.frames.front().timestamp
            : 0.0;
    std::vector<double> latencies;
    latencies.reserve(frames.size());
    double max_done = global_start;
    for (const ServedFrame &sf : frames) {
        latencies.push_back(sf.latencySec);
        max_done = std::max(max_done, sf.doneSec);
    }
    rep.summarizeLatencies(std::move(latencies));
    rep.makespanSec = max_done - global_start;
    rep.sustainedFps =
        sustainedFpsOf(rep.framesProcessed, global_start, max_done);
}

/**
 * Per-sensor slices from the full stream (offered counts, capture
 * stamps) and the completions: spread, generation and sustained
 * rates, latency distribution and the Section VII-E verdict. Shed
 * and fault attribution is the caller's.
 */
void
summarizeSensors(ServingReport &rep, const SensorStream &stream,
                 const std::vector<ServedFrame> &frames)
{
    const std::size_t n = stream.sensorCount;
    rep.sensors.resize(n);
    std::vector<std::vector<double>> lat(n);
    std::vector<std::set<std::size_t>> shards(n);
    std::vector<std::vector<double>> stamps(n);
    std::vector<double> last_done(
        n, -std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        rep.sensors[stream.sensors[i]].framesIn++;
        stamps[stream.sensors[i]].push_back(stream.frames[i].timestamp);
    }
    for (const ServedFrame &sf : frames) {
        rep.sensors[sf.sensor].framesDone++;
        lat[sf.sensor].push_back(sf.latencySec);
        shards[sf.sensor].insert(sf.shard);
        last_done[sf.sensor] = std::max(last_done[sf.sensor], sf.doneSec);
    }
    for (std::size_t k = 0; k < n; ++k) {
        SensorServingReport &sr = rep.sensors[k];
        sr.sensor = k;
        sr.framesMissed = sr.framesIn - sr.framesDone;
        sr.shardSpread = shards[k].size();
        sr.generationFps = generationFpsOf(stamps[k]);
        if (sr.framesDone > 0) {
            sr.sustainedFps = sustainedFpsOf(
                sr.framesDone, rep.paced ? stamps[k].front() : 0.0,
                last_done[k]);
            sr.summarizeLatencies(std::move(lat[k]));
        }
        // The fixed Section VII-E semantics: a batch serve races no
        // sensor, so the verdict is n/a, never a vacuous YES.
        sr.realTime = evaluateRealTime(
            sr.sustainedFps, rep.paced ? sr.generationFps : 0.0);
    }
}

/** groupBackends() index of a shard with no attributed backend. */
constexpr std::size_t kNoBackend = std::numeric_limits<std::size_t>::max();

/** Group shards by rep.shardBackends name into rep.backends (first-
 * shard order, shards counted); @return each shard's slice index,
 * kNoBackend for unnamed shards. */
std::vector<std::size_t>
groupBackends(ServingReport &rep)
{
    std::vector<std::size_t> backend_of(rep.shardBackends.size(),
                                        kNoBackend);
    for (std::size_t s = 0; s < rep.shardBackends.size(); ++s) {
        const std::string &name = rep.shardBackends[s];
        if (name.empty())
            continue;
        std::size_t b = 0;
        while (b < rep.backends.size() &&
               rep.backends[b].backend != name)
            ++b;
        if (b == rep.backends.size()) {
            BackendServingReport br;
            br.backend = name;
            rep.backends.push_back(std::move(br));
        }
        backend_of[s] = b;
        rep.backends[b].shards++;
    }
    return backend_of;
}

/**
 * Finish the per-backend slices from the completions: done/missed
 * counts, sustained rate from @p first_offer[b] to the slice's last
 * completion, latency distribution and the Section VII-E verdict
 * against the routed traffic. framesIn and offeredFps must be set.
 */
void
finishBackends(ServingReport &rep, const std::vector<ServedFrame> &frames,
               const std::vector<std::size_t> &backend_of,
               const std::vector<double> &first_offer)
{
    const std::size_t n = rep.backends.size();
    std::vector<std::vector<double>> lat(n);
    std::vector<double> last_done(
        n, -std::numeric_limits<double>::infinity());
    for (const ServedFrame &sf : frames) {
        const std::size_t b = backend_of[sf.shard];
        if (b == kNoBackend)
            continue;
        rep.backends[b].framesDone++;
        lat[b].push_back(sf.latencySec);
        last_done[b] = std::max(last_done[b], sf.doneSec);
    }
    for (std::size_t b = 0; b < n; ++b) {
        BackendServingReport &br = rep.backends[b];
        br.framesMissed = br.framesIn - br.framesDone;
        if (br.framesDone > 0) {
            br.sustainedFps = sustainedFpsOf(
                br.framesDone, first_offer[b], last_done[b]);
            br.summarizeLatencies(std::move(lat[b]));
        }
        br.realTime = evaluateRealTime(
            br.sustainedFps, rep.paced ? br.offeredFps : 0.0);
    }
}

} // namespace

std::string
ServingReport::toString() const
{
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(1);
    oss << "serving: " << shardCount << " shard"
        << (shardCount == 1 ? "" : "s") << " ("
        << placementPolicyName(placement) << "), " << sensorCount
        << " sensor" << (sensorCount == 1 ? "" : "s")
        << (paced ? ", sensor-paced" : ", batch") << "\n";
    oss << "frames: " << framesProcessed << "/" << framesIn
        << " processed";
    if (framesDropped > 0)
        oss << ", " << framesDropped << " dropped";
    if (framesAbandoned > 0)
        oss << ", " << framesAbandoned << " abandoned";
    if (framesShed > 0)
        oss << ", " << framesShed << " shed";
    if (framesFailed > 0)
        oss << ", " << framesFailed << " failed";
    oss << "\n";
    // Printed only when some frame retried or degraded.
    if (framesRetried > 0 || framesDegraded > 0)
        oss << "fault-tolerance: " << framesRetried << " retried | "
            << framesDegraded << " degraded\n";
    oss << "aggregate: " << sustainedFps << " FPS over "
        << makespanSec * 1e3 << " ms";
    oss.precision(2);
    oss << " | latency ms: mean " << meanLatencySec * 1e3 << " | p50 "
        << p50LatencySec * 1e3 << " | p95 " << p95LatencySec * 1e3
        << " | p99 " << p99LatencySec * 1e3 << " | max "
        << maxLatencySec * 1e3 << "\n";
    oss.precision(1);
    for (std::size_t s = 0; s < shardReports.size(); ++s) {
        const RuntimeReport &r = shardReports[s];
        oss << "shard " << s;
        if (s < shardBackends.size() && !shardBackends[s].empty())
            oss << " [" << shardBackends[s] << "]";
        oss << ": " << r.framesProcessed << "/"
            << r.framesIn << " processed | sustained "
            << r.sustainedFps << " FPS";
        for (const TimelineStageStats &st : r.stages) {
            oss << " | " << st.name << " util "
                << static_cast<int>(st.utilization * 100.0 + 0.5)
                << "%";
        }
        // Batch-occupancy attribution, when batching is on.
        if (r.configuredMaxBatch > 1) {
            oss.precision(2);
            oss << " | batch mean " << r.meanBatchSize << " peak "
                << r.maxBatchSize << " (" << r.batchedFrames
                << " batched, " << r.soloFrames << " solo)";
            oss.precision(1);
        }
        oss << "\n";
    }
    for (const SensorServingReport &sr : sensors) {
        oss << "sensor " << sr.sensor << " [" << sr.shardSpread
            << " shard" << (sr.shardSpread == 1 ? "" : "s")
            << "]: " << sr.framesDone << "/" << sr.framesIn;
        if (sr.framesShed > 0)
            oss << " (" << sr.framesShed << " shed)";
        if (sr.framesFailed > 0)
            oss << " (" << sr.framesFailed << " failed)";
        if (sr.framesDegraded > 0)
            oss << " (" << sr.framesDegraded << " degraded)";
        if (sr.generationFps > 0.0)
            oss << " | sensor " << sr.generationFps << " FPS";
        oss << " | sustained " << sr.sustainedFps << " FPS";
        oss.precision(2);
        oss << " | p99 " << sr.p99LatencySec * 1e3 << " ms";
        oss.precision(1);
        oss << " | real-time: " << realTimeVerdictName(sr.realTime)
            << "\n";
    }
    for (const BackendServingReport &br : backends) {
        oss << "backend " << br.backend << " [" << br.shards
            << " shard" << (br.shards == 1 ? "" : "s")
            << "]: " << br.framesDone << "/" << br.framesIn;
        if (br.framesFailed > 0)
            oss << " (" << br.framesFailed << " failed)";
        if (br.framesRetried > 0)
            oss << " (" << br.framesRetried << " retried)";
        if (br.framesDegraded > 0)
            oss << " (" << br.framesDegraded << " degraded)";
        if (br.offeredFps > 0.0)
            oss << " | offered " << br.offeredFps << " FPS";
        oss << " | sustained " << br.sustainedFps << " FPS";
        oss.precision(2);
        oss << " | p99 " << br.p99LatencySec * 1e3 << " ms";
        oss.precision(1);
        oss << " | real-time: " << realTimeVerdictName(br.realTime)
            << "\n";
    }
    return oss.str();
}

ServingResult
mergeShardOutcomes(const SensorStream &stream,
                   std::vector<ShardOutcome> outcomes,
                   PlacementPolicy policy)
{
    HGPCN_ASSERT(stream.frames.size() == stream.sensors.size(),
                 "frames/sensors tags out of sync");

    ServingResult out;
    ServingReport &rep = out.report;
    rep.placement = policy;
    rep.shardCount = outcomes.size();
    rep.sensorCount = stream.sensorCount;
    const std::vector<std::size_t> sensor_index = sensorPositions(stream);

    rep.paced = true;
    for (const ShardOutcome &oc : outcomes) {
        const RuntimeReport &r = oc.result.report;
        rep.addCounts(r);
        if (r.framesIn > 0)
            rep.paced = rep.paced && r.paced;
        rep.shardReports.push_back(r);
        rep.shardBackends.push_back(oc.backend);
        out.metrics.merge(oc.result.metrics);
    }
    rep.framesIn = stream.size();

    // Re-anchor every shard clock onto the global timeline and
    // collect the completed frames.
    for (std::size_t s = 0; s < outcomes.size(); ++s) {
        ShardOutcome &oc = outcomes[s];
        for (ProcessedFrame &pf : oc.result.frames) {
            HGPCN_ASSERT(pf.index < oc.globalIndex.size(),
                         "shard ", s, " frame index ", pf.index,
                         " has no global mapping");
            const std::size_t g = oc.globalIndex[pf.index];
            ServedFrame sf;
            sf.globalIndex = g;
            sf.sensor = stream.sensors[g];
            sf.sensorIndex = sensor_index[g];
            sf.shard = s;
            sf.latencySec = pf.latencySec;
            sf.doneSec = oc.anchorSec + pf.doneSec;
            sf.result = std::move(pf.result);
            out.frames.push_back(std::move(sf));
        }
    }
    std::sort(out.frames.begin(), out.frames.end(),
              [](const ServedFrame &a, const ServedFrame &b) {
                  if (a.doneSec != b.doneSec)
                      return a.doneSec < b.doneSec;
                  return a.globalIndex < b.globalIndex;
              });

    summarizeAggregate(rep, stream, out.frames);
    summarizeSensors(rep, stream, out.frames);
    const std::vector<std::size_t> backend_of = groupBackends(rep);

    // Fault attribution: every shard reports its failed/retried/
    // degraded frames as shard-local indices; the globalIndex
    // mapping pins each to its sensor (and the shard's backend).
    for (std::size_t s = 0; s < outcomes.size(); ++s) {
        const ShardOutcome &oc = outcomes[s];
        const auto attribute =
            [&](const std::vector<std::size_t> &indices,
                std::size_t SensorServingReport::*sensor_field,
                std::size_t BackendServingReport::*backend_field) {
                for (const std::size_t idx : indices) {
                    HGPCN_ASSERT(idx < oc.globalIndex.size(),
                                 "shard ", s, " fault index ", idx,
                                 " has no global mapping");
                    const std::size_t g = oc.globalIndex[idx];
                    rep.sensors[stream.sensors[g]].*sensor_field +=
                        1;
                    if (backend_of[s] != kNoBackend)
                        rep.backends[backend_of[s]].*backend_field +=
                            1;
                }
            };
        attribute(oc.result.failedFrames,
                  &SensorServingReport::framesFailed,
                  &BackendServingReport::framesFailed);
        attribute(oc.result.retriedFrames,
                  &SensorServingReport::framesRetried,
                  &BackendServingReport::framesRetried);
        attribute(oc.result.degradedFrames,
                  &SensorServingReport::framesDegraded,
                  &BackendServingReport::framesDegraded);
    }

    // Per-backend slices, aggregated the way a sensor slice is: the
    // stamps of the frames dispatched to a backend's shards give its
    // offered rate and the start of its sustained window.
    const std::size_t n_backends = rep.backends.size();
    std::vector<std::vector<double>> offered(n_backends);
    for (std::size_t s = 0; s < outcomes.size(); ++s) {
        if (backend_of[s] == kNoBackend)
            continue;
        rep.backends[backend_of[s]].framesIn +=
            outcomes[s].globalIndex.size();
        for (const std::size_t g : outcomes[s].globalIndex)
            offered[backend_of[s]].push_back(stream.frames[g].timestamp);
    }
    std::vector<double> first_offer(n_backends, 0.0);
    for (std::size_t b = 0; b < n_backends; ++b) {
        std::sort(offered[b].begin(), offered[b].end());
        rep.backends[b].offeredFps = generationFpsOf(offered[b]);
        if (rep.paced && !offered[b].empty())
            first_offer[b] = offered[b].front();
    }
    finishBackends(rep, out.frames, backend_of, first_offer);
    return out;
}

ServingResult
mergeEpochResults(const SensorStream &stream,
                  std::vector<EpochOutcome> outcomes,
                  PlacementPolicy policy,
                  const std::vector<std::string> &shard_backends)
{
    HGPCN_ASSERT(stream.frames.size() == stream.sensors.size(),
                 "frames/sensors tags out of sync");

    ServingResult out;
    ServingReport &rep = out.report;
    rep.placement = policy;
    rep.sensorCount = stream.sensorCount;

    // Peak fleet width: every per-shard view is indexed by shard,
    // sized to the widest the fleet ever was (shard s keeps its
    // identity across reconfigurations).
    std::size_t peak = 0;
    for (const EpochOutcome &ep : outcomes) {
        peak = std::max(peak, ep.activeShards);
        peak = std::max(peak, ep.result.report.shardReports.size());
    }
    rep.shardCount = peak;
    const std::vector<std::size_t> sensor_index = sensorPositions(stream);

    // Counts, pacing, shed accounting.
    rep.paced = true;
    std::vector<std::size_t> sensor_shed(stream.sensorCount, 0);
    std::vector<SensorServingReport> sensor_faults(
        stream.sensorCount);
    for (const EpochOutcome &ep : outcomes) {
        const ServingReport &er = ep.result.report;
        rep.addCounts(er);
        // Epoch sub-streams keep the full stream's sensor space, so
        // per-sensor fault attributions sum index-wise.
        for (std::size_t k = 0;
             k < std::min(er.sensors.size(), stream.sensorCount);
             ++k) {
            sensor_faults[k].framesFailed +=
                er.sensors[k].framesFailed;
            sensor_faults[k].framesRetried +=
                er.sensors[k].framesRetried;
            sensor_faults[k].framesDegraded +=
                er.sensors[k].framesDegraded;
        }
        if (er.framesIn > 0)
            rep.paced = rep.paced && er.paced;
        rep.framesShed += ep.shedGlobalIndex.size();
        for (const std::size_t g : ep.shedGlobalIndex) {
            HGPCN_ASSERT(g < stream.size(), "shed index ", g,
                         " outside the stream");
            sensor_shed[stream.sensors[g]]++;
        }
        out.metrics.merge(ep.result.metrics);
    }
    // The epochs counted only the frames admission let through;
    // the serve was offered the whole stream.
    rep.framesIn = stream.size();

    // Collect completions onto global indices. Epoch serves stamp
    // completions on the global clock already (paced shard clocks
    // anchor at absolute timestamps), so no re-anchoring beyond the
    // index mapping is needed.
    for (EpochOutcome &ep : outcomes) {
        for (ServedFrame &sf : ep.result.frames) {
            HGPCN_ASSERT(sf.globalIndex < ep.globalIndex.size(),
                         "epoch frame index ", sf.globalIndex,
                         " has no global mapping");
            const std::size_t g = ep.globalIndex[sf.globalIndex];
            sf.globalIndex = g;
            sf.sensor = stream.sensors[g];
            sf.sensorIndex = sensor_index[g];
            out.frames.push_back(std::move(sf));
        }
    }

    // In-order delivery per sensor: a reconfigured fleet may finish
    // a sensor's later frame (new epoch, fresh shard) before an
    // earlier one still draining from the previous epoch. Delivery
    // order is the serving contract, so clamp each frame's
    // completion to its predecessor's and charge the wait to its
    // latency. Within an epoch the clamp is a no-op under sensor
    // affinity (FIFO pipelines); across epochs it is the handoff
    // serialization cost.
    std::sort(out.frames.begin(), out.frames.end(),
              [](const ServedFrame &a, const ServedFrame &b) {
                  return a.globalIndex < b.globalIndex;
              });
    std::vector<double> last_done(
        stream.sensorCount, -std::numeric_limits<double>::infinity());
    for (ServedFrame &sf : out.frames) {
        if (sf.doneSec < last_done[sf.sensor]) {
            sf.latencySec += last_done[sf.sensor] - sf.doneSec;
            sf.doneSec = last_done[sf.sensor];
        }
        last_done[sf.sensor] = sf.doneSec;
    }
    std::sort(out.frames.begin(), out.frames.end(),
              [](const ServedFrame &a, const ServedFrame &b) {
                  if (a.doneSec != b.doneSec)
                      return a.doneSec < b.doneSec;
                  return a.globalIndex < b.globalIndex;
              });

    summarizeAggregate(rep, stream, out.frames);

    // Per-shard views: shard s aggregated across every epoch it was
    // active in. Counts sum; busy time re-normalizes over the
    // summed per-epoch makespans; the latency distribution comes
    // from the shard's own completions (post-clamp).
    rep.shardReports.assign(peak, RuntimeReport{});
    rep.shardBackends.assign(peak, std::string());
    for (std::size_t s = 0;
         s < std::min(peak, shard_backends.size()); ++s)
        rep.shardBackends[s] = shard_backends[s];
    std::vector<double> shard_span(peak, 0.0);
    for (const EpochOutcome &ep : outcomes) {
        const std::vector<RuntimeReport> &ers =
            ep.result.report.shardReports;
        for (std::size_t s = 0; s < ers.size(); ++s) {
            RuntimeReport &agg = rep.shardReports[s];
            const RuntimeReport &er = ers[s];
            agg.addCounts(er);
            agg.paced = rep.paced;
            agg.policy = er.policy;
            agg.configuredMaxBatch = std::max(
                agg.configuredMaxBatch, er.configuredMaxBatch);
            agg.mergeBatches(er);
            shard_span[s] += er.makespanSec;
            // An epoch in which this shard served nothing reports
            // no stages; it contributes span but no busy time.
            if (er.stages.empty()) {
                continue;
            }
            if (agg.stages.empty()) {
                agg.stages = er.stages;
                for (TimelineStageStats &st : agg.stages) {
                    st.meanQueueDepth *= er.makespanSec;
                }
            } else {
                HGPCN_ASSERT(agg.stages.size() == er.stages.size(),
                             "shard ", s,
                             " stage sets differ across epochs");
                for (std::size_t st = 0; st < er.stages.size();
                     ++st) {
                    agg.stages[st].busySec +=
                        er.stages[st].busySec;
                    agg.stages[st].meanQueueDepth +=
                        er.stages[st].meanQueueDepth *
                        er.makespanSec;
                    agg.stages[st].peakQueueDepth = std::max(
                        agg.stages[st].peakQueueDepth,
                        er.stages[st].peakQueueDepth);
                }
            }
        }
    }
    std::vector<std::vector<double>> shard_lat(peak);
    for (const ServedFrame &sf : out.frames) {
        HGPCN_ASSERT(sf.shard < peak, "completed frame on shard ",
                     sf.shard, " beyond the peak fleet width ",
                     peak);
        shard_lat[sf.shard].push_back(sf.latencySec);
    }
    for (std::size_t s = 0; s < peak; ++s) {
        RuntimeReport &agg = rep.shardReports[s];
        agg.makespanSec = shard_span[s];
        agg.sustainedFps =
            shard_span[s] > 0.0
                ? static_cast<double>(agg.framesProcessed) /
                      shard_span[s]
                : 0.0;
        for (TimelineStageStats &st : agg.stages) {
            const double capacity =
                static_cast<double>(st.units) * shard_span[s];
            st.utilization =
                capacity > 0.0 ? st.busySec / capacity : 0.0;
            st.meanQueueDepth = shard_span[s] > 0.0
                                    ? st.meanQueueDepth /
                                          shard_span[s]
                                    : 0.0;
        }
        // Sorted first, so the shard mean sums in ascending order.
        std::sort(shard_lat[s].begin(), shard_lat[s].end());
        agg.summarizeLatencies(std::move(shard_lat[s]));
        agg.realTime = RealTimeVerdict::NotApplicable;
    }

    // Per-sensor slices from the clamped completions, plus the
    // shed and fault attribution the epochs recorded.
    summarizeSensors(rep, stream, out.frames);
    for (std::size_t k = 0; k < stream.sensorCount; ++k) {
        SensorServingReport &sr = rep.sensors[k];
        sr.framesShed = sensor_shed[k];
        sr.framesFailed = sensor_faults[k].framesFailed;
        sr.framesRetried = sensor_faults[k].framesRetried;
        sr.framesDegraded = sensor_faults[k].framesDegraded;
    }

    // Per-backend slices. Shard index -> backend is stable across
    // reconfigurations (ShardedRunner's cycling rule), so a
    // backend's fleet is a fixed set of shard indices; it is
    // *active* in an epoch when at least one of its shards is.
    // Dispatch identities of dropped frames are epoch-local, so the
    // elastic per-backend offered rate is dispatched / active
    // window rather than a stamp-span rate — closed-form from the
    // epoch logs either way.
    const std::vector<std::size_t> backend_of = groupBackends(rep);
    const std::size_t n_backends = rep.backends.size();
    std::vector<double> active_sec(n_backends, 0.0);
    std::vector<double> first_active(
        n_backends, std::numeric_limits<double>::infinity());
    for (const EpochOutcome &ep : outcomes) {
        const std::vector<RuntimeReport> &ers =
            ep.result.report.shardReports;
        std::vector<bool> seen_backend(n_backends, false);
        for (std::size_t s = 0; s < ers.size(); ++s) {
            const std::size_t b = backend_of[s];
            if (b == kNoBackend)
                continue;
            rep.backends[b].framesIn += ers[s].framesIn;
            rep.backends[b].framesFailed += ers[s].framesFailed;
            rep.backends[b].framesRetried += ers[s].framesRetried;
            rep.backends[b].framesDegraded += ers[s].framesDegraded;
            if (!seen_backend[b]) {
                seen_backend[b] = true;
                active_sec[b] += ep.endSec - ep.startSec;
                first_active[b] = std::min(first_active[b], ep.startSec);
            }
        }
    }
    for (std::size_t b = 0; b < n_backends; ++b) {
        BackendServingReport &br = rep.backends[b];
        br.offeredFps = active_sec[b] > 0.0
                            ? static_cast<double>(br.framesIn) /
                                  active_sec[b]
                            : 0.0;
    }
    finishBackends(rep, out.frames, backend_of, first_active);
    return out;
}

} // namespace hgpcn
