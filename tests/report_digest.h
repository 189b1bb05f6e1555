/**
 * @file
 * FNV-1a digests of whole stream and serving reports, for tests that
 * pin every field of a report at once. Doubles are taken by bit
 * pattern, so a digest moves on any change of a single output bit —
 * the hand-computed merge tests pin a few fields each, these pin all
 * of them. metricsDigest does the same for a run's metrics snapshot.
 */

#ifndef HGPCN_TESTS_REPORT_DIGEST_H
#define HGPCN_TESTS_REPORT_DIGEST_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "runtime/stream_runner.h"
#include "serving/serving_report.h"

namespace hgpcn
{
namespace digest
{

/** FNV-1a accumulator over the bytes of plain values. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    template <typename T>
    void
    value(const T &v)
    {
        unsigned char raw[sizeof v];
        std::memcpy(raw, &v, sizeof v);
        bytes(raw, sizeof raw);
    }

    void
    str(const std::string &s)
    {
        value(s.size());
        bytes(s.data(), s.size());
    }
};

inline void
hashStage(Fnv1a &fnv, const TimelineStageStats &st)
{
    fnv.str(st.name);
    fnv.str(st.resource);
    fnv.value(st.units);
    fnv.value(st.busySec);
    fnv.value(st.utilization);
    fnv.value(st.meanQueueDepth);
    fnv.value(st.peakQueueDepth);
}

/** Every field of a RuntimeReport. */
inline void
hashRuntimeReport(Fnv1a &fnv, const RuntimeReport &r)
{
    fnv.value(r.framesIn);
    fnv.value(r.framesProcessed);
    fnv.value(r.framesDropped);
    fnv.value(r.framesAbandoned);
    fnv.value(r.framesFailed);
    fnv.value(r.framesRetried);
    fnv.value(r.framesDegraded);
    fnv.value(r.makespanSec);
    fnv.value(r.sustainedFps);
    fnv.value(r.meanLatencySec);
    fnv.value(r.p50LatencySec);
    fnv.value(r.p95LatencySec);
    fnv.value(r.p99LatencySec);
    fnv.value(r.maxLatencySec);
    fnv.value(r.generationFps);
    fnv.value(static_cast<int>(r.realTime));
    fnv.value(static_cast<int>(r.policy));
    fnv.value(r.paced);
    fnv.value(r.stages.size());
    for (const TimelineStageStats &st : r.stages)
        hashStage(fnv, st);
    fnv.value(r.temporalSubtreeReusePct);
    fnv.value(r.temporalKnnHitPct);
    fnv.value(r.configuredMaxBatch);
    fnv.value(r.batchCount);
    fnv.value(r.batchedFrames);
    fnv.value(r.soloFrames);
    fnv.value(r.meanBatchSize);
    fnv.value(r.maxBatchSize);
}

/** A runner's report plus every completed frame's schedule. */
inline std::uint64_t
runtimeDigest(const RuntimeResult &rt)
{
    Fnv1a fnv;
    hashRuntimeReport(fnv, rt.report);
    fnv.value(rt.frames.size());
    for (const ProcessedFrame &pf : rt.frames) {
        fnv.value(pf.index);
        fnv.value(pf.latencySec);
        fnv.value(pf.doneSec);
    }
    return fnv.h;
}

/** Every field of a ServingReport (shard, sensor and backend slices
 * included) plus each served frame's placement and schedule. */
inline std::uint64_t
servingDigest(const ServingResult &served)
{
    const ServingReport &r = served.report;
    Fnv1a fnv;
    fnv.value(static_cast<int>(r.placement));
    fnv.value(r.shardCount);
    fnv.value(r.sensorCount);
    fnv.value(r.framesIn);
    fnv.value(r.framesProcessed);
    fnv.value(r.framesDropped);
    fnv.value(r.framesAbandoned);
    fnv.value(r.framesShed);
    fnv.value(r.framesFailed);
    fnv.value(r.framesRetried);
    fnv.value(r.framesDegraded);
    fnv.value(r.paced);
    fnv.value(r.makespanSec);
    fnv.value(r.sustainedFps);
    fnv.value(r.meanLatencySec);
    fnv.value(r.p50LatencySec);
    fnv.value(r.p95LatencySec);
    fnv.value(r.p99LatencySec);
    fnv.value(r.maxLatencySec);
    fnv.value(r.shardReports.size());
    for (const RuntimeReport &sr : r.shardReports)
        hashRuntimeReport(fnv, sr);
    fnv.value(r.shardBackends.size());
    for (const std::string &name : r.shardBackends)
        fnv.str(name);
    fnv.value(r.sensors.size());
    for (const SensorServingReport &s : r.sensors) {
        fnv.value(s.sensor);
        fnv.value(s.shardSpread);
        fnv.value(s.framesIn);
        fnv.value(s.framesDone);
        fnv.value(s.framesMissed);
        fnv.value(s.framesShed);
        fnv.value(s.framesFailed);
        fnv.value(s.framesRetried);
        fnv.value(s.framesDegraded);
        fnv.value(s.generationFps);
        fnv.value(s.sustainedFps);
        fnv.value(s.p50LatencySec);
        fnv.value(s.p95LatencySec);
        fnv.value(s.p99LatencySec);
        fnv.value(s.maxLatencySec);
        fnv.value(static_cast<int>(s.realTime));
    }
    fnv.value(r.backends.size());
    for (const BackendServingReport &b : r.backends) {
        fnv.str(b.backend);
        fnv.value(b.shards);
        fnv.value(b.framesIn);
        fnv.value(b.framesDone);
        fnv.value(b.framesMissed);
        fnv.value(b.framesFailed);
        fnv.value(b.framesRetried);
        fnv.value(b.framesDegraded);
        fnv.value(b.offeredFps);
        fnv.value(b.sustainedFps);
        fnv.value(b.p50LatencySec);
        fnv.value(b.p95LatencySec);
        fnv.value(b.p99LatencySec);
        fnv.value(b.maxLatencySec);
        fnv.value(static_cast<int>(b.realTime));
    }
    fnv.value(served.frames.size());
    for (const ServedFrame &sf : served.frames) {
        fnv.value(sf.globalIndex);
        fnv.value(sf.shard);
        fnv.value(sf.latencySec);
        fnv.value(sf.doneSec);
    }
    return fnv.h;
}

/** Every entry of a metrics snapshot: name, kind, count, value,
 * min, max, bounds and buckets. Counters whose count is 0 are
 * skipped, so registering a counter that stays at zero does not
 * move the digest. */
inline std::uint64_t
metricsDigest(const MetricsSnapshot &snap)
{
    Fnv1a fnv;
    for (const auto &[name, v] : snap.values) {
        if (v.kind == MetricValue::Kind::Counter && v.count == 0)
            continue;
        fnv.str(name);
        fnv.value(static_cast<int>(v.kind));
        fnv.value(v.count);
        fnv.value(v.value);
        fnv.value(v.min);
        fnv.value(v.max);
        fnv.value(v.bounds.size());
        for (const double b : v.bounds)
            fnv.value(b);
        fnv.value(v.buckets.size());
        for (const std::uint64_t c : v.buckets)
            fnv.value(c);
    }
    return fnv.h;
}

} // namespace digest
} // namespace hgpcn

#endif // HGPCN_TESTS_REPORT_DIGEST_H
