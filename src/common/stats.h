/**
 * @file
 * Lightweight named statistic counters.
 *
 * Algorithms in this library report their workload (memory accesses,
 * distances computed, sort candidates, ...) through StatSet so that
 * benches and simulators consume identical numbers. A StatSet is a
 * plain value type: copyable, mergeable, and printable.
 */

#ifndef HGPCN_COMMON_STATS_H
#define HGPCN_COMMON_STATS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hgpcn
{

/**
 * A collection of named 64-bit counters.
 *
 * Keys are created on first use; reading a missing key returns 0.
 */
class StatSet
{
  public:
    /** Add @p delta to counter @p name (creating it at 0). */
    void add(const std::string &name, std::uint64_t delta = 1);

    /** Set counter @p name to @p value. */
    void set(const std::string &name, std::uint64_t value);

    /** @return value of counter @p name, 0 when absent. */
    std::uint64_t get(const std::string &name) const;

    /** @return true when counter @p name exists. */
    bool has(const std::string &name) const;

    /** Merge another stat set into this one (counter-wise sum). */
    void merge(const StatSet &other);

    /** Drop all counters. */
    void clear();

    /** @return number of distinct counters. */
    std::size_t size() const { return counters.size(); }

    /** @return all counters, sorted by name. */
    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters;
    }

    /** Render as "name=value" lines for logs. */
    std::string toString() const;

  private:
    std::map<std::string, std::uint64_t> counters;
};

/**
 * A StatSet shared between threads.
 *
 * Pipeline workers (src/runtime) merge their per-frame StatSets into
 * one of these; the runner snapshots it after the stream drains.
 * Only aggregation is offered — fine-grained add() calls should go
 * to a thread-local StatSet first to keep the lock cold.
 */
class ConcurrentStatSet
{
  public:
    ConcurrentStatSet() = default;
    ConcurrentStatSet(const ConcurrentStatSet &) = delete;
    ConcurrentStatSet &operator=(const ConcurrentStatSet &) = delete;

    /** Merge @p delta (counter-wise sum) under the lock. */
    void merge(const StatSet &delta);

    /** Add @p delta to one counter under the lock. */
    void add(const std::string &name, std::uint64_t delta = 1);

    /** @return a consistent copy of the aggregate. */
    StatSet snapshot() const;

    /** Drop all counters. */
    void clear();

  private:
    mutable std::mutex mu;
    StatSet aggregate;
};

/**
 * Nearest-rank percentile of an ascending-sorted sample; 0 for an
 * empty sample. The single latency-percentile definition, shared by
 * RuntimeReport (per-run) and ServingReport (merged across shards)
 * so aggregate numbers stay comparable to per-shard ones.
 */
double percentileNearestRank(const std::vector<double> &sorted,
                             double q);

/**
 * Mean, nearest-rank percentiles and maximum of a latency sample, in
 * seconds: the latency fields of RuntimeReport, ServingReport and its
 * per-sensor and per-backend slices, declared once here.
 */
struct LatencySummary
{
    double meanLatencySec = 0;
    double p50LatencySec = 0;
    double p95LatencySec = 0;
    double p99LatencySec = 0;
    double maxLatencySec = 0;

    /**
     * Fill every field from @p samples: the mean is summed in the
     * order given, then the sample is sorted for the percentiles
     * (percentileNearestRank) and the maximum. All zeros for an
     * empty sample.
     */
    void summarizeLatencies(std::vector<double> samples);
};

} // namespace hgpcn

#endif // HGPCN_COMMON_STATS_H
