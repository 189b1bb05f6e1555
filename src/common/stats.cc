#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace hgpcn
{

void
StatSet::add(const std::string &name, std::uint64_t delta)
{
    counters[name] += delta;
}

void
StatSet::set(const std::string &name, std::uint64_t value)
{
    counters[name] = value;
}

std::uint64_t
StatSet::get(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

bool
StatSet::has(const std::string &name) const
{
    return counters.find(name) != counters.end();
}

void
StatSet::merge(const StatSet &other)
{
    for (const auto &[name, value] : other.counters)
        counters[name] += value;
}

void
StatSet::clear()
{
    counters.clear();
}

std::string
StatSet::toString() const
{
    std::ostringstream oss;
    for (const auto &[name, value] : counters)
        oss << name << "=" << value << "\n";
    return oss.str();
}

void
ConcurrentStatSet::merge(const StatSet &delta)
{
    std::lock_guard<std::mutex> lock(mu);
    aggregate.merge(delta);
}

void
ConcurrentStatSet::add(const std::string &name, std::uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mu);
    aggregate.add(name, delta);
}

StatSet
ConcurrentStatSet::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    return aggregate;
}

void
ConcurrentStatSet::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    aggregate.clear();
}

double
percentileNearestRank(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double rank =
        std::ceil(q * static_cast<double>(sorted.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

void
LatencySummary::summarizeLatencies(std::vector<double> samples)
{
    *this = LatencySummary{};
    if (samples.empty())
        return;
    for (const double x : samples)
        meanLatencySec += x;
    meanLatencySec /= static_cast<double>(samples.size());
    std::sort(samples.begin(), samples.end());
    p50LatencySec = percentileNearestRank(samples, 0.50);
    p95LatencySec = percentileNearestRank(samples, 0.95);
    p99LatencySec = percentileNearestRank(samples, 0.99);
    maxLatencySec = samples.back();
}

} // namespace hgpcn
