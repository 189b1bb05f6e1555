/**
 * @file
 * Common farthest-point sampling (paper Fig. 6, Algorithm 1).
 *
 * The baseline the paper attacks: each of the K iterations scans every
 * point of the raw cloud, reading coordinates and the per-point
 * minimum-distance array from memory. The accounting here exposes why
 * the method is memory-bound — over 99% of the reads never contribute
 * a sampled point (Section II-A).
 */

#ifndef HGPCN_SAMPLING_FPS_SAMPLER_H
#define HGPCN_SAMPLING_FPS_SAMPLER_H

#include "common/rng.h"
#include "sampling/sampler.h"

namespace hgpcn
{

class FrameWorkspace;

/**
 * Exact farthest-point sampling with per-point cached minimum
 * distances (the strongest software formulation of Algorithm 1).
 */
class FpsSampler : public Sampler
{
  public:
    /** @param seed RNG seed for the initial point pick. */
    explicit FpsSampler(std::uint64_t seed = 1) : rng_seed(seed) {}

    SampleResult sample(const PointCloud &cloud, std::size_t k) override;

    /**
     * sample() with the per-point minimum-distance array taken from
     * @p workspace (core/frame_workspace.h) instead of a per-call
     * allocation. Identical picks and counters.
     */
    SampleResult sample(const PointCloud &cloud, std::size_t k,
                        FrameWorkspace *workspace);

    std::string name() const override { return "FPS"; }

    /**
     * Closed-form workload prediction for an (n, k) FPS run, used by
     * benches where actually executing the O(n*k) scan on
     * million-point frames would be prohibitive. All counters except
     * the data-dependent distance-array update count are exact; the
     * update count uses its expectation n*(1 + ln k) (each point's
     * minimum falls O(log k) times over k rounds), exact at k = 1,
     * where only the initialization writes. Requires
     * 1 <= k <= n, as sample() does.
     */
    static StatSet predictStats(std::uint64_t n, std::uint64_t k);

  private:
    std::uint64_t rng_seed;
};

/**
 * Paper-literal Algorithm 1: every iteration recomputes the distance
 * from each unpicked point to the entire picked set S, writes all
 * distances to memory and reads them back for the ranking ("all of
 * the computed distances (intermediate data) are written into the
 * memory, and then read again", Section III-A). O(N*K^2) work and
 * traffic — the baseline behind the paper's 800x-7500x measured
 * speedups (Fig. 10). Produces exactly the same picks as FpsSampler.
 */
class NaiveFpsSampler : public Sampler
{
  public:
    /** @param seed RNG seed for the initial point pick. */
    explicit NaiveFpsSampler(std::uint64_t seed = 1) : rng_seed(seed)
    {}

    SampleResult sample(const PointCloud &cloud, std::size_t k) override;

    std::string name() const override { return "FPS-naive"; }

  private:
    std::uint64_t rng_seed;
};

} // namespace hgpcn

#endif // HGPCN_SAMPLING_FPS_SAMPLER_H
