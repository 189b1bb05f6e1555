/**
 * @file
 * Spatial-hash (uniform voxel-bucket) exact K-nearest-neighbor index.
 *
 * HgPCN's thesis is that data structuring — neighbor search over the
 * raw cloud — dominates E2E latency (Section II, Fig. 3), and the
 * DSU attacks it in hardware with voxel expansion. This is the same
 * idea applied to the *host* execution path: bucket the points of a
 * level into a uniform grid (counting sort, O(n)), then serve each
 * query by expanding Chebyshev rings of cells around the query's
 * cell until no unscanned ring can hold a closer neighbor — visiting
 * only nearby buckets instead of all n points.
 *
 * Exactness: a point in ring r is at least (r-1)·cell away from the
 * query, so once that lower bound (shrunk by a float-rounding slack)
 * exceeds the current k-th best squared distance the candidate set
 * provably contains the true top-k. Final selection orders
 * candidates by (distSq, index) — the same lexicographic tie-break
 * the brute kernels use — so results are bit-identical to BruteKnn,
 * which stays in the tree as the oracle (tests/test_knn_index.cc).
 *
 * Accounting: the index is a host-side optimization, not a modeled
 * accelerator. When it stands in for the brute kernel of a modeled
 * device (Mesorasi's GPU, PointACC's Mapping Unit, the CPU
 * baseline — DsMethod::BruteKnn), the device still performs its
 * data-independent full scan, so Accounting::ModeledBrute reports
 * the brute counters (n distances + n sort candidates per query) and
 * every cycle model sees an unchanged workload. Accounting::Native
 * reports what the index actually did — bench/analysis use.
 */

#ifndef HGPCN_KNN_SPATIAL_HASH_KNN_H
#define HGPCN_KNN_SPATIAL_HASH_KNN_H

#include <cstdint>
#include <span>
#include <vector>

#include "gather/gatherer.h"

namespace hgpcn
{

class FrameWorkspace;
struct PointDelta;

/** Exact KNN over a uniform voxel-bucket grid. */
class SpatialHashKnn
{
  public:
    struct Config
    {
        /** Target mean points per occupied cell volume; sets the
         * grid resolution. */
        double targetOccupancy = 2.0;

        /** Clouds at or below this size skip the grid and scan all
         * points — the grid cannot win on tiny inputs (the FP
         * coarse levels go down to 16 points). */
        std::size_t bruteThreshold = 128;

        /** Grid resolution cap (memory guard). */
        std::int32_t maxCellsPerAxis = 256;
    };

    /** Workload counters to report (see file comment). */
    enum class Accounting
    {
        Native,       //!< what the index actually computed
        ModeledBrute, //!< the brute kernel it replaces (full scan)
    };

    /**
     * Build the index over @p positions (borrowed; must outlive the
     * index). O(n) counting sort into CSR buckets. When @p ws is
     * given, bucket storage and query scratch come from the
     * workspace — zero heap traffic once warm; at most one
     * workspace-backed index may be alive per workspace.
     */
    explicit SpatialHashKnn(std::span<const Vec3> positions,
                            FrameWorkspace *ws = nullptr);

    SpatialHashKnn(std::span<const Vec3> positions,
                   const Config &config, FrameWorkspace *ws = nullptr);

    /** Empty index; call rebuild() before querying. Lets pooled
     * owners (core/temporal_preprocess.h) hold the index by value
     * and reuse its bucket storage across frames. */
    SpatialHashKnn() = default;

    /**
     * (Re)build the index in place — identical result to
     * constructing fresh, but owned storage keeps its capacity.
     */
    void rebuild(std::span<const Vec3> positions, const Config &config,
                 FrameWorkspace *ws = nullptr);

    /**
     * Rebuild incrementally from @p prev using the cross-frame
     * @p delta (geometry/point_delta.h): bucket counts are adjusted
     * by the insert/evict lists and only dirty cells re-bucket;
     * clean cells remap their previous order through the delta.
     * Output is bit-identical to rebuild() over @p positions.
     *
     * Engages only when both indices own their storage (no
     * workspace), the previous index ran the grid path, and the
     * freshly derived grid geometry is bit-identical to @p prev's.
     * @return false when it could not engage — the index is then
     * unchanged and the caller must rebuild() from scratch.
     */
    bool rebuildFrom(const SpatialHashKnn &prev,
                     std::span<const Vec3> positions,
                     const PointDelta &delta);

    /**
     * @return the capacities of the owned buffers rebuild() and
     * rebuildFrom() write, in a fixed order (for pooled owners that
     * keep idle indices grown to a high water).
     */
    std::vector<std::size_t> capacities() const;

    /** Grow the owned buffers to at least @p caps (a capacities()
     * vector, possibly another index's). @return true if any grew. */
    bool reserveCapacities(std::span<const std::size_t> caps);

    /** Grow the owned buffers so that rebuildFrom(@p prev, @p n
     * positions, @p delta) allocates nothing: it may then run on a
     * thread whose allocations should not touch the heap. */
    void reserveFrom(const SpatialHashKnn &prev, std::size_t n,
                     const PointDelta &delta);

    /**
     * K nearest indexed points of every query position, each
     * query's neighbors in ascending (distSq, index) order — the
     * brute kernels' exact output. k is clamped to the cloud size
     * (result.k reports the effective k).
     */
    GatherResult gatherAt(std::span<const Vec3> queries, std::size_t k,
                          Accounting acc = Accounting::Native) const;

    /** gatherAt() anchored at member points (BruteKnn::gather
     * equivalent: the anchor itself is a distance-0 candidate). */
    GatherResult gather(std::span<const PointIndex> centrals,
                        std::size_t k,
                        Accounting acc = Accounting::Native) const;

    /** @return true when queries run over the grid (false: brute
     * fallback for tiny or degenerate clouds). */
    bool usesGrid() const { return grid_built; }

    /** @return grid cell edge length (0 when brute fallback). */
    float cellSize() const { return cell; }

    /** @return indexed point count. */
    std::size_t size() const { return pts.size(); }

  private:
    struct CellCoord
    {
        std::int32_t x, y, z;
    };

    CellCoord cellOf(const Vec3 &p) const;
    std::size_t cellId(std::int32_t x, std::int32_t y,
                       std::int32_t z) const;

    /** Append all candidates of the Chebyshev ring @p r around
     * @p center to @p scored; @return cells visited. */
    std::size_t scanRing(const CellCoord &center, std::int32_t r,
                         const Vec3 &q,
                         std::vector<std::pair<float, PointIndex>>
                             &scored) const;

    std::span<const Vec3> pts;
    Config cfg;
    FrameWorkspace *workspace;

    bool grid_built = false;
    Vec3 origin{};      //!< grid min corner
    float cell = 0.0f;  //!< cell edge length
    std::int32_t nx = 1, ny = 1, nz = 1;

    /** CSR buckets: either the workspace's buffers or these owned
     * ones (never both). */
    std::vector<std::uint32_t> own_start;
    std::vector<PointIndex> own_order;
    std::vector<std::uint32_t> own_cell_of;
    std::vector<std::uint32_t> *cell_start = nullptr; //!< size cells+1
    std::vector<PointIndex> *order = nullptr;         //!< size n
    std::vector<std::uint32_t> *cell_of = nullptr;    //!< size n

    mutable std::vector<std::pair<float, PointIndex>> own_scored;
    std::vector<std::pair<float, PointIndex>> *scored_buf = nullptr;

    /** rebuildFrom() scratch, reused across frames. */
    std::vector<std::uint8_t> dirty_cells;
    std::vector<std::pair<std::uint32_t, PointIndex>> cell_inserts;
};

} // namespace hgpcn

#endif // HGPCN_KNN_SPATIAL_HASH_KNN_H
