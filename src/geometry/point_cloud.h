/**
 * @file
 * Point cloud container.
 *
 * A point cloud is the set x = {(p_k, f_k)} of Section II-A: XYZ
 * coordinates plus an optional fixed-width per-point feature vector.
 * Storage is structure-of-arrays so that coordinate-only passes
 * (octree build, sampling) never touch feature memory.
 */

#ifndef HGPCN_GEOMETRY_POINT_CLOUD_H
#define HGPCN_GEOMETRY_POINT_CLOUD_H

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/aabb.h"
#include "geometry/vec3.h"

namespace hgpcn
{

/** Index of a point inside a PointCloud. */
using PointIndex = std::uint32_t;

/**
 * A set of 3D points with an optional per-point feature vector of
 * uniform width.
 */
class PointCloud
{
  public:
    /** Create an empty cloud whose points carry @p feature_dim floats. */
    explicit PointCloud(std::size_t feature_dim = 0)
        : featDim(feature_dim)
    {}

    /** @return number of points. */
    std::size_t size() const { return pos.size(); }

    /** @return true when the cloud holds no points. */
    bool empty() const { return pos.empty(); }

    /** @return width of the per-point feature vector (may be 0). */
    std::size_t featureDim() const { return featDim; }

    /** Pre-allocate capacity for @p n points. */
    void reserve(std::size_t n);

    /** Append a point with zeroed features. */
    void add(const Vec3 &p);

    /** Append a point with features (must match featureDim()). */
    void add(const Vec3 &p, std::span<const float> features);

    /** @return coordinate of point @p i. */
    const Vec3 &position(PointIndex i) const { return pos[i]; }

    /** @return mutable coordinate of point @p i. */
    Vec3 &position(PointIndex i) { return pos[i]; }

    /** @return all coordinates. */
    const std::vector<Vec3> &positions() const { return pos; }

    /** @return feature vector of point @p i. */
    std::span<const float> feature(PointIndex i) const;

    /** @return mutable feature vector of point @p i. */
    std::span<float> feature(PointIndex i);

    /** @return axis-aligned bounds of all points. */
    Aabb bounds() const;

    /**
     * Scale and translate all coordinates into the unit cube [0,1]^3
     * (the normalization most down-sampling methods perform before
     * sampling, per Section V). No-op on an empty cloud.
     */
    void normalizeToUnitCube();

    /**
     * @return a new cloud containing the points listed in @p indices
     * (in that order), carrying their features.
     */
    PointCloud gather(std::span<const PointIndex> indices) const;

    /**
     * Overwrite this cloud with the points of @p src listed in
     * @p indices (in that order), carrying their features. Identical
     * output to gather(), but storage capacity is reused — the
     * pooled-octree rebuild path (zero-alloc steady state).
     */
    void assignGathered(const PointCloud &src,
                        std::span<const PointIndex> indices);

    /**
     * Resize to @p n points of @p feature_dim floats each, reusing
     * storage. Entries keep stale (or zero) values until written
     * through position() and feature().
     */
    void resize(std::size_t n, std::size_t feature_dim);

    /** Drop all points; feature width and capacity are kept. */
    void clear();

    /** @return allocated point capacity (growth accounting). */
    std::size_t capacity() const { return pos.capacity(); }

    /**
     * @return a copy of this cloud with points permuted so that
     * point i of the result is point perm[i] of this cloud. Used by
     * the octree's host-memory pre-configuration step.
     */
    PointCloud reordered(std::span<const PointIndex> perm) const;

  private:
    std::size_t featDim;
    std::vector<Vec3> pos;
    std::vector<float> feat; // row-major, featDim floats per point
};

} // namespace hgpcn

#endif // HGPCN_GEOMETRY_POINT_CLOUD_H
