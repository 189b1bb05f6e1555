#include "geometry/point_cloud.h"

#include <algorithm>

#include "common/logging.h"

namespace hgpcn
{

void
PointCloud::reserve(std::size_t n)
{
    pos.reserve(n);
    feat.reserve(n * featDim);
}

void
PointCloud::add(const Vec3 &p)
{
    pos.push_back(p);
    feat.resize(feat.size() + featDim, 0.0f);
}

void
PointCloud::add(const Vec3 &p, std::span<const float> features)
{
    HGPCN_ASSERT(features.size() == featDim, "feature width mismatch: ",
                 features.size(), " != ", featDim);
    pos.push_back(p);
    feat.insert(feat.end(), features.begin(), features.end());
}

std::span<const float>
PointCloud::feature(PointIndex i) const
{
    return {feat.data() + static_cast<std::size_t>(i) * featDim, featDim};
}

std::span<float>
PointCloud::feature(PointIndex i)
{
    return {feat.data() + static_cast<std::size_t>(i) * featDim, featDim};
}

Aabb
PointCloud::bounds() const
{
    Aabb box;
    for (const auto &p : pos)
        box.expand(p);
    return box;
}

void
PointCloud::normalizeToUnitCube()
{
    if (empty())
        return;
    const Aabb box = bounds().cubified();
    const float side = box.extent().x;
    const float inv = side > 0.0f ? 1.0f / side : 1.0f;
    for (auto &p : pos)
        p = (p - box.lo) * inv;
}

PointCloud
PointCloud::gather(std::span<const PointIndex> indices) const
{
    PointCloud out(featDim);
    out.reserve(indices.size());
    for (PointIndex i : indices) {
        HGPCN_ASSERT(i < size(), "gather index out of range: ", i);
        out.add(pos[i], feature(i));
    }
    return out;
}

void
PointCloud::assignGathered(const PointCloud &src,
                           std::span<const PointIndex> indices)
{
    HGPCN_ASSERT(this != &src, "assignGathered cannot self-gather");
    const std::size_t n = indices.size();
    featDim = src.featDim;
    pos.resize(n);
    feat.resize(n * featDim);
    for (std::size_t i = 0; i < n; ++i) {
        const PointIndex j = indices[i];
        HGPCN_ASSERT(j < src.size(), "gather index out of range: ", j);
        pos[i] = src.pos[j];
        if (featDim > 0) {
            std::copy_n(src.feat.data() +
                            static_cast<std::size_t>(j) * featDim,
                        featDim, feat.data() + i * featDim);
        }
    }
}

void
PointCloud::resize(std::size_t n, std::size_t feature_dim)
{
    featDim = feature_dim;
    pos.resize(n);
    feat.resize(n * feature_dim);
}

void
PointCloud::clear()
{
    pos.clear();
    feat.clear();
}

PointCloud
PointCloud::reordered(std::span<const PointIndex> perm) const
{
    HGPCN_ASSERT(perm.size() == size(), "permutation size mismatch");
    return gather(perm);
}

} // namespace hgpcn
