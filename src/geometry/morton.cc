#include "geometry/morton.h"

#include <algorithm>

#include "common/logging.h"

namespace hgpcn
{
namespace morton
{

std::uint32_t
compactBits3(Code v)
{
    Code x = v & 0x1249249249249249ull;
    x = (x ^ (x >> 2)) & 0x10c30c30c30c30c3ull;
    x = (x ^ (x >> 4)) & 0x100f00f00f00f00full;
    x = (x ^ (x >> 8)) & 0x1f0000ff0000ffull;
    x = (x ^ (x >> 16)) & 0x1f00000000ffffull;
    x = (x ^ (x >> 32)) & 0x1fffffull;
    return static_cast<std::uint32_t>(x);
}

Code
expandBits2(std::uint32_t v)
{
    Code x = v & 0x7fffffffull;
    x = (x | x << 16) & 0x0000ffff0000ffffull;
    x = (x | x << 8) & 0x00ff00ff00ff00ffull;
    x = (x | x << 4) & 0x0f0f0f0f0f0f0f0full;
    x = (x | x << 2) & 0x3333333333333333ull;
    x = (x | x << 1) & 0x5555555555555555ull;
    return x;
}

std::uint32_t
compactBits2(Code v)
{
    Code x = v & 0x5555555555555555ull;
    x = (x ^ (x >> 1)) & 0x3333333333333333ull;
    x = (x ^ (x >> 2)) & 0x0f0f0f0f0f0f0f0full;
    x = (x ^ (x >> 4)) & 0x00ff00ff00ff00ffull;
    x = (x ^ (x >> 8)) & 0x0000ffff0000ffffull;
    x = (x ^ (x >> 16)) & 0x00000000ffffffffull;
    return static_cast<std::uint32_t>(x);
}

void
decode3(Code code, int depth, CellCoord &x, CellCoord &y, CellCoord &z)
{
    HGPCN_ASSERT(depth >= 1 && depth <= kMaxDepth3d, "depth=", depth);
    x = compactBits3(code >> 2);
    y = compactBits3(code >> 1);
    z = compactBits3(code);
}

Code
encode2(CellCoord x, CellCoord y, int depth)
{
    HGPCN_ASSERT(depth >= 1 && depth <= kMaxDepth2d, "depth=", depth);
    return (expandBits2(x) << 1) | expandBits2(y);
}

float
voxelSize(int level, const Aabb &root)
{
    const Vec3 e = root.extent();
    const float side = std::max(e.x, std::max(e.y, e.z));
    return side / static_cast<float>(1u << level);
}

Vec3
voxelCenter(Code code, int level, const Aabb &root)
{
    CellCoord x = 0, y = 0, z = 0;
    decode3(code, level, x, y, z);
    const float s = voxelSize(level, root);
    return {root.lo.x + (static_cast<float>(x) + 0.5f) * s,
            root.lo.y + (static_cast<float>(y) + 0.5f) * s,
            root.lo.z + (static_cast<float>(z) + 0.5f) * s};
}

Aabb
voxelBounds(Code code, int level, const Aabb &root)
{
    CellCoord x = 0, y = 0, z = 0;
    decode3(code, level, x, y, z);
    const float s = voxelSize(level, root);
    const Vec3 lo{root.lo.x + static_cast<float>(x) * s,
                  root.lo.y + static_cast<float>(y) * s,
                  root.lo.z + static_cast<float>(z) * s};
    return {lo, {lo.x + s, lo.y + s, lo.z + s}};
}

std::uint64_t
codeBits(Code code, int level, int dims)
{
    // Re-emit the code as a decimal number whose digits are the bits,
    // e.g. quadtree code 0b1101 at level 2 renders as 1101.
    std::uint64_t out = 0;
    const int bits = level * dims;
    for (int i = bits - 1; i >= 0; --i) {
        out = out * 10 + ((code >> i) & 1u);
    }
    return out;
}

} // namespace morton
} // namespace hgpcn
