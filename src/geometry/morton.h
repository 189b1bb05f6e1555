/**
 * @file
 * Morton m-codes and Space-Filling-Curve helpers.
 *
 * The paper's spatial index (Section V) keys every octree voxel with a
 * Morton m-code [18]: each subdivision appends three bits where the
 * first bit is the X half, the second the Y half and the third the Z
 * half of the parent voxel (two bits, X then Y, in the 2D quadtree
 * illustration of Fig. 5). Sorting points by their full-depth m-code
 * yields the SFC traversal order that the Octree-based host-memory
 * reorganization uses, and the Hamming distance between two m-codes is
 * the voxel-distance metric evaluated by the Sampling Modules (Fig. 7)
 * with a single XOR + popcount.
 */

#ifndef HGPCN_GEOMETRY_MORTON_H
#define HGPCN_GEOMETRY_MORTON_H

#include <bit>
#include <cstdint>

#include "common/logging.h"
#include "geometry/aabb.h"
#include "geometry/vec3.h"

namespace hgpcn
{
namespace morton
{

/** Deepest supported octree level (3 bits/level in a 64-bit code). */
constexpr int kMaxDepth3d = 21;

/** Integer cell coordinate along one axis at some level. */
using CellCoord = std::uint32_t;

/** A Morton code; interpretation depends on the level it pairs with. */
using Code = std::uint64_t;

/** Spread the low 21 bits of @p v so consecutive bits are 3 apart. */
inline Code
expandBits3(std::uint32_t v)
{
    // Classic 21-bit interleave-by-3 bit smear.
    Code x = v & 0x1fffffull;
    x = (x | x << 32) & 0x1f00000000ffffull;
    x = (x | x << 16) & 0x1f0000ff0000ffull;
    x = (x | x << 8) & 0x100f00f00f00f00full;
    x = (x | x << 4) & 0x10c30c30c30c30c3ull;
    x = (x | x << 2) & 0x1249249249249249ull;
    return x;
}

/** Inverse of expandBits3: gather every third bit. */
std::uint32_t compactBits3(Code v);

/**
 * Encode a 3D cell into a Morton code of 3*depth bits.
 *
 * Bit layout per level (most significant group = level 1): X,Y,Z —
 * matching the paper's "first bit represents the X-axis" convention.
 *
 * @param x,y,z Cell coordinates in [0, 2^depth).
 * @param depth Octree depth (1..kMaxDepth3d).
 */
inline Code
encode3(CellCoord x, CellCoord y, CellCoord z, int depth)
{
    HGPCN_ASSERT(depth >= 1 && depth <= kMaxDepth3d, "depth=", depth);
    // X occupies the most significant bit of each 3-bit group.
    return (expandBits3(x) << 2) | (expandBits3(y) << 1) | expandBits3(z);
}

/** Decode a 3*depth-bit Morton code back into cell coordinates. */
void decode3(Code code, int depth, CellCoord &x, CellCoord &y, CellCoord &z);

/** @return code of the @p octant child (0..7) of @p parent. */
constexpr Code
child3(Code parent, unsigned octant)
{
    return (parent << 3) | (octant & 7u);
}

/** @return code of the parent voxel. */
constexpr Code
parent3(Code code)
{
    return code >> 3;
}

/** @return which octant (0..7) of its parent this voxel is. */
constexpr unsigned
octant3(Code code)
{
    return static_cast<unsigned>(code & 7u);
}

/**
 * @return the ancestor of a full-depth @p code at @p level
 * (level 0 = root, i.e. code 0).
 */
constexpr Code
ancestorAt(Code code, int full_depth, int level)
{
    return code >> (3 * (full_depth - level));
}

/**
 * Hamming distance between two m-codes of equal bit length — the
 * voxel distance metric of the Sampling Modules (XOR + popcount).
 */
constexpr int
hamming(Code a, Code b)
{
    return std::popcount(a ^ b);
}

/**
 * XOR magnitude between two codes. Used as the tie-breaker in the
 * farthest-voxel descent: a larger XOR flips more significant (i.e.
 * coarser, geometrically larger) axes first.
 */
constexpr Code
xorMagnitude(Code a, Code b)
{
    return a ^ b;
}

/**
 * Cell of coordinate @p v along one axis of @p cells cells spanning
 * [lo, lo + len). The grid position is clamped in float before the
 * integer conversion, so every input — outside the root, ±Inf, huge
 * or NaN — maps to a cell in [0, cells): below or NaN to 0, at or
 * past the end to cells - 1.
 */
inline CellCoord
axisCell(float v, float lo, float len, std::uint32_t cells)
{
    const float t = len > 0.0f ? (v - lo) / len : 0.0f;
    const float f = t * static_cast<float>(cells);
    if (!(f > 0.0f))
        return 0;
    if (f >= static_cast<float>(cells))
        return cells - 1;
    return static_cast<CellCoord>(f);
}

/**
 * Map a point to its integer cell coordinates at @p depth inside the
 * (cubified) root voxel @p root.
 *
 * Points should lie inside @p root; coordinates are clamped to the
 * grid (axisCell()) so boundary points land in the last cell.
 */
inline void
cellOf(const Vec3 &p, const Aabb &root, int depth, CellCoord &x,
       CellCoord &y, CellCoord &z)
{
    const std::uint32_t cells = 1u << depth;
    const Vec3 e = root.extent();
    x = axisCell(p.x, root.lo.x, e.x, cells);
    y = axisCell(p.y, root.lo.y, e.y, cells);
    z = axisCell(p.z, root.lo.z, e.z, cells);
}

/**
 * Full-depth m-code of point @p p inside @p root: encode3() of
 * cellOf(). The octree build calls it per point with the depth it
 * checked once, so @p depth (1..kMaxDepth3d) is not re-checked here.
 */
inline Code
pointCode3(const Vec3 &p, const Aabb &root, int depth)
{
    CellCoord x = 0, y = 0, z = 0;
    cellOf(p, root, depth, x, y, z);
    return (expandBits3(x) << 2) | (expandBits3(y) << 1) | expandBits3(z);
}

/**
 * @return center of the voxel identified by @p code at @p level
 * within @p root.
 */
Vec3 voxelCenter(Code code, int level, const Aabb &root);

/** @return edge length of a voxel at @p level within @p root. */
float voxelSize(int level, const Aabb &root);

/** @return axis-aligned bounds of a voxel. */
Aabb voxelBounds(Code code, int level, const Aabb &root);

/**
 * Render a code as the paper's bit-string notation (e.g. "110101"
 * for a level-3 quadtree voxel) for debugging and examples.
 */
std::uint64_t codeBits(Code code, int level, int dims);

} // namespace morton
} // namespace hgpcn

#endif // HGPCN_GEOMETRY_MORTON_H
