/**
 * @file
 * Stable LSD radix sort with a single histogram pass.
 *
 * The octree's SFC sort and the occupied-cell lists both order
 * records by an unsigned key of a known bit width (a 3*depth-bit
 * Morton code; a packed x, y, z cell). One pass over the records
 * counts every 11-bit digit at once; each digit that not all records
 * share then costs one stable scatter between the records and a
 * caller-owned ping-pong buffer. Records with equal keys keep their
 * input order, so the result equals std::stable_sort by key.
 */

#ifndef HGPCN_COMMON_RADIX_SORT_H
#define HGPCN_COMMON_RADIX_SORT_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace hgpcn
{

/** Bits per radix digit (2048 buckets: histograms stay in L1/L2). */
constexpr int kRadixDigitBits = 11;

/**
 * Sort @p v by @p key (a callable returning a std::uint64_t below
 * 2^key_bits), using @p scratch as the ping-pong buffer. Both
 * vectors keep their storage; @p scratch is resized to v.size().
 *
 * @return the vector holding the sorted records — @p v or
 *   @p scratch, whichever the last executed scatter wrote; the other
 *   holds stale records. Callers copy back only when they need the
 *   result in @p v.
 */
template <class T, class KeyFn>
std::vector<T> &
radixSort(std::vector<T> &v, std::vector<T> &scratch, int key_bits,
          KeyFn key)
{
    constexpr std::uint64_t kMask = (1u << kRadixDigitBits) - 1;
    constexpr int kMaxDigits = (64 + kRadixDigitBits - 1) / kRadixDigitBits;
    const std::size_t n = v.size();
    HGPCN_ASSERT(key_bits >= 0 && key_bits <= 64, "key_bits=", key_bits);
    HGPCN_ASSERT(n <= UINT32_MAX, "radix sort of ", n, " records");
    const int digits = (key_bits + kRadixDigitBits - 1) / kRadixDigitBits;
    scratch.resize(n);
    if (n < 2 || digits == 0)
        return v;

    // Every digit's histogram from one read of the keys.
    std::array<std::uint32_t, std::size_t{kMask} + 1> counts[kMaxDigits];
    for (int d = 0; d < digits; ++d)
        counts[d].fill(0);
    for (const T &rec : v) {
        const std::uint64_t k = key(rec);
        for (int d = 0; d < digits; ++d)
            ++counts[d][(k >> (d * kRadixDigitBits)) & kMask];
    }

    std::vector<T> *src = &v;
    std::vector<T> *dst = &scratch;
    const std::uint64_t first_key = key(v[0]);
    for (int d = 0; d < digits; ++d) {
        const int shift = d * kRadixDigitBits;
        std::array<std::uint32_t, std::size_t{kMask} + 1> &offsets =
            counts[d];
        if (offsets[(first_key >> shift) & kMask] == n)
            continue; // every record shares this digit
        std::uint32_t running = 0;
        for (std::uint32_t &c : offsets) {
            const std::uint32_t here = c;
            c = running;
            running += here;
        }
        T *out = dst->data();
        for (const T &rec : *src)
            out[offsets[(key(rec) >> shift) & kMask]++] = rec;
        std::swap(src, dst);
    }
    return *src;
}

} // namespace hgpcn

#endif // HGPCN_COMMON_RADIX_SORT_H
