/**
 * @file
 * SSE4.2 kernel implementations (compiled with -msse4.2; executed only
 * when runtime dispatch selected Level::Sse4). Bit-identical to the scalar
 * reference: these kernels reorganise integer loads/shuffles only.
 */

#include "common/simd.hpp"

#if defined(__x86_64__)

#include <nmmintrin.h>

#include <bit>
#include <cstddef>
#include <cstring>

namespace rpx::simd::detail {

namespace {

/** lut_a[n] = n & 3, lut_b[n] = n >> 2 for nibble n — the two halves of a
 *  2-bit extraction of a nibble. */
inline __m128i
lutA()
{
    return _mm_setr_epi8(0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3);
}

inline __m128i
lutB()
{
    return _mm_setr_epi8(0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3);
}

/** Per-byte population count via the classic nibble-LUT shuffle. */
inline __m128i
popcntBytes(__m128i v)
{
    const __m128i nib_cnt = _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2,
                                          3, 2, 3, 3, 4);
    const __m128i low_mask = _mm_set1_epi8(0x0f);
    const __m128i lo = _mm_and_si128(v, low_mask);
    const __m128i hi =
        _mm_and_si128(_mm_srli_epi16(v, 4), low_mask);
    return _mm_add_epi8(_mm_shuffle_epi8(nib_cnt, lo),
                        _mm_shuffle_epi8(nib_cnt, hi));
}

} // namespace

void
unpackMask2bppSse4(const u8 *packed, size_t first, size_t count, u8 *out)
{
    size_t i = first;
    const size_t end = first + count;
    // Peel to a packed-byte boundary, then vectorise whole bytes.
    while (i < end && (i & 3) != 0) {
        *out++ = (packed[i >> 2] >> ((i & 3) * 2)) & 3;
        ++i;
    }
    const __m128i lut_a = lutA();
    const __m128i lut_b = lutB();
    const __m128i low_mask = _mm_set1_epi8(0x0f);
    while (i + 64 <= end) {
        const __m128i x = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(packed + (i >> 2)));
        const __m128i lo = _mm_and_si128(x, low_mask);
        const __m128i hi =
            _mm_and_si128(_mm_srli_epi16(x, 4), low_mask);
        // Codes 0..3 of every packed byte, one vector per code position.
        const __m128i c0 = _mm_shuffle_epi8(lut_a, lo);
        const __m128i c1 = _mm_shuffle_epi8(lut_b, lo);
        const __m128i c2 = _mm_shuffle_epi8(lut_a, hi);
        const __m128i c3 = _mm_shuffle_epi8(lut_b, hi);
        // Interleave back to memory order: byte b expands to
        // c0[b], c1[b], c2[b], c3[b].
        const __m128i t01l = _mm_unpacklo_epi8(c0, c1);
        const __m128i t01h = _mm_unpackhi_epi8(c0, c1);
        const __m128i t23l = _mm_unpacklo_epi8(c2, c3);
        const __m128i t23h = _mm_unpackhi_epi8(c2, c3);
        __m128i *dst = reinterpret_cast<__m128i *>(out);
        _mm_storeu_si128(dst + 0, _mm_unpacklo_epi16(t01l, t23l));
        _mm_storeu_si128(dst + 1, _mm_unpackhi_epi16(t01l, t23l));
        _mm_storeu_si128(dst + 2, _mm_unpacklo_epi16(t01h, t23h));
        _mm_storeu_si128(dst + 3, _mm_unpackhi_epi16(t01h, t23h));
        out += 64;
        i += 64;
    }
    if (i < end)
        unpackMask2bppScalar(packed, i, end - i, out);
}

u32
countR2bppSse4(const u8 *packed, size_t first, size_t count)
{
    size_t i = first;
    const size_t end = first + count;
    u32 total = 0;
    while (i < end && (i & 3) != 0) {
        if (((packed[i >> 2] >> ((i & 3) * 2)) & 3) == 3)
            ++total;
        ++i;
    }
    const __m128i pair_mask = _mm_set1_epi8(0x55);
    __m128i acc = _mm_setzero_si128();
    while (i + 64 <= end) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(packed + (i >> 2)));
        // A pair is R (0b11) iff bit AND bit>>1 survive in the even lanes.
        const __m128i pairs = _mm_and_si128(
            _mm_and_si128(v, _mm_srli_epi16(v, 1)), pair_mask);
        acc = _mm_add_epi64(
            acc, _mm_sad_epu8(popcntBytes(pairs), _mm_setzero_si128()));
        i += 64;
    }
    total += static_cast<u32>(_mm_extract_epi64(acc, 0) +
                              _mm_extract_epi64(acc, 1));
    if (i < end)
        total += countR2bppScalar(packed, i, end - i);
    return total;
}

void
hammingRow256Sse4(const u8 *query, const u8 *pool, size_t n, u16 *out)
{
    // hammingRow256Scalar's body: under -msse4.2 each std::popcount is
    // one hardware popcnt instead of a libgcc call.
    u64 q[4];
    std::memcpy(q, query, sizeof(q));
    for (size_t i = 0; i < n; ++i) {
        u64 p[4];
        std::memcpy(p, pool + 32 * i, sizeof(p));
        out[i] = static_cast<u16>(
            std::popcount(q[0] ^ p[0]) + std::popcount(q[1] ^ p[1]) +
            std::popcount(q[2] ^ p[2]) + std::popcount(q[3] ^ p[3]));
    }
}

u32
expandSourcesSse4(const u8 *codes, size_t count, u32 first,
                  const u8 *payload, size_t payload_size, u32 *offset,
                  u8 *value)
{
    const __m128i three = _mm_set1_epi8(3);
    const __m128i one = _mm_set1_epi8(1);
    const __m128i zero = _mm_setzero_si128();
    u32 seen = 0;
    size_t i = 0;
    for (; i + 16 <= count; i += 16) {
        // pre[j]: R codes among this block's columns 0..j (0..16), an
        // in-register prefix sum of the 0/1 R flags.
        const __m128i c =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(codes + i));
        __m128i pre = _mm_and_si128(_mm_cmpeq_epi8(c, three), one);
        pre = _mm_add_epi8(pre, _mm_slli_si128(pre, 1));
        pre = _mm_add_epi8(pre, _mm_slli_si128(pre, 2));
        pre = _mm_add_epi8(pre, _mm_slli_si128(pre, 4));
        pre = _mm_add_epi8(pre, _mm_slli_si128(pre, 8));
        // seen >= 1 past block 0, and block 0 starts with an R, so the
        // u32 wrap of first - 1 is always undone by pre >= 1.
        const __m128i base =
            _mm_set1_epi32(static_cast<int>(first + seen - 1));
        __m128i *dst = reinterpret_cast<__m128i *>(offset + i);
        _mm_storeu_si128(dst + 0,
                         _mm_add_epi32(_mm_cvtepu8_epi32(pre), base));
        _mm_storeu_si128(dst + 1,
                         _mm_add_epi32(
                             _mm_cvtepu8_epi32(_mm_srli_si128(pre, 4)),
                             base));
        _mm_storeu_si128(dst + 2,
                         _mm_add_epi32(
                             _mm_cvtepu8_epi32(_mm_srli_si128(pre, 8)),
                             base));
        _mm_storeu_si128(dst + 3,
                         _mm_add_epi32(
                             _mm_cvtepu8_epi32(_mm_srli_si128(pre, 12)),
                             base));
        if (value) {
            // The block's R codes read payload[p ..]; column j takes
            // entry pre[j] - 1 of it, or, before the block's first R
            // (pre[j] == 0, whose shuffle index has its high bit set),
            // the value left of the block.
            const size_t p = static_cast<size_t>(first) + seen;
            if (p + 16 <= payload_size) {
                const __m128i src = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(payload + p));
                __m128i v = _mm_shuffle_epi8(src, _mm_sub_epi8(pre, one));
                if (i > 0)
                    v = _mm_blendv_epi8(
                        v, _mm_set1_epi8(static_cast<char>(value[i - 1])),
                        _mm_cmpeq_epi8(pre, zero));
                _mm_storeu_si128(reinterpret_cast<__m128i *>(value + i),
                                 v);
            } else {
                for (size_t j = i; j < i + 16; ++j)
                    value[j] = payload[offset[j]];
            }
        }
        seen += static_cast<u32>(_mm_extract_epi8(pre, 15));
    }
    if (i < count)
        seen += expandSourcesScalar(codes + i, count - i, first + seen,
                                    payload, payload_size, offset + i,
                                    value ? value + i : nullptr);
    return seen;
}

u32
fastRowSse4(const u8 *row, size_t stride, u32 x_begin, u32 x_end,
            int threshold, int arc, u32 *cols)
{
    // No u8 difference reaches 256; the saturating compares below need
    // the threshold to fit a byte.
    if (threshold > 255)
        return 0;
    std::ptrdiff_t ring[16];
    for (int i = 0; i < 16; ++i)
        ring[i] = kFastRing[i][1] * static_cast<std::ptrdiff_t>(stride) +
                  kFastRing[i][0];
    const __m128i zero = _mm_setzero_si128();
    const __m128i t = _mm_set1_epi8(static_cast<char>(threshold));
    // Lane counts are at most 16 + arc - 1 < 128, so signed compares
    // against need - 1 and arc - 1 are exact.
    const __m128i need_m1 = _mm_set1_epi8(static_cast<char>(arc / 4 - 1));
    const __m128i arc_m1 = _mm_set1_epi8(static_cast<char>(arc - 1));
    u32 n = 0;
    u32 x = x_begin;
    for (; x + 16 <= x_end; x += 16) {
        const u8 *p = row + x;
        const __m128i c =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        // Ring pixel i of all 16 centres: bright iff v - c >= t, dark iff
        // c - v >= t, with the differences saturated at 0.
        __m128i bright[16], dark[16];
        const auto test = [&](int i) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(p + ring[i]));
            bright[i] = _mm_cmpeq_epi8(
                _mm_subs_epu8(t, _mm_subs_epu8(v, c)), zero);
            dark[i] = _mm_cmpeq_epi8(
                _mm_subs_epu8(t, _mm_subs_epu8(c, v)), zero);
        };
        // Compass pre-reject (fastRowScalar's): a mask lane is -1, so
        // subtracting masks counts hits.
        __m128i nb = zero, nd = zero;
        for (int i = 0; i < 16; i += 4) {
            test(i);
            nb = _mm_sub_epi8(nb, bright[i]);
            nd = _mm_sub_epi8(nd, dark[i]);
        }
        if (_mm_movemask_epi8(_mm_or_si128(_mm_cmpgt_epi8(nb, need_m1),
                                           _mm_cmpgt_epi8(nd, need_m1))) ==
            0)
            continue;
        for (int i = 0; i < 16; ++i) {
            if ((i & 3) != 0)
                test(i);
        }
        // Running run lengths around the ring and once more over its
        // first arc - 1 positions, so arcs that wrap past 15 are seen.
        __m128i rb = zero, rd = zero, hit = zero;
        for (int k = 0; k < 16 + arc - 1; ++k) {
            const int i = k & 15;
            rb = _mm_and_si128(_mm_sub_epi8(rb, bright[i]), bright[i]);
            rd = _mm_and_si128(_mm_sub_epi8(rd, dark[i]), dark[i]);
            hit = _mm_or_si128(hit,
                               _mm_or_si128(_mm_cmpgt_epi8(rb, arc_m1),
                                            _mm_cmpgt_epi8(rd, arc_m1)));
        }
        for (u32 m = static_cast<u32>(_mm_movemask_epi8(hit)); m != 0;
             m &= m - 1)
            cols[n++] = x + static_cast<u32>(std::countr_zero(m));
    }
    if (x < x_end)
        n += fastRowScalar(row, stride, x, x_end, threshold, arc, cols + n);
    return n;
}

RefreshCounts
refreshRowSse4(const u8 *codes, const u8 *value, size_t count, u8 black,
               u8 *out)
{
    const __m128i one = _mm_set1_epi8(1);
    const __m128i zero = _mm_setzero_si128();
    const __m128i black16 = _mm_set1_epi8(static_cast<char>(black));
    RefreshCounts done;
    size_t i = 0;
    for (; i + 16 <= count; i += 16) {
        const __m128i c = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(codes + i));
        const __m128i s = _mm_cmpeq_epi8(_mm_and_si128(c, one), one);
        const __m128i n = _mm_cmpeq_epi8(c, zero);
        const unsigned s_bits =
            static_cast<unsigned>(_mm_movemask_epi8(s));
        const unsigned n_bits =
            static_cast<unsigned>(_mm_movemask_epi8(n));
        if ((s_bits | n_bits) == 0)
            continue;
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(value + i));
        __m128i *dst = reinterpret_cast<__m128i *>(out + i);
        if (s_bits == 0xffff) {
            _mm_storeu_si128(dst, v);
            done.sampled += 16;
            continue;
        }
        __m128i o = _mm_loadu_si128(dst);
        o = _mm_blendv_epi8(o, v, s);
        o = _mm_blendv_epi8(o, black16, n);
        _mm_storeu_si128(dst, o);
        done.sampled += static_cast<u32>(std::popcount(s_bits));
        done.n += static_cast<u32>(std::popcount(n_bits));
    }
    const RefreshCounts tail =
        refreshRowScalar(codes + i, value + i, count - i, black, out + i);
    done.sampled += tail.sampled;
    done.n += tail.n;
    return done;
}

} // namespace rpx::simd::detail

#endif // x86
