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
applyLut256Sse4(u8 *data, size_t count, const u8 *lut)
{
    // The 256-entry LUT as sixteen 16-entry shuffle tables selected by the
    // high nibble.
    __m128i tables[16];
    for (int t = 0; t < 16; ++t)
        tables[t] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(lut + 16 * t));
    const __m128i low_mask = _mm_set1_epi8(0x0f);
    size_t i = 0;
    for (; i + 16 <= count; i += 16) {
        const __m128i x = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(data + i));
        const __m128i lo = _mm_and_si128(x, low_mask);
        const __m128i hi =
            _mm_and_si128(_mm_srli_epi16(x, 4), low_mask);
        __m128i res = _mm_setzero_si128();
        for (int t = 0; t < 16; ++t) {
            const __m128i match =
                _mm_cmpeq_epi8(hi, _mm_set1_epi8(static_cast<char>(t)));
            res = _mm_or_si128(
                res,
                _mm_and_si128(_mm_shuffle_epi8(tables[t], lo), match));
        }
        _mm_storeu_si128(reinterpret_cast<__m128i *>(data + i), res);
    }
    for (; i < count; ++i)
        data[i] = lut[data[i]];
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

} // namespace rpx::simd::detail

#endif // x86
