/**
 * @file
 * NEON kernel implementations (aarch64 only; Advanced SIMD is baseline
 * there so no extra compile flags are needed). Bit-identical to the scalar
 * reference: these kernels reorganise integer loads/shuffles only.
 */

#include "common/simd.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace rpx::simd::detail {

void
unpackMask2bppNeon(const u8 *packed, size_t first, size_t count, u8 *out)
{
    size_t i = first;
    const size_t end = first + count;
    while (i < end && (i & 3) != 0) {
        *out++ = (packed[i >> 2] >> ((i & 3) * 2)) & 3;
        ++i;
    }
    const uint8x16_t mask3 = vdupq_n_u8(3);
    while (i + 64 <= end) {
        const uint8x16_t x = vld1q_u8(packed + (i >> 2));
        // Codes 0..3 of every packed byte, one vector per code position.
        const uint8x16_t c0 = vandq_u8(x, mask3);
        const uint8x16_t c1 = vandq_u8(vshrq_n_u8(x, 2), mask3);
        const uint8x16_t c2 = vandq_u8(vshrq_n_u8(x, 4), mask3);
        const uint8x16_t c3 = vshrq_n_u8(x, 6);
        // Interleave back to memory order: byte b expands to
        // c0[b], c1[b], c2[b], c3[b] — exactly what st4 writes.
        uint8x16x4_t quad;
        quad.val[0] = c0;
        quad.val[1] = c1;
        quad.val[2] = c2;
        quad.val[3] = c3;
        vst4q_u8(out, quad);
        out += 64;
        i += 64;
    }
    if (i < end)
        unpackMask2bppScalar(packed, i, end - i, out);
}

u32
countR2bppNeon(const u8 *packed, size_t first, size_t count)
{
    size_t i = first;
    const size_t end = first + count;
    u32 total = 0;
    while (i < end && (i & 3) != 0) {
        if (((packed[i >> 2] >> ((i & 3) * 2)) & 3) == 3)
            ++total;
        ++i;
    }
    const uint8x16_t pair_mask = vdupq_n_u8(0x55);
    while (i + 64 <= end) {
        const uint8x16_t v = vld1q_u8(packed + (i >> 2));
        const uint8x16_t pairs =
            vandq_u8(vandq_u8(v, vshrq_n_u8(v, 1)), pair_mask);
        total += vaddvq_u8(vcntq_u8(pairs));
        i += 64;
    }
    if (i < end)
        total += countR2bppScalar(packed, i, end - i);
    return total;
}

} // namespace rpx::simd::detail

#endif // aarch64
