/**
 * @file
 * Portable SIMD dispatch shim for the decode and ORB hot loops.
 *
 * Kernels here are the integer-exact inner loops the decoders and the
 * ORB front end lean on: 2-bit mask-code expansion, packed R-code
 * population counts, the R-prefix source expansion, the refresh of a
 * cached decoded row, 256-bit Hamming distance rows and the FAST segment
 * test over one image row. Every
 * kernel has a pure-scalar reference implementation plus SSE4.2 (x86)
 * and, where it pays, NEON (aarch64) variants that produce
 * **bit-identical output** — they only reorganise integer loads/shuffles,
 * never change arithmetic — so switching levels can never change a
 * decoded byte. Floating-point stages (colour-space conversion, gray
 * weighting) are deliberately *not* reimplemented here: their
 * double-precision rounding is pinned by tests and cannot be reproduced
 * exactly in fixed point, so they stay scalar (see DESIGN.md section 10).
 *
 * Dispatch: the best level the CPU supports is detected once (cpuid via
 * __builtin_cpu_supports on x86; NEON is baseline on aarch64) and can be
 * overridden by the RPX_SIMD environment variable ("off"/"scalar",
 * "sse4", "neon", "auto"; any other value means "auto") or
 * programmatically via setLevel() — the test suites use the latter to
 * prove identity across every level the host can run.
 */

#ifndef RPX_COMMON_SIMD_HPP
#define RPX_COMMON_SIMD_HPP

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace rpx::simd {

/** Instruction-set level a kernel dispatches to. */
enum class Level : int {
    Scalar = 0, //!< portable C++ (always available)
    Sse4 = 1,   //!< x86 SSE4.2 (pshufb/popcnt era)
    Neon = 2,   //!< aarch64 Advanced SIMD (baseline there)
};

/** Printable name of a level ("scalar", "sse4", "neon"). */
const char *levelName(Level level);

/** True when the level is both compiled in and supported by this CPU. */
bool levelSupported(Level level);

/** Best level this process can run (what "auto" resolves to). */
Level bestSupported();

/** Level the kernels currently dispatch to. */
Level activeLevel();

/**
 * Force a dispatch level. Returns false (and leaves the level unchanged)
 * when the level is not supported on this host. Thread-safe, but intended
 * for test setup and process start, not for toggling mid-decode.
 */
bool setLevel(Level level);

/**
 * Re-run the startup selection: RPX_SIMD when set (unknown values fall
 * back to auto), otherwise bestSupported().
 */
void resetLevel();

/** Levels this host can execute, in ascending order (always has Scalar). */
std::vector<Level> supportedLevels();

/**
 * Expand `count` 2-bit pixel codes starting at code index `first` of a
 * packed EncMask byte stream into one byte per code (values 0..3, the
 * PixelCode encoding). `packed` points at the mask's byte 0; codes are
 * LSB-first within each byte, matching EncMask's layout. `out` receives
 * exactly `count` bytes.
 */
void unpackMask2bpp(const u8 *packed, size_t first, size_t count, u8 *out);

/**
 * Count R codes (value 0b11) among the `count` packed 2-bit codes starting
 * at code index `first` — the vectorised form of EncMask::encodedBefore.
 */
u32 countR2bpp(const u8 *packed, size_t first, size_t count);

/**
 * Hamming distances from one 32-byte (256-bit) descriptor to `n`
 * contiguous 32-byte descriptors: out[i] = popcount(query ^ pool[i]),
 * 0..256. Neither pointer needs any alignment. The ORB matcher takes one
 * such row per query descriptor.
 */
void hammingRow256(const u8 *query, const u8 *pool, size_t n, u16 *out);

/**
 * The R-prefix expansion of one source-carry sweep (DESIGN.md §10).
 * `codes` holds `count` unpacked pixel codes, the first of which is R.
 * For each i, offset[i] = first + (R codes in codes[0..i]) - 1, the
 * payload index of the latest R at or left of i; when `value` is not
 * null, value[i] = payload[offset[i]], and every such index must be
 * below `payload_size`. Returns the number of R codes.
 */
u32 expandSources(const u8 *codes, size_t count, u32 first,
                  const u8 *payload, size_t payload_size, u32 *offset,
                  u8 *value);

/** What refreshRow wrote. */
struct RefreshCounts {
    u32 sampled = 0; //!< columns that took their carried value
    u32 n = 0;       //!< N columns, now black
};

/**
 * Refresh `count` columns of a cached decoded row from the current
 * frame (DESIGN.md §10): a column whose unpacked code has bit 0 set (R
 * or St) takes value[i], an N column (code 0) takes `black`, and an Sk
 * column keeps out[i].
 */
RefreshCounts refreshRow(const u8 *codes, const u8 *value, size_t count,
                         u8 black, u8 *out);

/** The radius-3 Bresenham ring fastRow tests, {dx, dy} clockwise from
 *  12 o'clock. */
inline constexpr int kFastRing[16][2] = {
    {0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0}, {3, 1}, {2, 2}, {1, 3},
    {0, 3}, {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
};

/**
 * The FAST segment test over columns [x_begin, x_end) of one gray image
 * row. `row` points at column 0 of that row; the rows `row - 3 * stride`
 * .. `row + 3 * stride` and columns x_begin - 3 .. x_end + 2 must be
 * readable. A column passes when `arc` (1..16) circularly contiguous
 * pixels of its radius-3 Bresenham ring are all >= centre + threshold, or
 * all <= centre - threshold (threshold >= 1; >= 256 passes nothing).
 * Writes the passing columns to `cols` in ascending order and returns
 * how many there are (at most x_end - x_begin).
 */
u32 fastRow(const u8 *row, size_t stride, u32 x_begin, u32 x_end,
            int threshold, int arc, u32 *cols);

namespace detail {

// Per-level kernel implementations, exposed so the dispatcher (and the
// identity tests) can address a specific level directly. The sse4
// symbols exist only on x86 builds, neon only on aarch64 builds — callers
// go through levelSupported() first.
void unpackMask2bppScalar(const u8 *packed, size_t first, size_t count,
                          u8 *out);
u32 countR2bppScalar(const u8 *packed, size_t first, size_t count);
void hammingRow256Scalar(const u8 *query, const u8 *pool, size_t n,
                         u16 *out);
u32 expandSourcesScalar(const u8 *codes, size_t count, u32 first,
                        const u8 *payload, size_t payload_size,
                        u32 *offset, u8 *value);
u32 fastRowScalar(const u8 *row, size_t stride, u32 x_begin, u32 x_end,
                  int threshold, int arc, u32 *cols);
RefreshCounts refreshRowScalar(const u8 *codes, const u8 *value,
                               size_t count, u8 black, u8 *out);

#if defined(__x86_64__)
void unpackMask2bppSse4(const u8 *packed, size_t first, size_t count,
                        u8 *out);
u32 countR2bppSse4(const u8 *packed, size_t first, size_t count);
void hammingRow256Sse4(const u8 *query, const u8 *pool, size_t n, u16 *out);
u32 expandSourcesSse4(const u8 *codes, size_t count, u32 first,
                      const u8 *payload, size_t payload_size, u32 *offset,
                      u8 *value);
u32 fastRowSse4(const u8 *row, size_t stride, u32 x_begin, u32 x_end,
                int threshold, int arc, u32 *cols);
RefreshCounts refreshRowSse4(const u8 *codes, const u8 *value, size_t count,
                             u8 black, u8 *out);
#endif

#if defined(__aarch64__)
void unpackMask2bppNeon(const u8 *packed, size_t first, size_t count,
                        u8 *out);
u32 countR2bppNeon(const u8 *packed, size_t first, size_t count);
// The Neon level reuses hammingRow256Scalar: std::popcount on aarch64
// already compiles to cnt. It reuses expandSourcesScalar, fastRowScalar
// and refreshRowScalar as well.
#endif

} // namespace detail

} // namespace rpx::simd

#endif // RPX_COMMON_SIMD_HPP
