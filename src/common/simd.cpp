#include "common/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string>

namespace rpx::simd {

namespace {

/**
 * 2-bit expansion table: byte value -> the four code bytes it packs
 * (LSB-first pair order, matching EncMask::at).
 */
struct ExpandTable {
    u8 rows[256][4];
};

constexpr ExpandTable
buildExpandTable()
{
    ExpandTable t{};
    for (int b = 0; b < 256; ++b) {
        t.rows[b][0] = static_cast<u8>(b & 3);
        t.rows[b][1] = static_cast<u8>((b >> 2) & 3);
        t.rows[b][2] = static_cast<u8>((b >> 4) & 3);
        t.rows[b][3] = static_cast<u8>((b >> 6) & 3);
    }
    return t;
}

constexpr ExpandTable kExpand = buildExpandTable();

/** Dispatch table: one function pointer per kernel. */
struct KernelTable {
    void (*unpack)(const u8 *, size_t, size_t, u8 *);
    u32 (*count_r)(const u8 *, size_t, size_t);
    void (*hamming)(const u8 *, const u8 *, size_t, u16 *);
    u32 (*expand)(const u8 *, size_t, u32, const u8 *, size_t, u32 *,
                  u8 *);
    u32 (*fast_row)(const u8 *, size_t, u32, u32, int, int, u32 *);
    RefreshCounts (*refresh)(const u8 *, const u8 *, size_t, u8, u8 *);
};

constexpr KernelTable kScalarKernels = {
    detail::unpackMask2bppScalar,
    detail::countR2bppScalar,
    detail::hammingRow256Scalar,
    detail::expandSourcesScalar,
    detail::fastRowScalar,
    detail::refreshRowScalar,
};

#if defined(__x86_64__)
constexpr KernelTable kSse4Kernels = {
    detail::unpackMask2bppSse4,
    detail::countR2bppSse4,
    detail::hammingRow256Sse4,
    detail::expandSourcesSse4,
    detail::fastRowSse4,
    detail::refreshRowSse4,
};
#endif

#if defined(__aarch64__)
constexpr KernelTable kNeonKernels = {
    detail::unpackMask2bppNeon,
    detail::countR2bppNeon,
    detail::hammingRow256Scalar,
    detail::expandSourcesScalar,
    detail::fastRowScalar,
    detail::refreshRowScalar,
};
#endif

std::atomic<const KernelTable *> g_kernels{nullptr};
std::atomic<int> g_level{static_cast<int>(Level::Scalar)};

const KernelTable *
tableFor(Level level)
{
    switch (level) {
      case Level::Scalar:
        return &kScalarKernels;
#if defined(__x86_64__)
      case Level::Sse4:
        return &kSse4Kernels;
#endif
#if defined(__aarch64__)
      case Level::Neon:
        return &kNeonKernels;
#endif
      default:
        return &kScalarKernels;
    }
}

void
applyLevel(Level level)
{
    g_level.store(static_cast<int>(level), std::memory_order_relaxed);
    g_kernels.store(tableFor(level), std::memory_order_release);
}

Level
envRequestedLevel()
{
    const char *env = std::getenv("RPX_SIMD");
    if (!env || !*env)
        return bestSupported();
    const std::string v(env);
    if (v == "off" || v == "scalar" || v == "0" || v == "none")
        return Level::Scalar;
    if (v == "sse4" || v == "sse4.1" || v == "sse4.2" || v == "sse")
        return Level::Sse4;
    if (v == "neon")
        return Level::Neon;
    return bestSupported(); // unknown value: auto
}

const KernelTable *
kernels()
{
    const KernelTable *t = g_kernels.load(std::memory_order_acquire);
    if (!t) {
        resetLevel();
        t = g_kernels.load(std::memory_order_acquire);
    }
    return t;
}

} // namespace

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Scalar:
        return "scalar";
      case Level::Sse4:
        return "sse4";
      case Level::Neon:
        return "neon";
    }
    return "?";
}

bool
levelSupported(Level level)
{
    switch (level) {
      case Level::Scalar:
        return true;
#if defined(__x86_64__)
      case Level::Sse4:
        return __builtin_cpu_supports("sse4.2") != 0 &&
               __builtin_cpu_supports("popcnt") != 0;
#endif
#if defined(__aarch64__)
      case Level::Neon:
        return true;
#endif
      default:
        return false;
    }
}

Level
bestSupported()
{
    if (levelSupported(Level::Sse4))
        return Level::Sse4;
    if (levelSupported(Level::Neon))
        return Level::Neon;
    return Level::Scalar;
}

Level
activeLevel()
{
    if (!g_kernels.load(std::memory_order_acquire))
        resetLevel();
    return static_cast<Level>(g_level.load(std::memory_order_relaxed));
}

bool
setLevel(Level level)
{
    if (!levelSupported(level))
        return false;
    applyLevel(level);
    return true;
}

void
resetLevel()
{
    // An unsupported request (say "neon" on x86) falls back to Scalar.
    const Level want = envRequestedLevel();
    applyLevel(levelSupported(want) ? want : Level::Scalar);
}

std::vector<Level>
supportedLevels()
{
    std::vector<Level> out;
    for (Level l : {Level::Scalar, Level::Sse4, Level::Neon}) {
        if (levelSupported(l))
            out.push_back(l);
    }
    return out;
}

void
unpackMask2bpp(const u8 *packed, size_t first, size_t count, u8 *out)
{
    if (count == 0)
        return;
    kernels()->unpack(packed, first, count, out);
}

u32
countR2bpp(const u8 *packed, size_t first, size_t count)
{
    if (count == 0)
        return 0;
    return kernels()->count_r(packed, first, count);
}

void
hammingRow256(const u8 *query, const u8 *pool, size_t n, u16 *out)
{
    if (n == 0)
        return;
    kernels()->hamming(query, pool, n, out);
}

u32
expandSources(const u8 *codes, size_t count, u32 first, const u8 *payload,
              size_t payload_size, u32 *offset, u8 *value)
{
    if (count == 0)
        return 0;
    return kernels()->expand(codes, count, first, payload, payload_size,
                             offset, value);
}

RefreshCounts
refreshRow(const u8 *codes, const u8 *value, size_t count, u8 black,
           u8 *out)
{
    return kernels()->refresh(codes, value, count, black, out);
}

u32
fastRow(const u8 *row, size_t stride, u32 x_begin, u32 x_end, int threshold,
        int arc, u32 *cols)
{
    if (x_begin >= x_end)
        return 0;
    return kernels()->fast_row(row, stride, x_begin, x_end, threshold, arc,
                               cols);
}

namespace detail {

void
unpackMask2bppScalar(const u8 *packed, size_t first, size_t count, u8 *out)
{
    size_t i = first;
    const size_t end = first + count;
    // Head: peel codes until the next byte boundary (4 codes per byte).
    while (i < end && (i & 3) != 0) {
        *out++ = (packed[i >> 2] >> ((i & 3) * 2)) & 3;
        ++i;
    }
    // Bulk: one table row per packed byte.
    while (i + 4 <= end) {
        std::memcpy(out, kExpand.rows[packed[i >> 2]], 4);
        out += 4;
        i += 4;
    }
    // Tail.
    while (i < end) {
        *out++ = (packed[i >> 2] >> ((i & 3) * 2)) & 3;
        ++i;
    }
}

u32
countR2bppScalar(const u8 *packed, size_t first, size_t count)
{
    u32 total = 0;
    size_t i = first;
    const size_t end = first + count;
    while (i < end && (i & 3) != 0) {
        if (((packed[i >> 2] >> ((i & 3) * 2)) & 3) == 3)
            ++total;
        ++i;
    }
    // Bulk: a pair is R iff both of its bits are set; AND the word with
    // itself shifted right by one and population-count the even bit lanes.
    while (i + 32 <= end) {
        u64 w;
        std::memcpy(&w, packed + (i >> 2), 8);
        const u64 pairs = w & (w >> 1) & 0x5555555555555555ULL;
        total += static_cast<u32>(__builtin_popcountll(pairs));
        i += 32;
    }
    while (i + 4 <= end) {
        const u8 b = packed[i >> 2];
        const u8 pairs = b & (b >> 1) & 0x55;
        total += static_cast<u32>(__builtin_popcount(pairs));
        i += 4;
    }
    while (i < end) {
        if (((packed[i >> 2] >> ((i & 3) * 2)) & 3) == 3)
            ++total;
        ++i;
    }
    return total;
}

void
hammingRow256Scalar(const u8 *query, const u8 *pool, size_t n, u16 *out)
{
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
expandSourcesScalar(const u8 *codes, size_t count, u32 first,
                    const u8 *payload, size_t /*payload_size*/,
                    u32 *offset, u8 *value)
{
    u32 seen = 0;
    for (size_t i = 0; i < count; ++i) {
        seen += codes[i] == 3 ? 1u : 0u;
        offset[i] = first + seen - 1;
    }
    if (value) {
        for (size_t i = 0; i < count; ++i)
            value[i] = payload[offset[i]];
    }
    return seen;
}

u32
fastRowScalar(const u8 *row, size_t stride, u32 x_begin, u32 x_end,
              int threshold, int arc, u32 *cols)
{
    std::ptrdiff_t ring[16];
    for (int i = 0; i < 16; ++i)
        ring[i] = kFastRing[i][1] * static_cast<std::ptrdiff_t>(stride) +
                  kFastRing[i][0];
    // A contiguous arc of `arc` ring pixels covers at least arc / 4 of the
    // four compass points (0, 4, 8, 12), so fewer compass hits on both
    // sides rule the pixel out before the other 12 ring pixels are read.
    const int need = arc / 4;
    // True when the 16-bit ring mask holds `arc` circularly contiguous
    // bits: AND-ing the doubled mask with its shifts leaves bit i set iff
    // ring positions i .. i + arc - 1 (mod 16) are all set.
    const auto has_arc = [arc](u32 mask) {
        const u32 doubled = mask | (mask << 16);
        u32 run = doubled;
        for (int k = 1; k < arc && run != 0; ++k)
            run &= doubled >> k;
        return run != 0;
    };
    u32 n = 0;
    for (u32 x = x_begin; x < x_end; ++x) {
        const u8 *p = row + x;
        const int center = *p;
        const int hi = center + threshold;
        const int lo = center - threshold;
        int brighter4 = 0, darker4 = 0;
        for (int i = 0; i < 16; i += 4) {
            const int v = p[ring[i]];
            brighter4 += v >= hi;
            darker4 += v <= lo;
        }
        if (brighter4 < need && darker4 < need)
            continue;

        u32 bright = 0, dark = 0;
        for (int i = 0; i < 16; ++i) {
            const int v = p[ring[i]];
            bright |= static_cast<u32>(v >= hi) << i;
            dark |= static_cast<u32>(v <= lo) << i;
        }
        if (has_arc(bright) || has_arc(dark))
            cols[n++] = x;
    }
    return n;
}

RefreshCounts
refreshRowScalar(const u8 *codes, const u8 *value, size_t count, u8 black,
                 u8 *out)
{
    // Eight columns per 64-bit word: s and n hold 1 in each sampled and
    // each N byte, and * 0xff widens them to byte select masks.
    constexpr u64 kLsbs = 0x0101010101010101ULL;
    const u64 black8 = kLsbs * black;
    RefreshCounts done;
    size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        u64 c, v, o;
        std::memcpy(&c, codes + i, 8);
        const u64 s = c & kLsbs;
        const u64 n = ~(c | (c >> 1)) & kLsbs;
        if ((s | n) == 0)
            continue;
        std::memcpy(&v, value + i, 8);
        if (s == kLsbs) {
            std::memcpy(out + i, &v, 8);
            done.sampled += 8;
            continue;
        }
        std::memcpy(&o, out + i, 8);
        const u64 sel_s = s * 0xff;
        const u64 sel_n = n * 0xff;
        o = (o & ~(sel_s | sel_n)) | (v & sel_s) | (black8 & sel_n);
        std::memcpy(out + i, &o, 8);
        done.sampled += static_cast<u32>(std::popcount(s));
        done.n += static_cast<u32>(std::popcount(n));
    }
    for (; i < count; ++i) {
        if ((codes[i] & 1) != 0) {
            out[i] = value[i];
            ++done.sampled;
        } else if (codes[i] == 0) {
            out[i] = black;
            ++done.n;
        }
    }
    return done;
}

} // namespace detail

} // namespace rpx::simd
