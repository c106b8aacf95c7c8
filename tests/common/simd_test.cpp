/**
 * @file
 * SIMD dispatch-shim tests: every kernel must be bit-identical to the
 * scalar reference at every supported level, including unaligned start
 * indices and awkward tail lengths, and the level override machinery
 * must behave (setLevel rejects unsupported levels, resetLevel restores
 * the environment-resolved default).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace rpx::simd {
namespace {

/** RAII level override so a failing test cannot leak its level. */
class ScopedLevel
{
  public:
    explicit ScopedLevel(Level level) { ok_ = setLevel(level); }
    ~ScopedLevel() { resetLevel(); }
    bool ok() const { return ok_; }

  private:
    bool ok_ = false;
};

std::vector<u8>
randomPacked(size_t bytes, u64 seed)
{
    Rng rng(seed);
    std::vector<u8> packed(bytes);
    for (u8 &b : packed)
        b = static_cast<u8>(rng.uniformInt(0, 255));
    return packed;
}

/** Pure reference unpack: code i is bits [2i, 2i+2) of the packed run. */
u8
referenceCode(const std::vector<u8> &packed, size_t index)
{
    return static_cast<u8>((packed[index / 4] >> (2 * (index % 4))) & 3u);
}

TEST(Simd, LevelQueryBasics)
{
    EXPECT_TRUE(levelSupported(Level::Scalar));
    EXPECT_GE(static_cast<int>(bestSupported()),
              static_cast<int>(Level::Scalar));
    const std::vector<Level> levels = supportedLevels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), Level::Scalar);
    for (const Level level : levels) {
        EXPECT_TRUE(levelSupported(level));
        EXPECT_NE(levelName(level), nullptr);
    }
}

TEST(Simd, SetLevelRejectsUnsupported)
{
    // Scalar is always accepted and always restorable.
    EXPECT_TRUE(setLevel(Level::Scalar));
    EXPECT_EQ(activeLevel(), Level::Scalar);
#if defined(__x86_64__)
    EXPECT_FALSE(setLevel(Level::Neon));
    EXPECT_EQ(activeLevel(), Level::Scalar) << "failed set must not stick";
#endif
    resetLevel();
}

TEST(Simd, UnpackMatchesReferenceAtEveryLevel)
{
    const std::vector<u8> packed = randomPacked(1024, 7);
    const size_t total = packed.size() * 4;
    // Odd start offsets exercise the head peel; odd counts the tail.
    const std::pair<size_t, size_t> spans[] = {
        {0, total},   {0, 1},    {1, 1},     {3, 5},    {1, 63},
        {5, 64},      {7, 129},  {63, 64},   {64, 64},  {129, 511},
        {total - 3, 3}, {total, 0},
    };
    for (const Level level : supportedLevels()) {
        ScopedLevel guard(level);
        ASSERT_TRUE(guard.ok()) << levelName(level);
        for (const auto &[first, count] : spans) {
            std::vector<u8> out(count + 2, 0xEE);
            unpackMask2bpp(packed.data(), first, count, out.data());
            for (size_t i = 0; i < count; ++i)
                ASSERT_EQ(out[i], referenceCode(packed, first + i))
                    << levelName(level) << " first=" << first
                    << " count=" << count << " i=" << i;
            // The kernel must not write past count.
            EXPECT_EQ(out[count], 0xEE) << levelName(level);
            EXPECT_EQ(out[count + 1], 0xEE) << levelName(level);
        }
    }
}

TEST(Simd, CountRMatchesReferenceAtEveryLevel)
{
    const std::vector<u8> packed = randomPacked(512, 21);
    const size_t total = packed.size() * 4;
    const std::pair<size_t, size_t> spans[] = {
        {0, total}, {0, 1},   {1, 2},   {2, 62},  {3, 65},
        {64, 128},  {65, 127}, {511, 513}, {total, 0},
    };
    for (const Level level : supportedLevels()) {
        ScopedLevel guard(level);
        ASSERT_TRUE(guard.ok()) << levelName(level);
        for (const auto &[first, count] : spans) {
            u32 want = 0;
            for (size_t i = 0; i < count; ++i)
                if (referenceCode(packed, first + i) == 3u)
                    ++want;
            EXPECT_EQ(countR2bpp(packed.data(), first, count), want)
                << levelName(level) << " first=" << first
                << " count=" << count;
        }
    }
}

TEST(Simd, ApplyLutMatchesReferenceAtEveryLevel)
{
    // A table that visits every input byte value, plus a permutation-ish
    // map so mistakes in any lane show up.
    std::vector<u8> lut(256);
    for (int i = 0; i < 256; ++i)
        lut[static_cast<size_t>(i)] = static_cast<u8>((i * 37 + 11) & 0xFF);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                           size_t{31}, size_t{257}, size_t{4096}}) {
        std::vector<u8> input(n);
        for (size_t i = 0; i < n; ++i)
            input[i] = static_cast<u8>(i * 101 + 7);
        std::vector<u8> want(input);
        for (u8 &b : want)
            b = lut[b];
        for (const Level level : supportedLevels()) {
            ScopedLevel guard(level);
            ASSERT_TRUE(guard.ok()) << levelName(level);
            std::vector<u8> got(input);
            applyLut256(got.data(), got.size(), lut.data());
            ASSERT_EQ(got, want) << levelName(level) << " n=" << n;
        }
    }
}

TEST(Simd, AllInputByteValuesThroughLut)
{
    std::vector<u8> lut(256);
    for (int i = 0; i < 256; ++i)
        lut[static_cast<size_t>(i)] = static_cast<u8>(255 - i);
    std::vector<u8> input(256);
    for (int i = 0; i < 256; ++i)
        input[static_cast<size_t>(i)] = static_cast<u8>(i);
    for (const Level level : supportedLevels()) {
        ScopedLevel guard(level);
        ASSERT_TRUE(guard.ok()) << levelName(level);
        std::vector<u8> got(input);
        applyLut256(got.data(), got.size(), lut.data());
        for (int i = 0; i < 256; ++i)
            ASSERT_EQ(got[static_cast<size_t>(i)],
                      static_cast<u8>(255 - i))
                << levelName(level);
    }
}

/** Byte-wise reference: popcount of each XOR-ed byte, bit by bit. */
u16
referenceHamming(const u8 *a, const u8 *b)
{
    u16 dist = 0;
    for (size_t i = 0; i < 32; ++i)
        for (u8 x = static_cast<u8>(a[i] ^ b[i]); x != 0; x &= x - 1)
            ++dist;
    return dist;
}

TEST(Simd, HammingRowMatchesReferenceAtEveryLevel)
{
    // The pool starts one byte into its buffer, so every descriptor sits
    // at an odd address; the query is likewise offset.
    const size_t kMax = 500;
    std::vector<u8> pool_buf = randomPacked(32 * kMax + 1, 33);
    std::vector<u8> query_buf = randomPacked(33, 34);
    u8 *pool = pool_buf.data() + 1;
    const u8 *query = query_buf.data() + 1;
    // All-zero and all-one descriptors at both ends of the pool.
    std::fill(pool, pool + 32, u8{0});
    std::fill(pool + 32, pool + 64, u8{0xff});
    std::copy(query, query + 32, pool + 64);
    for (const Level level : supportedLevels()) {
        ScopedLevel guard(level);
        ASSERT_TRUE(guard.ok()) << levelName(level);
        for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, kMax}) {
            std::vector<u16> got(n + 1, 0xbeef);
            hammingRow256(query, pool, n, got.data());
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ(got[i], referenceHamming(query, pool + 32 * i))
                    << levelName(level) << " n=" << n << " i=" << i;
            EXPECT_EQ(got[n], 0xbeef) << "wrote past n=" << n;
        }
        // The extremes: 0 to itself, 256 between complements.
        const u8 *zeros = pool;
        const u8 *ones = pool + 32;
        u16 d[3];
        hammingRow256(zeros, pool, 3, d);
        EXPECT_EQ(d[0], 0) << levelName(level);
        EXPECT_EQ(d[1], 256) << levelName(level);
        hammingRow256(ones, pool, 3, d);
        EXPECT_EQ(d[0], 256) << levelName(level);
        EXPECT_EQ(d[1], 0) << levelName(level);
        hammingRow256(query, pool + 64, 1, d);
        EXPECT_EQ(d[0], 0) << levelName(level);
    }
}

} // namespace
} // namespace rpx::simd
