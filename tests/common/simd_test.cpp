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
#include <cstdlib>
#include <string>
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

/**
 * RAII RPX_SIMD override: restores the prior variable and dispatch level
 * on scope exit, so a failing assertion cannot leak either.
 */
class ScopedSimdEnv
{
  public:
    ScopedSimdEnv() : level_(activeLevel())
    {
        if (const char *prior = std::getenv("RPX_SIMD")) {
            had_prior_ = true;
            prior_ = prior;
        }
    }
    ~ScopedSimdEnv()
    {
        if (had_prior_)
            setenv("RPX_SIMD", prior_.c_str(), 1);
        else
            unsetenv("RPX_SIMD");
        setLevel(level_);
    }
    void set(const char *value) { setenv("RPX_SIMD", value, 1); }

  private:
    Level level_;
    bool had_prior_ = false;
    std::string prior_;
};

TEST(Simd, UnknownEnvLevelResolvesToBest)
{
    ScopedSimdEnv env;
    // "avx2" is not a level name, so it resolves like any unknown value:
    // to the best level the host supports.
    for (const char *value : {"avx2", "bogus"}) {
        env.set(value);
        resetLevel();
        EXPECT_EQ(activeLevel(), bestSupported()) << value;
    }
    env.set("off");
    resetLevel();
    EXPECT_EQ(activeLevel(), Level::Scalar);
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

/**
 * expandSources at every level against its scalar body and a plain
 * prefix walk: every R density from sparse to all-R, block-straddling
 * lengths, and a payload that ends exactly at the row's last R, so a
 * 16-byte payload load past its end would read out of bounds.
 */
/**
 * The cached-row refresh at every level against a per-column spelling of
 * its rule: R and St take the value, N turns black, Sk keeps the old
 * byte. Runs of one code (all sampled, all Sk) take the kernels' whole-
 * vector shortcuts; the byte past `count` must stay untouched.
 */
TEST(Simd, RefreshRowMatchesRuleAtEveryLevel)
{
    Rng rng(66);
    for (const size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                               size_t{15}, size_t{16}, size_t{17},
                               size_t{33}, size_t{1920}}) {
        for (const int mix : {0, 1, 2, 3}) {
            // 0: random codes; 1: all St/R; 2: all Sk; 3: runs of 16.
            std::vector<u8> codes(count);
            for (size_t i = 0; i < count; ++i) {
                const int run = static_cast<int>(i / 16) % 4;
                codes[i] = mix == 0   ? static_cast<u8>(rng.uniformInt(0, 3))
                           : mix == 1 ? static_cast<u8>(rng.uniformInt(0, 1) * 2 + 1)
                           : mix == 2 ? u8{2}
                                      : static_cast<u8>(run);
            }
            std::vector<u8> value(count), before(count + 1);
            for (u8 &b : value)
                b = static_cast<u8>(rng.uniformInt(0, 255));
            for (u8 &b : before)
                b = static_cast<u8>(rng.uniformInt(0, 255));
            const u8 black = 9;
            std::vector<u8> want = before;
            RefreshCounts want_counts;
            for (size_t i = 0; i < count; ++i) {
                if ((codes[i] & 1) != 0) {
                    want[i] = value[i];
                    ++want_counts.sampled;
                } else if (codes[i] == 0) {
                    want[i] = black;
                    ++want_counts.n;
                }
            }
            for (const Level level : supportedLevels()) {
                ScopedLevel guard(level);
                ASSERT_TRUE(guard.ok()) << levelName(level);
                const std::string where = std::string(levelName(level)) +
                                          " count=" + std::to_string(count) +
                                          " mix=" + std::to_string(mix);
                std::vector<u8> out = before;
                const RefreshCounts got = refreshRow(
                    codes.data(), value.data(), count, black, out.data());
                EXPECT_EQ(out, want) << where;
                EXPECT_EQ(got.sampled, want_counts.sampled) << where;
                EXPECT_EQ(got.n, want_counts.n) << where;
            }
        }
    }
}

TEST(Simd, ExpandSourcesMatchesScalarAtEveryLevel)
{
    Rng rng(55);
    for (const size_t count :
         {size_t{1}, size_t{2}, size_t{15}, size_t{16}, size_t{17},
          size_t{31}, size_t{32}, size_t{33}, size_t{100}, size_t{1921}}) {
        for (const int density : {0, 1, 4, 50, 100}) {
            // density % of codes R (0 leaves only the leading R).
            std::vector<u8> codes(count);
            for (u8 &c : codes)
                c = rng.uniformInt(0, 99) < density
                        ? u8{3}
                        : static_cast<u8>(rng.uniformInt(0, 2));
            codes[0] = 3;
            const u32 first = static_cast<u32>(rng.uniformInt(0, 40));
            u32 r_count = 0;
            for (const u8 c : codes)
                r_count += c == 3 ? 1u : 0u;
            std::vector<u8> payload(first + r_count);
            for (u8 &b : payload)
                b = static_cast<u8>(rng.uniformInt(0, 255));

            std::vector<u32> want_offset(count);
            std::vector<u8> want_value(count);
            u32 seen = 0;
            for (size_t i = 0; i < count; ++i) {
                seen += codes[i] == 3 ? 1u : 0u;
                want_offset[i] = first + seen - 1;
                want_value[i] = payload[want_offset[i]];
            }
            std::vector<u32> scalar_offset(count);
            std::vector<u8> scalar_value(count);
            ASSERT_EQ(detail::expandSourcesScalar(
                          codes.data(), count, first, payload.data(),
                          payload.size(), scalar_offset.data(),
                          scalar_value.data()),
                      r_count);
            ASSERT_EQ(scalar_offset, want_offset);
            ASSERT_EQ(scalar_value, want_value);

            for (const Level level : supportedLevels()) {
                ScopedLevel guard(level);
                ASSERT_TRUE(guard.ok()) << levelName(level);
                const std::string where = std::string(levelName(level)) +
                                          " count=" +
                                          std::to_string(count) +
                                          " density=" +
                                          std::to_string(density);
                std::vector<u32> offset(count + 1, 0xdeadbeef);
                std::vector<u8> value(count + 1, 0xab);
                EXPECT_EQ(expandSources(codes.data(), count, first,
                                        payload.data(), payload.size(),
                                        offset.data(), value.data()),
                          r_count)
                    << where;
                EXPECT_TRUE(std::equal(want_offset.begin(),
                                       want_offset.end(), offset.begin()))
                    << where;
                EXPECT_TRUE(std::equal(want_value.begin(), want_value.end(),
                                       value.begin()))
                    << where;
                EXPECT_EQ(offset[count], 0xdeadbeefu) << where;
                EXPECT_EQ(value[count], 0xab) << where;

                // Without a value row only the offsets are written.
                std::vector<u32> bare(count, 0);
                EXPECT_EQ(expandSources(codes.data(), count, first,
                                        payload.data(), payload.size(),
                                        bare.data(), nullptr),
                          r_count)
                    << where;
                EXPECT_EQ(bare, want_offset) << where;
            }
        }
    }
}

} // namespace
} // namespace rpx::simd
