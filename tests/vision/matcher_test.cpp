/**
 * @file
 * Unit tests for the brute-force descriptor matcher, plus a property test
 * against the two-scan matcher it replaced (kept here as the oracle).
 */

#include <bit>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "vision/matcher.hpp"

namespace rpx {
namespace {

Descriptor
pattern(u8 seed)
{
    Descriptor d{};
    for (size_t i = 0; i < d.size(); ++i)
        d[i] = static_cast<u8>(seed * 37 + i * 11);
    return d;
}

/** Flip `bits` low bits of a descriptor. */
Descriptor
corrupt(Descriptor d, int bits)
{
    for (int i = 0; i < bits; ++i)
        d[static_cast<size_t>(i / 8)] ^= static_cast<u8>(1u << (i % 8));
    return d;
}

TEST(Matcher, ExactMatches)
{
    const std::vector<Descriptor> train{pattern(1), pattern(2),
                                        pattern(3)};
    const std::vector<Descriptor> query{pattern(2)};
    const auto matches = matchDescriptors(query, train);
    ASSERT_EQ(matches.size(), 1u);
    EXPECT_EQ(matches[0].train_index, 1u);
    EXPECT_EQ(matches[0].distance, 0);
}

TEST(Matcher, MaxDistanceRejects)
{
    const std::vector<Descriptor> train{pattern(1)};
    const std::vector<Descriptor> query{corrupt(pattern(1), 100)};
    MatchOptions opts;
    opts.max_distance = 50;
    opts.ratio = 0.0;
    EXPECT_TRUE(matchDescriptors(query, train, opts).empty());
    opts.max_distance = 128;
    EXPECT_EQ(matchDescriptors(query, train, opts).size(), 1u);
}

TEST(Matcher, RatioTestRejectsAmbiguous)
{
    // Two near-identical train entries make the best/second-best ratio
    // approach 1 and fail Lowe's test.
    const Descriptor base = pattern(7);
    const std::vector<Descriptor> train{corrupt(base, 4),
                                        corrupt(base, 5)};
    const std::vector<Descriptor> query{base};
    MatchOptions opts;
    opts.ratio = 0.8;
    opts.cross_check = false;
    EXPECT_TRUE(matchDescriptors(query, train, opts).empty());
    opts.ratio = 0.0; // disabled
    EXPECT_EQ(matchDescriptors(query, train, opts).size(), 1u);
}

TEST(Matcher, CrossCheckRequiresMutual)
{
    // q0 is closest to t0, but t0 is closer to q1: cross-check kills q0.
    const Descriptor t0 = pattern(9);
    const std::vector<Descriptor> train{t0};
    const std::vector<Descriptor> query{corrupt(t0, 6), corrupt(t0, 2)};
    MatchOptions opts;
    opts.ratio = 0.0;
    const auto matches = matchDescriptors(query, train, opts);
    ASSERT_EQ(matches.size(), 1u);
    EXPECT_EQ(matches[0].query_index, 1u);
}

TEST(Matcher, EmptyInputs)
{
    EXPECT_TRUE(matchDescriptors({}, {pattern(1)}).empty());
    EXPECT_TRUE(matchDescriptors({pattern(1)}, {}).empty());
}

TEST(Matcher, DescriptorsOfExtracts)
{
    std::vector<OrbFeature> features(2);
    features[0].descriptor = pattern(1);
    features[1].descriptor = pattern(2);
    const auto d = descriptorsOf(features);
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d[0], pattern(1));
    EXPECT_EQ(d[1], pattern(2));
}

TEST(Matcher, ManyToManyConsistency)
{
    std::vector<Descriptor> train;
    for (u8 i = 0; i < 20; ++i)
        train.push_back(pattern(i));
    std::vector<Descriptor> query;
    for (u8 i = 0; i < 20; ++i)
        query.push_back(corrupt(pattern(i), 1));
    const auto matches = matchDescriptors(query, train);
    EXPECT_GT(matches.size(), 15u);
    for (const auto &m : matches)
        EXPECT_EQ(m.query_index, m.train_index);
}

// ---------------------------------------------------------------------
// Oracle: the byte-wise two-scan matcher. The forward scan finds each
// query's best and second-best train descriptor; the cross-check rescans
// every query for the chosen train descriptor's nearest.

int
oracleDistance(const Descriptor &a, const Descriptor &b)
{
    int dist = 0;
    for (size_t i = 0; i < a.size(); ++i)
        dist += std::popcount(static_cast<unsigned>(a[i] ^ b[i]));
    return dist;
}

struct OracleBest {
    int best = std::numeric_limits<int>::max();
    int second = std::numeric_limits<int>::max();
    size_t best_index = 0;
};

OracleBest
oracleNearest(const Descriptor &d, const std::vector<Descriptor> &pool)
{
    OracleBest out;
    for (size_t i = 0; i < pool.size(); ++i) {
        const int dist = oracleDistance(d, pool[i]);
        if (dist < out.best) {
            out.second = out.best;
            out.best = dist;
            out.best_index = i;
        } else if (dist < out.second) {
            out.second = dist;
        }
    }
    return out;
}

std::vector<Match>
oracleMatch(const std::vector<Descriptor> &query,
            const std::vector<Descriptor> &train, const MatchOptions &options)
{
    std::vector<Match> matches;
    if (query.empty() || train.empty())
        return matches;
    for (size_t qi = 0; qi < query.size(); ++qi) {
        const OracleBest fwd = oracleNearest(query[qi], train);
        if (fwd.best > options.max_distance)
            continue;
        if (options.ratio > 0.0 &&
            fwd.second != std::numeric_limits<int>::max() &&
            static_cast<double>(fwd.best) >=
                options.ratio * static_cast<double>(fwd.second)) {
            continue;
        }
        if (options.cross_check &&
            oracleNearest(train[fwd.best_index], query).best_index != qi)
            continue;
        matches.push_back({qi, fwd.best_index, fwd.best});
    }
    return matches;
}

/**
 * `n` descriptors drawn from a small alphabet: one of a few base patterns
 * with at most two bits flipped, so equal distances (ties for best, for
 * second-best and for the cross-check's nearest query) are frequent.
 */
std::vector<Descriptor>
alphabetDescriptors(Rng &rng, size_t n)
{
    std::vector<Descriptor> out(n);
    for (Descriptor &d : out) {
        d = pattern(static_cast<u8>(rng.uniformInt(0, 4)));
        for (int k = static_cast<int>(rng.uniformInt(0, 2)); k > 0; --k) {
            const auto bit = static_cast<size_t>(rng.uniformInt(0, 255));
            d[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
        }
    }
    return out;
}

TEST(Matcher, OnePassMatchesTwoScanOracle)
{
    for (const simd::Level level : simd::supportedLevels()) {
        ASSERT_TRUE(simd::setLevel(level));
        for (const double ratio : {0.0, 0.8}) {
            for (const bool cross_check : {false, true}) {
                for (const int max_distance : {0, 64, 256}) {
                    MatchOptions opts;
                    opts.ratio = ratio;
                    opts.cross_check = cross_check;
                    opts.max_distance = max_distance;
                    Rng rng(static_cast<u64>(max_distance) * 4 +
                            (cross_check ? 2 : 0) + (ratio > 0.0 ? 1 : 0));
                    size_t matched = 0;
                    for (int trial = 0; trial < 40; ++trial) {
                        const auto query = alphabetDescriptors(
                            rng, static_cast<size_t>(rng.uniformInt(1, 48)));
                        const auto train = alphabetDescriptors(
                            rng, static_cast<size_t>(rng.uniformInt(1, 48)));
                        const auto want = oracleMatch(query, train, opts);
                        const auto got = matchDescriptors(query, train, opts);
                        ASSERT_EQ(got.size(), want.size())
                            << simd::levelName(level) << " trial " << trial;
                        for (size_t i = 0; i < want.size(); ++i) {
                            EXPECT_EQ(got[i].query_index,
                                      want[i].query_index);
                            EXPECT_EQ(got[i].train_index,
                                      want[i].train_index);
                            EXPECT_EQ(got[i].distance, want[i].distance);
                        }
                        matched += want.size();
                    }
                    // Every configuration must actually match something,
                    // or the comparison above proves little.
                    EXPECT_GT(matched, 0u)
                        << "ratio " << ratio << " cross " << cross_check
                        << " max " << max_distance;
                }
            }
        }
    }
    simd::resetLevel();
}

} // namespace
} // namespace rpx
