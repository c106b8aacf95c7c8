#include "vision/matcher.hpp"

#include <limits>

#include "common/simd.hpp"

namespace rpx {

std::vector<Match>
matchDescriptors(const std::vector<Descriptor> &query,
                 const std::vector<Descriptor> &train,
                 const MatchOptions &options)
{
    std::vector<Match> matches;
    if (query.empty() || train.empty())
        return matches;

    // One distance row per query feeds both directions. Forward: the best
    // and second-best train distance of the query. Backward: per train
    // column, the nearest query so far; strict < keeps the lowest query
    // index on ties, so after the last row it is the train descriptor's
    // own nearest neighbour among the queries.
    struct Forward {
        int best = std::numeric_limits<int>::max();
        int second = std::numeric_limits<int>::max();
        size_t best_index = 0;
    };
    std::vector<Forward> fwd(query.size());
    std::vector<u16> row(train.size());
    std::vector<u16> col_best(train.size(), std::numeric_limits<u16>::max());
    std::vector<size_t> col_query(train.size(), 0);
    const u8 *pool = train.front().data();
    for (size_t qi = 0; qi < query.size(); ++qi) {
        simd::hammingRow256(query[qi].data(), pool, train.size(), row.data());
        Forward &f = fwd[qi];
        for (size_t ti = 0; ti < train.size(); ++ti) {
            const int dist = row[ti];
            if (dist < f.best) {
                f.second = f.best;
                f.best = dist;
                f.best_index = ti;
            } else if (dist < f.second) {
                f.second = dist;
            }
            if (row[ti] < col_best[ti]) {
                col_best[ti] = row[ti];
                col_query[ti] = qi;
            }
        }
    }

    for (size_t qi = 0; qi < query.size(); ++qi) {
        const Forward &f = fwd[qi];
        if (f.best > options.max_distance)
            continue;
        if (options.ratio > 0.0 &&
            f.second != std::numeric_limits<int>::max() &&
            static_cast<double>(f.best) >=
                options.ratio * static_cast<double>(f.second)) {
            continue;
        }
        if (options.cross_check && col_query[f.best_index] != qi)
            continue;
        matches.push_back({qi, f.best_index, f.best});
    }
    return matches;
}

std::vector<Match>
matchDescriptors(const std::vector<Descriptor> &query,
                 const std::vector<Descriptor> &train)
{
    return matchDescriptors(query, train, MatchOptions{});
}

std::vector<Descriptor>
descriptorsOf(const std::vector<OrbFeature> &features)
{
    std::vector<Descriptor> out;
    out.reserve(features.size());
    for (const auto &f : features)
        out.push_back(f.descriptor);
    return out;
}

} // namespace rpx
