#include "reference_encode.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rpx {

namespace {

/** Row-shortlist entry with per-frame/per-row precomputation. */
struct ShortlistEntry {
    const RegionLabel *region;
    bool active;        //!< temporal rhythm samples this frame
    bool row_on_stride; //!< row matches the vertical stride
};

struct Encoder {
    const std::vector<RegionLabel> &regions_;
    const RhythmicEncoder::Config &config_;
    i32 frame_w_;

    void buildShortlist(i32 row, FrameIndex t,
                        std::vector<ShortlistEntry> &out,
                        EncoderStats *stats) const;
    void encodeRow(const Image &gray, i32 y,
                   const std::vector<ShortlistEntry> &shortlist,
                   EncMask &mask, i32 mask_y, std::vector<u8> &pixels,
                   u32 &row_count, EncoderStats &stats,
                   RegionAttribution *attr) const;
    void chargeRowCycles(u64 row_comparisons, EncoderStats &stats) const;
};

void
Encoder::buildShortlist(i32 row, FrameIndex t,
                        std::vector<ShortlistEntry> &out,
                        EncoderStats *stats) const
{
    out.clear();
    // The list is y-sorted, so the selector stops at the first region that
    // starts below this row; everything examined before that is counted as
    // selector work (once per row, §4.1.1).
    for (const auto &r : regions_) {
        if (r.y > row)
            break;
        if (stats)
            ++stats->selector_examined;
        if (r.rect().containsRow(row))
            out.push_back({&r, r.activeAt(t), r.rowOnStride(row)});
    }
}

void
Encoder::chargeRowCycles(u64 row_comparisons, EncoderStats &stats) const
{
    // Cycle model: the row needs w / ppc cycles to stream through; the
    // comparison engine needs comparisons / lanes cycles. Whichever is
    // larger limits the row. Every row streams, even region-free ones, so
    // both accumulators advance for every row of the frame.
    const Cycles stream_cycles = static_cast<Cycles>(
        static_cast<double>(frame_w_) / config_.pixels_per_clock + 0.999);
    const Cycles engine_cycles =
        (row_comparisons + config_.engine_lanes - 1) /
        static_cast<u64>(config_.engine_lanes);
    stats.stream_cycles += stream_cycles;
    stats.compare_cycles += std::max(stream_cycles, engine_cycles);
}

void
Encoder::encodeRow(const Image &gray, i32 y,
                   const std::vector<ShortlistEntry> &shortlist,
                   EncMask &mask, i32 mask_y, std::vector<u8> &pixels,
                   u32 &row_count, EncoderStats &stats,
                   RegionAttribution *attr) const
{
    row_count = 0;
    const i32 w = frame_w_;
    const u8 *row = gray.row(y);

    // Attribution slot for a shortlist/grid pointer (they point into
    // regions_, so pointer arithmetic recovers the label index).
    const auto slot = [this](const RegionLabel *r) {
        return static_cast<size_t>(r - regions_.data());
    };

    if (shortlist.empty()) {
        ++stats.rows_skipped;
        u64 row_comparisons = 0;
        if (config_.mode == ComparisonMode::Naive) {
            // The naive engine still checks every region for every pixel
            // of a region-free row; that work occupies engine cycles too.
            row_comparisons =
                static_cast<u64>(regions_.size()) * static_cast<u64>(w);
            if (attr) {
                for (size_t i = 0; i < regions_.size(); ++i)
                    attr->comparisons[i] += static_cast<u64>(w);
            }
        }
        stats.region_comparisons += row_comparisons;
        chargeRowCycles(row_comparisons, stats);
        // Mask rows default to N; nothing to emit.
        return;
    }
    ++stats.rows_with_regions;

    // Boundary sweep: split the row into spans with a constant covering set
    // of shortlisted regions. Within a span only x-stride checks vary, which
    // is exactly the locality the hardware sampler exploits.
    std::vector<i32> edges;
    edges.reserve(shortlist.size() * 2 + 2);
    edges.push_back(0);
    edges.push_back(w);
    for (const auto &e : shortlist) {
        const i32 lo = std::clamp(e.region->x, 0, w);
        const i32 hi = std::clamp(e.region->x + e.region->w, 0, w);
        if (lo < hi) {
            edges.push_back(lo);
            edges.push_back(hi);
        }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    u64 row_comparisons = 0;
    for (size_t s = 0; s + 1 < edges.size(); ++s) {
        const i32 a = edges[s];
        const i32 b = edges[s + 1];
        const i32 span = b - a;

        // Covering set for this span.
        bool any_cover = false;
        bool any_active = false;
        const RegionLabel *stride1_region = nullptr;
        std::vector<const RegionLabel *> grid_regions;
        for (const auto &e : shortlist) {
            const i32 lo = e.region->x;
            const i32 hi = e.region->x + e.region->w;
            if (a < lo || a >= hi)
                continue;
            any_cover = true;
            if (e.active) {
                any_active = true;
                if (e.row_on_stride) {
                    grid_regions.push_back(e.region);
                    if (e.region->stride == 1 && !stride1_region)
                        stride1_region = e.region;
                }
            }
        }

        // Work accounting by mode. One sublist scan happens per span
        // (hybrid), per pixel (row-sublist), or against the full region
        // list per pixel (naive). Attribution mirrors each charge exactly
        // so per-region comparisons sum back to region_comparisons.
        switch (config_.mode) {
          case ComparisonMode::Naive:
            row_comparisons +=
                static_cast<u64>(regions_.size()) * static_cast<u64>(span);
            if (attr) {
                for (size_t i = 0; i < regions_.size(); ++i)
                    attr->comparisons[i] += static_cast<u64>(span);
            }
            break;
          case ComparisonMode::RowSublist:
            row_comparisons +=
                static_cast<u64>(shortlist.size()) * static_cast<u64>(span);
            if (attr) {
                for (const auto &e : shortlist)
                    attr->comparisons[slot(e.region)] +=
                        static_cast<u64>(span);
            }
            break;
          case ComparisonMode::Hybrid:
            row_comparisons += shortlist.size();
            if (attr) {
                for (const auto &e : shortlist)
                    attr->comparisons[slot(e.region)] += 1;
            }
            if (span > 1)
                stats.run_reuses += static_cast<u64>(span - 1);
            break;
        }

        if (!any_cover)
            continue; // span stays N

        const PixelCode base =
            any_active ? PixelCode::St : PixelCode::Sk;

        if (stride1_region) {
            // Fast path: the entire span is R; attribution claims it for
            // the first stride-1 region covering the span (deterministic,
            // and independent of which overlapping grid happens to match
            // a given x first).
            for (i32 x = a; x < b; ++x) {
                mask.set(x, mask_y, PixelCode::R);
                pixels.push_back(row[x]);
                ++row_count;
            }
            if (attr)
                attr->kept[slot(stride1_region)] += static_cast<u64>(span);
            continue;
        }

        for (i32 x = a; x < b; ++x) {
            PixelCode code = base;
            for (const RegionLabel *r : grid_regions) {
                if (config_.mode == ComparisonMode::Hybrid) {
                    ++row_comparisons;
                    if (attr)
                        attr->comparisons[slot(r)] += 1;
                }
                if ((x - r->x) % r->stride == 0) {
                    code = PixelCode::R;
                    if (attr)
                        attr->kept[slot(r)] += 1;
                    break;
                }
            }
            if (code != PixelCode::N)
                mask.set(x, mask_y, code);
            if (code == PixelCode::R) {
                pixels.push_back(row[x]);
                ++row_count;
            }
        }
    }

    stats.region_comparisons += row_comparisons;
    chargeRowCycles(row_comparisons, stats);
}

} // namespace

ReferenceEncode
referenceEncode(const std::vector<RegionLabel> &regions,
                const RhythmicEncoder::Config &config, const Image &gray,
                FrameIndex t, bool attribute)
{
    RPX_ASSERT(regionsSortedByY(regions),
               "reference encode expects a y-sorted label list");
    const i32 w = gray.width();
    const i32 h = gray.height();
    const Encoder enc{regions, config, w};

    ReferenceEncode ref;
    ref.frame.index = t;
    ref.frame.width = w;
    ref.frame.height = h;
    ref.frame.mask = EncMask(w, h);
    ref.frame.offsets = RowOffsets(h);
    ref.attr.reset(attribute ? regions.size() : 0);
    RegionAttribution *attr = attribute ? &ref.attr : nullptr;

    std::vector<ShortlistEntry> shortlist;
    for (i32 y = 0; y < h; ++y) {
        enc.buildShortlist(y, t, shortlist, &ref.stats);
        u32 row_count = 0;
        enc.encodeRow(gray, y, shortlist, ref.frame.mask, y,
                      ref.frame.pixels, row_count, ref.stats, attr);
        ref.frame.offsets.setRowCount(y, row_count);
    }
    ref.stats.frames = 1;
    ref.stats.pixels_in = static_cast<u64>(gray.pixelCount());
    ref.stats.pixels_encoded = ref.frame.pixels.size();
    return ref;
}

} // namespace rpx
