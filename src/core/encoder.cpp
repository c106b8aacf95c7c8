#include "core/encoder.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "common/error.hpp"

namespace rpx {

RhythmicEncoder::RhythmicEncoder(i32 frame_w, i32 frame_h,
                                 const Config &config)
    : frame_w_(frame_w), frame_h_(frame_h), config_(config)
{
    if (frame_w <= 0 || frame_h <= 0)
        throwInvalid("encoder frame geometry must be positive: ", frame_w,
                     "x", frame_h);
    if (config.engine_lanes <= 0)
        throwInvalid("engine_lanes must be positive");
    if (config.pixels_per_clock <= 0.0)
        throwInvalid("pixels_per_clock must be positive");
}

void
RhythmicEncoder::setRegionLabels(std::vector<RegionLabel> regions)
{
    validateRegions(regions, frame_w_, frame_h_);
    if (!regionsSortedByY(regions)) {
        if (config_.require_sorted) {
            throwInvalid("region label list must be y-sorted; call "
                         "sortRegionsByY() (the app runtime does this)");
        }
        // The RoI selector's early-out depends on y-order; when the
        // hardware precondition is relaxed, sort here instead.
        sortRegionsByY(regions);
    }
    regions_ = std::move(regions);
    plan_.invalidate();
}

PixelCode
RhythmicEncoder::classify(const std::vector<RegionLabel> &regions, i32 x,
                          i32 y, FrameIndex t)
{
    PixelCode best = PixelCode::N;
    for (const auto &r : regions) {
        if (!r.rect().contains(x, y))
            continue;
        if (r.activeAt(t)) {
            if (r.onStrideGrid(x, y))
                return PixelCode::R; // highest priority, done
            if (best != PixelCode::St)
                best = PixelCode::St;
        } else if (best == PixelCode::N) {
            best = PixelCode::Sk;
        } else if (best == PixelCode::Sk) {
            // keep Sk
        }
        // St dominates Sk: covered-by-active wins over covered-by-inactive.
    }
    return best;
}

void
EncoderStats::accumulate(const EncoderStats &other)
{
    frames += other.frames;
    pixels_in += other.pixels_in;
    pixels_encoded += other.pixels_encoded;
    region_comparisons += other.region_comparisons;
    selector_examined += other.selector_examined;
    rows_with_regions += other.rows_with_regions;
    rows_skipped += other.rows_skipped;
    run_reuses += other.run_reuses;
    compare_cycles += other.compare_cycles;
    stream_cycles += other.stream_cycles;
}

void
RegionAttribution::reset(size_t regions)
{
    kept.assign(regions, 0);
    comparisons.assign(regions, 0);
}

namespace {

/**
 * Visit the set bits of (a & b) in words [w0, w1] in ascending order;
 * f(bit) returns true to stop.
 */
template <class F>
void
forEachBit(const std::vector<u64> &a, const std::vector<u64> &b, size_t w0,
           size_t w1, F &&f)
{
    for (size_t i = w0; i <= w1; ++i) {
        for (u64 bits = a[i] & b[i]; bits; bits &= bits - 1) {
            if (f(static_cast<u32>(i * 64) + std::countr_zero(bits)))
                return;
        }
    }
}

} // namespace

void
RhythmicEncoder::buildPlan(FrameIndex t, KeptRunPlan &plan,
                           EncoderStats &work, RegionAttribution *attr) const
{
    const i32 w = frame_w_;
    const u64 uw = static_cast<u64>(w);
    const bool hybrid = config_.mode == ComparisonMode::Hybrid;
    plan.begin(w, frame_h_, t);
    work.reset();
    if (attr)
        attr->reset(regions_.size());

    // Bit sets over label indices (list order): the frame's active
    // labels, and per row the grids on the row and their stride-1 subset.
    // A row only reads the words of its live labels' index window.
    const size_t label_words = (regions_.size() + 63) / 64;
    plan.active_.assign(label_words, 0);
    plan.grid_.assign(label_words, 0);
    plan.stride1_.assign(label_words, 0);
    plan.cover_.assign(label_words, 0);
    for (size_t i = 0; i < regions_.size(); ++i)
        if (regions_[i].activeAt(t))
            plan.active_[i / 64] |= u64{1} << (i % 64);

    // The boundary sweep's events stay sorted by column from row to row:
    // a live label enters at its first column and leaves at its end,
    // both clamped to the row.
    auto &events = plan.events_;
    events.clear();
    const auto byColumn = [](const KeptRunPlan::Event &e, i32 x) {
        return e.x < x;
    };
    const auto editEvents = [&](u32 label, bool add) {
        const RegionLabel &r = regions_[label];
        const i32 lo = std::clamp(r.x, 0, w);
        const i32 hi = std::clamp(r.x + r.w, 0, w);
        if (lo >= hi)
            return;
        for (const i32 x : {lo, hi}) {
            auto it = std::lower_bound(events.begin(), events.end(), x,
                                       byColumn);
            if (add) {
                events.insert(it, {x, label});
                continue;
            }
            while (it->label != label)
                ++it;
            events.erase(it);
        }
    };

    auto &live = plan.live_;
    live.clear();
    size_t next = 0; // first label that starts below the row

    for (i32 y = 0; y < frame_h_; ++y) {
        // RoI selector. The list is y-sorted, so the hardware stops at the
        // first region that starts below this row, having examined every
        // region before it (selector work, once per row, §4.1.1). The
        // regions whose rows cover y are that prefix minus the ones that
        // already ended; `live` carries them from row to row in list order.
        for (; next < regions_.size() && regions_[next].y <= y; ++next) {
            live.push_back(static_cast<u32>(next));
            editEvents(static_cast<u32>(next), true);
        }
        work.selector_examined += next;
        std::erase_if(live, [&](u32 i) {
            if (y < regions_[i].y + regions_[i].h)
                return false;
            editEvents(i, false);
            return true;
        });

        // Work accounting by mode: the naive engine checks every label
        // for every pixel of every row (attributed for the whole frame
        // below); the row-sublist engine checks the shortlist for every
        // pixel; the hybrid engine scans the shortlist once per span,
        // reuses the result across the span, and per pixel checks the
        // span's stride grids in list order until one matches.
        const u64 k = live.size();
        u64 row_comparisons =
            config_.mode == ComparisonMode::Naive
                ? static_cast<u64>(regions_.size()) * uw
                : 0;
        if (k == 0) {
            ++work.rows_skipped;
            work.region_comparisons += row_comparisons;
            chargeRowCycles(row_comparisons, work);
            plan.endRow(0); // mask rows default to N
            continue;
        }
        ++work.rows_with_regions;

        const size_t w0 = live.front() / 64;
        const size_t w1 = live.back() / 64;
        for (size_t i = w0; i <= w1; ++i)
            plan.grid_[i] = plan.stride1_[i] = plan.cover_[i] = 0;
        for (const u32 i : live) {
            const RegionLabel &r = regions_[i];
            const u64 bit = u64{1} << (i % 64);
            if ((plan.active_[i / 64] & bit) && r.rowOnStride(y)) {
                plan.grid_[i / 64] |= bit;
                if (r.stride == 1)
                    plan.stride1_[i / 64] |= bit;
            }
        }

        u64 spans = 0;
        u32 row_kept = 0;
        size_t ev = 0;
        for (i32 a = 0; a < w; ++spans) {
            // Labels that start or end at column a toggle in or out; the
            // span runs to the next boundary with that covering set.
            for (; ev < events.size() && events[ev].x == a; ++ev)
                plan.cover_[events[ev].label / 64] ^=
                    u64{1} << (events[ev].label % 64);
            const i32 b = ev < events.size() ? events[ev].x : w;
            const i32 n = b - a;
            const i32 x0 = a;
            a = b;

            u64 any_cover = 0;
            u64 any_active = 0;
            i64 stride1 = -1; // first stride-1 grid covering the span
            for (size_t i = w0; i <= w1; ++i) {
                const u64 c = plan.cover_[i];
                any_cover |= c;
                any_active |= c & plan.active_[i];
                if (stride1 < 0 && (c & plan.stride1_[i]))
                    stride1 = static_cast<i64>(i * 64) +
                              std::countr_zero(c & plan.stride1_[i]);
            }
            if (!any_cover)
                continue; // span stays N

            KeptSpan span;
            span.x0 = x0;
            span.x1 = b;
            span.base = any_active ? PixelCode::St : PixelCode::Sk;
            span.off_begin = static_cast<u32>(plan.offsets_.size());
            if (stride1 >= 0) {
                // The whole span is R, claimed by the first stride-1 grid
                // with no per-pixel check.
                plan.offsets_.push_back(0);
                span.kept = static_cast<u32>(n);
                if (attr)
                    attr->kept[static_cast<size_t>(stride1)] +=
                        static_cast<u64>(n);
            } else {
                planSpanByWalk(x0, b, w0, w1, plan, attr, row_comparisons,
                               span);
            }
            row_kept += span.kept;
            span.off_count =
                static_cast<u32>(plan.offsets_.size()) - span.off_begin;
            plan.spans_.push_back(span);
        }

        if (config_.mode == ComparisonMode::RowSublist) {
            row_comparisons = k * uw;
            if (attr)
                for (const u32 i : live)
                    attr->comparisons[i] += uw;
        } else if (hybrid) {
            row_comparisons += k * spans;
            if (attr)
                for (const u32 i : live)
                    attr->comparisons[i] += spans;
            work.run_reuses += uw - spans; // span - 1 per span
        }
        work.region_comparisons += row_comparisons;
        chargeRowCycles(row_comparisons, work);
        plan.endRow(row_kept);
    }
    if (attr && config_.mode == ComparisonMode::Naive) {
        for (u64 &c : attr->comparisons)
            c += uw * static_cast<u64>(frame_h_);
    }
    plan.valid_ = true;
}

void
RhythmicEncoder::planSpanByWalk(i32 a, i32 b, size_t w0, size_t w1,
                                KeptRunPlan &plan, RegionAttribution *attr,
                                u64 &row_comparisons, KeptSpan &span) const
{
    // Whether column a + j is on a grid, and which grid matches first,
    // repeats with the lcm of the covering strides; one period (or the
    // whole span, if shorter) gives every count, each column weighted by
    // how often it recurs in the span.
    const i32 n = b - a;
    i64 period = 1;
    forEachBit(plan.cover_, plan.grid_, w0, w1, [&](u32 label) {
        period = std::min<i64>(
            std::lcm(period, i64{regions_[label].stride}), n);
        return false;
    });
    span.period = static_cast<i32>(period);
    const auto reps = [&](i32 j) {
        return static_cast<u64>((n - 1 - j) / span.period) + 1;
    };
    // Grids in list order: each is checked at every pixel no earlier grid
    // matched, and keeps the ones of its columns no earlier grid claimed.
    auto &claimed = plan.claimed_;
    claimed.assign(static_cast<size_t>(span.period), 0);
    u64 unmatched = static_cast<u64>(n);
    forEachBit(plan.cover_, plan.grid_, w0, w1, [&](u32 label) {
        const RegionLabel &r = regions_[label];
        if (config_.mode == ComparisonMode::Hybrid) {
            row_comparisons += unmatched;
            if (attr)
                attr->comparisons[label] += unmatched;
        }
        u64 kept = 0;
        const i32 first = (r.stride - (a - r.x) % r.stride) % r.stride;
        for (i32 j = first; j < span.period; j += r.stride) {
            if (!claimed[static_cast<size_t>(j)]) {
                claimed[static_cast<size_t>(j)] = 1;
                kept += reps(j);
            }
        }
        if (attr)
            attr->kept[label] += kept;
        unmatched -= kept;
        return unmatched == 0;
    });
    span.kept = static_cast<u32>(static_cast<u64>(n) - unmatched);
    for (i32 j = 0; j < span.period; ++j)
        if (claimed[static_cast<size_t>(j)])
            plan.offsets_.push_back(j);
}

const KeptRunPlan &
RhythmicEncoder::planFrame(FrameIndex t)
{
    if (!plan_.valid() || plan_.frame() != t)
        buildPlan(t, plan_, plan_work_,
                  attribute_regions_ ? &plan_attr_ : nullptr);
    return plan_;
}

RhythmicEncoder::FrameSummary
RhythmicEncoder::summarizeFrame(FrameIndex t) const
{
    KeptRunPlan plan;
    EncoderStats work;
    buildPlan(t, plan, work, nullptr);

    FrameSummary sum;
    u64 covered = 0;
    for (i32 y = 0; y < frame_h_; ++y) {
        for (const KeptSpan &s : plan.spans(y)) {
            const u64 width = static_cast<u64>(s.width());
            covered += width;
            sum.r += s.kept;
            (s.base == PixelCode::St ? sum.st : sum.sk) += width - s.kept;
        }
    }
    sum.n = static_cast<u64>(frame_w_) * static_cast<u64>(frame_h_) -
            covered;
    sum.metadata_bytes =
        (static_cast<Bytes>(frame_w_) * frame_h_ * 2 + 7) / 8 +
        static_cast<Bytes>(frame_h_) * sizeof(u32);
    return sum;
}

void
RhythmicEncoder::chargeRowCycles(u64 row_comparisons,
                                 EncoderStats &stats) const
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

EncodedFrame
RhythmicEncoder::encodeFrame(const Image &gray, FrameIndex t)
{
    if (gray.channels() != 1)
        throwInvalid("encoder consumes grayscale (post-ISP luma) frames");
    if (gray.width() != frame_w_ || gray.height() != frame_h_)
        throwInvalid("frame geometry mismatch: got ", gray.width(), "x",
                     gray.height(), ", configured ", frame_w_, "x",
                     frame_h_);
    planFrame(t);

    // Shape the output from the plan: an all-N mask, a payload sized to
    // the kept count and the row offsets the plan fixes.
    EncodedFrame out;
    out.index = t;
    out.width = frame_w_;
    out.height = frame_h_;
    out.mask = EncMask(frame_w_, frame_h_);
    out.pixels.resize(static_cast<size_t>(plan_.kept()));
    out.offsets = RowOffsets(frame_h_);
    for (i32 y = 0; y < frame_h_; ++y)
        out.offsets.setRowCount(y, plan_.rowKept(y));

    // Each span's mask run as replicated code bytes, then the kept
    // columns' R codes and pixels: one copy per all-kept span, else a
    // strided gather.
    for (i32 y = 0; y < frame_h_; ++y) {
        const u8 *src = gray.row(y);
        u8 *dst = out.pixels.data() + out.offsets.offsetOf(y);
        for (const KeptSpan &s : plan_.spans(y)) {
            if (s.allKept()) {
                out.mask.fillRun(y, s.x0, s.width(), PixelCode::R);
                std::memcpy(dst, src + s.x0, s.kept);
                dst += s.kept;
                continue;
            }
            out.mask.fillRun(y, s.x0, s.width(), s.base);
            plan_.forEachRun(s, [&](i32 x, u32 count, i32 step) {
                out.mask.markR(y, x, count, step);
                for (u32 i = 0; i < count; ++i, x += step)
                    *dst++ = src[x];
            });
        }
    }

    // Fold the plan's work counters into the stats, the attribution
    // snapshot and the obs counters.
    const u64 pixels_in =
        static_cast<u64>(frame_w_) * static_cast<u64>(frame_h_);
    stats_.accumulate(plan_work_);
    ++stats_.frames;
    stats_.pixels_in += pixels_in;
    stats_.pixels_encoded += out.pixels.size();
    if (attribute_regions_)
        last_attr_ = plan_attr_;
    if (obs_frames_) {
        obs_frames_->inc();
        obs_pixels_in_->add(pixels_in);
        obs_pixels_kept_->add(out.pixels.size());
        obs_comparisons_->add(plan_work_.region_comparisons);
        obs_compare_cycles_->add(plan_work_.compare_cycles);
    }
    return out;
}

void
RhythmicEncoder::attachObs(obs::ObsContext *ctx)
{
    if (!ctx) {
        obs_frames_ = obs_pixels_in_ = obs_pixels_kept_ = nullptr;
        obs_comparisons_ = obs_compare_cycles_ = nullptr;
        return;
    }
    obs::PerfRegistry &r = ctx->registry();
    obs_frames_ = &r.counter("encoder.frames");
    obs_pixels_in_ = &r.counter("encoder.pixels_in");
    obs_pixels_kept_ = &r.counter("encoder.pixels_kept");
    obs_comparisons_ = &r.counter("encoder.region_comparisons");
    obs_compare_cycles_ = &r.counter("encoder.compare_cycles");
}

bool
RhythmicEncoder::withinCycleBudget() const
{
    // Every row now charges at least its stream time to compare_cycles
    // (see chargeRowCycles), so the budget is the accumulated stream time
    // of the same rows — not a pixels_in estimate, which over-granted
    // headroom on sparse frames whose skipped rows charged nothing.
    return stats_.compare_cycles <= stats_.stream_cycles;
}

} // namespace rpx
