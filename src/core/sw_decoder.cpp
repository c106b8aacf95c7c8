#include "core/sw_decoder.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/simd.hpp"

namespace rpx {

SoftwareDecoder::SoftwareDecoder(const Config &config) : config_(config)
{
    if (config.max_upscan < 0)
        throwInvalid("max_upscan must be non-negative");
}

namespace {

constexpr u64 kByteLsbs = 0x0101010101010101ULL;

u64
load8(const u8 *p)
{
    u64 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

void
store8(u8 *p, u64 v)
{
    std::memcpy(p, &v, sizeof(v));
}

/** Sum of the eight bytes of `v`, each 0 or 1. */
u32
byteSum(u64 v)
{
    return static_cast<u32>((v * kByteLsbs) >> 56);
}

/**
 * todo[x] = 1 for every column whose code is not N (0 otherwise), eight
 * columns per word; returns the number of such columns.
 */
u32
markPending(const u8 *codes, size_t w, u8 *todo)
{
    u32 pending = 0;
    size_t x = 0;
    for (; x + 8 <= w; x += 8) {
        const u64 c = load8(codes + x);
        const u64 t = (c | (c >> 1)) & kByteLsbs;
        store8(todo + x, t);
        pending += byteSum(t);
    }
    for (; x < w; ++x) {
        todo[x] = codes[x] != 0 ? 1 : 0;
        pending += todo[x];
    }
    return pending;
}

/**
 * The one resolver rule, applied to a carry swept through the output
 * row: a pending column resolves when the frame sampled it (R or St,
 * code & 1), its source row is at least `min_row` (x >= the carry's
 * threshold) and, for a frame whose carry overran its payload, its
 * source lies inside the payload. Resolved columns take the carried
 * source byte and leave `todo`; returns how many resolved.
 */
u32
resolveRow(const SourceCarry &carry, i32 min_row, u8 *todo, u8 *out)
{
    const size_t w = carry.codes.size();
    const u8 *codes = carry.codes.data();
    const u8 *value = carry.value.data();
    u32 resolved = 0;
    size_t x = carry.threshold(min_row);
    if (!carry.overrun) {
        // Eight columns per word: m holds 1 in each resolving byte, and
        // m * 0xff widens it to a byte select mask. A word that resolves
        // whole is stored without reading the output back.
        for (; x + 8 <= w; x += 8) {
            const u64 t = load8(todo + x);
            const u64 m = t & load8(codes + x);
            if (m == 0)
                continue;
            if (m == kByteLsbs) {
                store8(out + x, load8(value + x));
            } else {
                const u64 sel = m * 0xff;
                store8(out + x,
                       (load8(out + x) & ~sel) | (load8(value + x) & sel));
            }
            store8(todo + x, t & ~m);
            resolved += byteSum(m);
        }
    }
    const size_t limit = carry.frame->pixels.size();
    for (; x < w; ++x) {
        if ((todo[x] & codes[x] & 1) != 0 && carry.offset[x] < limit) {
            out[x] = value[x];
            todo[x] = 0;
            ++resolved;
        }
    }
    return resolved;
}

/**
 * The resolver for a kept cache row, in one pass with no todo row: a
 * pixel the frame resolves under resolveRow's rule takes the carried
 * byte, an N pixel turns black, and every other pixel keeps its cached
 * value.
 */
simd::RefreshCounts
refreshKeptRow(const SourceCarry &carry, i32 min_row, u8 black, u8 *out)
{
    const size_t w = carry.codes.size();
    const u8 *codes = carry.codes.data();
    const u8 *value = carry.value.data();
    const size_t first = carry.threshold(min_row);
    simd::RefreshCounts done;
    // Left of `first` no source is in range, so only N pixels change.
    for (size_t x = 0; x < first; ++x) {
        if (codes[x] == 0) {
            out[x] = black;
            ++done.n;
        }
    }
    if (!carry.overrun) {
        const simd::RefreshCounts rest = simd::refreshRow(
            codes + first, value + first, w - first, black, out + first);
        done.sampled += rest.sampled;
        done.n += rest.n;
        return done;
    }
    const size_t limit = carry.frame->pixels.size();
    for (size_t x = first; x < w; ++x) {
        if (codes[x] == 0) {
            out[x] = black;
            ++done.n;
        } else if ((codes[x] & 1) != 0 && carry.offset[x] < limit) {
            out[x] = value[x];
            ++done.sampled;
        }
    }
    return done;
}

} // namespace

void
SoftwareDecoder::decodeFrame(const EncodedFrame &current,
                             const std::vector<const EncodedFrame *> &history,
                             Image &out, DecodedRowState *rows,
                             PlaneState plane) const
{
    cur_carry_.bind(current, /*values=*/true);
    while (hist_carries_.size() < history.size())
        hist_carries_.emplace_back();
    for (size_t k = 0; k < history.size(); ++k)
        hist_carries_[k].bind(*history[k], /*values=*/true);

    const size_t w = static_cast<size_t>(current.width);
    const i32 h = current.height;
    const u8 black_value = config_.black_value;
    todo_.resize(w);
    u64 fills = 0;
    u64 black = 0;

    for (i32 y = 0; y < h; ++y) {
        // A source counts only within max_upscan rows above y; carries
        // catch up from there.
        const i32 min_row = minSourceRow(y, config_.max_upscan);
        u8 *row = out.row(y);
        // A cached row is kept when it held no black pixel and its oldest
        // source is still in the window: then every pixel the current
        // frame leaves pending keeps its cached value (DecodedFrameCache).
        DecodedRowState *state = rows ? rows + y : nullptr;
        const bool keep = plane == PlaneState::Cached && state->clean &&
                          state->age < history.size();
        cur_carry_.advanceTo(y - 1, min_row);
        if (keep && cur_carry_.sweepIfAllSkipped(y)) {
            fills += w; // the frame refreshed nothing in this row
            ++state->age;
            continue;
        }
        cur_carry_.advanceTo(y, min_row);
        if (keep) {
            const simd::RefreshCounts done =
                refreshKeptRow(cur_carry_, min_row, black_value, row);
            const u32 kept = static_cast<u32>(w) - done.sampled - done.n;
            black += done.n;
            fills += kept;
            *state = {done.n == 0, kept > 0 ? state->age + 1 : 0};
            continue;
        }
        u32 pending = markPending(cur_carry_.codes.data(), w, todo_.data());
        const u32 n_pixels = static_cast<u32>(w) - pending;
        black += n_pixels; // N pixels stay black
        if (plane != PlaneState::Black)
            std::memset(row, black_value, w); // the plane holds old rows

        // The current frame, then history most recent first, each under
        // the same rule. A history carry advances only for rows with
        // pixels left when its turn comes.
        if (pending > 0)
            pending -= resolveRow(cur_carry_, min_row, todo_.data(), row);
        u32 oldest = 0;
        for (size_t k = 0; k < history.size() && pending > 0; ++k) {
            SourceCarry &past = hist_carries_[k];
            past.advanceTo(y, min_row);
            const u32 got = resolveRow(past, min_row, todo_.data(), row);
            if (got > 0)
                oldest = static_cast<u32>(k) + 1;
            fills += got;
            pending -= got;
        }
        black += pending;
        if (state)
            *state = {n_pixels == 0 && pending == 0, oldest};
    }
    last_history_fills_ = fills;
    last_black_ = black;
    last_current_read_ = cur_carry_.bytes_read;
    last_history_read_ = 0;
    for (size_t k = 0; k < history.size(); ++k)
        last_history_read_ += hist_carries_[k].bytes_read;
}

void
SoftwareDecoder::decodeCached(const EncodedFrame &current,
                              const std::vector<const EncodedFrame *> &history,
                              bool history_complete,
                              DecodedFrameCache &cache) const
{
    const PlaneState plane =
        cache.prepare(current, history, history_complete, config_);
    decodeFrame(current, history, cache.plane_, cache.rows_.data(), plane);
    cache.commit(current, history);
}

Image
SoftwareDecoder::decode(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history) const
{
    Image out;
    decodeInto(current, history, out);
    return out;
}

void
SoftwareDecoder::checkInputs(const EncodedFrame &current,
                             const std::vector<const EncodedFrame *> &history)
{
    current.checkConsistency();
    for (const EncodedFrame *f : history) {
        RPX_ASSERT(f != nullptr, "null history frame");
        RPX_ASSERT(f->width == current.width && f->height == current.height,
                   "history frame geometry mismatch");
    }
}

void
SoftwareDecoder::decodeInto(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history, Image &out) const
{
    checkInputs(current, history);
    out.reinit(current.width, current.height, PixelFormat::Gray8,
               config_.black_value);
    decodeFrame(current, history, out, nullptr, PlaneState::Black);
}

void
SoftwareDecoder::decodeInto(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history,
    DecodedFrameCache &cache) const
{
    checkInputs(current, history);
    decodeCached(current, history, /*history_complete=*/true, cache);
}

bool
SoftwareDecoder::validateInputs(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history,
    SwDecodeStatus &status) const
{
    if (!current.validate(&status.reason)) {
        status.ok = false;
        status.quarantined = true;
        return false;
    }
    usable_.clear();
    if (usable_.capacity() < history.size())
        usable_.reserve(history.size());
    for (const EncodedFrame *f : history) {
        if (f != nullptr && f->width == current.width &&
            f->height == current.height && f->validate())
            usable_.push_back(f);
        else
            ++status.history_skipped;
    }
    return true;
}

SwDecodeStatus
SoftwareDecoder::tryDecode(const EncodedFrame &current,
                           const std::vector<const EncodedFrame *> &history,
                           Image &out) const
{
    SwDecodeStatus status;
    if (!validateInputs(current, history, status))
        return status;
    out.reinit(current.width, current.height, PixelFormat::Gray8,
               config_.black_value);
    decodeFrame(current, usable_, out, nullptr, PlaneState::Black);
    return status;
}

SwDecodeStatus
SoftwareDecoder::tryDecode(const EncodedFrame &current,
                           const std::vector<const EncodedFrame *> &history,
                           DecodedFrameCache &cache) const
{
    SwDecodeStatus status;
    if (validateInputs(current, history, status))
        decodeCached(current, usable_, status.history_skipped == 0, cache);
    return status;
}

PlaneState
DecodedFrameCache::prepare(const EncodedFrame &current,
                           const std::vector<const EncodedFrame *> &history,
                           bool history_complete,
                           const SoftwareDecoder::Config &config)
{
    const bool same_layout = plane_.width() == current.width &&
                            plane_.height() == current.height &&
                            config.black_value == config_.black_value &&
                            config.max_upscan == config_.max_upscan;
    bool reuse = same_layout && history_complete && !history.empty() &&
                 history.size() <= chain_.size();
    for (size_t k = 0; reuse && k < history.size(); ++k)
        reuse = chain_[k].frame == history[k] &&
                chain_[k].index == history[k]->index;
    if (!same_layout) {
        plane_.reinit(current.width, current.height, PixelFormat::Gray8,
                      config.black_value);
        rows_.assign(static_cast<size_t>(current.height), DecodedRowState{});
        config_ = config;
    }
    // Cleared until commit(), so a decode that throws leaves no frame.
    chain_.clear();
    if (!same_layout)
        return PlaneState::Black;
    return reuse ? PlaneState::Cached : PlaneState::Stale;
}

void
DecodedFrameCache::commit(const EncodedFrame &current,
                          const std::vector<const EncodedFrame *> &history)
{
    chain_.push_back({&current, current.index});
    for (const EncodedFrame *f : history)
        chain_.push_back({f, f->index});
}

} // namespace rpx
