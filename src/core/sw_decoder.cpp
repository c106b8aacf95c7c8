#include "core/sw_decoder.hpp"

#include <cstring>

#include "common/error.hpp"

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
        // m * 0xff widens it to a byte select mask.
        for (; x + 8 <= w; x += 8) {
            const u64 t = load8(todo + x);
            const u64 m = t & load8(codes + x);
            if (m == 0)
                continue;
            const u64 sel = m * 0xff;
            store8(out + x,
                   (load8(out + x) & ~sel) | (load8(value + x) & sel));
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

} // namespace

void
SoftwareDecoder::decodeCoreInto(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history, i32 y0, i32 y1,
    Image &out) const
{
    cur_carry_.bind(current, /*values=*/true);
    while (hist_carries_.size() < history.size())
        hist_carries_.emplace_back();
    for (size_t k = 0; k < history.size(); ++k)
        hist_carries_[k].bind(*history[k], /*values=*/true);

    const size_t w = static_cast<size_t>(current.width);
    todo_.resize(w);
    u64 fills = 0;
    u64 black = 0;

    for (i32 y = y0; y < y1; ++y) {
        // A source counts only within max_upscan rows above y; carries
        // catch up from there, which also primes the first row of a band.
        const i32 min_row = minSourceRow(y, config_.max_upscan);
        u8 *row = out.row(y);
        cur_carry_.advanceTo(y, min_row);
        u32 pending = markPending(cur_carry_.codes.data(), w, todo_.data());
        black += w - pending; // N pixels stay black

        // The current frame, then history most recent first, each under
        // the same rule. A history carry advances only for rows with
        // pixels left when its turn comes.
        if (pending > 0)
            pending -= resolveRow(cur_carry_, min_row, todo_.data(), row);
        for (size_t k = 0; k < history.size() && pending > 0; ++k) {
            SourceCarry &past = hist_carries_[k];
            past.advanceTo(y, min_row);
            const u32 got = resolveRow(past, min_row, todo_.data(), row);
            fills += got;
            pending -= got;
        }
        black += pending;
    }
    last_history_fills_ = fills;
    last_black_ = black;
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
SoftwareDecoder::decodeInto(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history, Image &out) const
{
    current.checkConsistency();
    for (const EncodedFrame *f : history) {
        RPX_ASSERT(f != nullptr, "null history frame");
        RPX_ASSERT(f->width == current.width && f->height == current.height,
                   "history frame geometry mismatch");
    }
    out.reinit(current.width, current.height, PixelFormat::Gray8,
               config_.black_value);
    decodeCoreInto(current, history, 0, current.height, out);
}

void
SoftwareDecoder::decodeBandInto(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history, i32 y0, i32 y1,
    Image &out) const
{
    RPX_ASSERT(out.width() == current.width &&
                   out.height() == current.height &&
                   out.format() == PixelFormat::Gray8,
               "decodeBandInto output geometry mismatch");
    RPX_ASSERT(y0 >= 0 && y0 <= y1 && y1 <= current.height,
               "decodeBandInto band out of range");
    decodeCoreInto(current, history, y0, y1, out);
}

void
SoftwareDecoder::filterUsableHistory(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history,
    std::vector<const EncodedFrame *> &usable, size_t &skipped)
{
    for (const EncodedFrame *f : history) {
        if (f != nullptr && f->width == current.width &&
            f->height == current.height && f->validate())
            usable.push_back(f);
        else
            ++skipped;
    }
}

SwDecodeStatus
SoftwareDecoder::tryDecode(const EncodedFrame &current,
                           const std::vector<const EncodedFrame *> &history,
                           Image &out) const
{
    SwDecodeStatus status;
    std::string why;
    if (!current.validate(&why)) {
        status.ok = false;
        status.quarantined = true;
        status.reason = std::move(why);
        return status;
    }
    usable_.clear();
    if (usable_.capacity() < history.size())
        usable_.reserve(history.size());
    filterUsableHistory(current, history, usable_, status.history_skipped);
    out.reinit(current.width, current.height, PixelFormat::Gray8,
               config_.black_value);
    decodeCoreInto(current, usable_, 0, current.height, out);
    return status;
}

} // namespace rpx
