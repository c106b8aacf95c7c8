#include "core/sw_decoder.hpp"

#include "common/error.hpp"
#include "common/simd.hpp"

namespace rpx {

SoftwareDecoder::SoftwareDecoder(const Config &config) : config_(config)
{
    if (config.max_upscan < 0)
        throwInvalid("max_upscan must be non-negative");
}

void
SoftwareDecoder::decodeCoreInto(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history, i32 y0, i32 y1,
    Image &out) const
{
    cur_carry_.bind(current);
    while (hist_carries_.size() < history.size())
        hist_carries_.emplace_back();
    for (size_t k = 0; k < history.size(); ++k)
        hist_carries_[k].bind(*history[k]);

    // Payload bounds: validate() guarantees the row-offset table stays
    // inside [0, pixels.size()], but a corrupt mask can still disagree
    // with the offsets, so every derived payload index is range-checked
    // before the read — an out-of-range source demotes the pixel to the
    // history/black fallback instead of reading out of bounds.
    const size_t w = static_cast<size_t>(current.width);
    const size_t cur_limit = current.pixels.size();
    const u32 *cur_offset = cur_carry_.offset.data();
    const i32 *cur_row = cur_carry_.row.data();
    row_codes_.resize(w);
    pending_.resize(w);
    u64 fills = 0;
    u64 black = 0;

    for (i32 y = y0; y < y1; ++y) {
        // A source counts only within max_upscan rows above y; carries
        // catch up from there, which also primes the first row of a band.
        const i32 min_row = minSourceRow(y, config_.max_upscan);
        u8 *row = out.row(y);
        simd::unpackMask2bpp(current.mask.bytes().data(),
                             static_cast<size_t>(y) * w, w,
                             row_codes_.data());

        // Current frame. An R is payload entry row_off + (R codes before
        // it); an St with an R at or left of it in its own row takes the
        // latest such R; any other St looks up the current-frame carry,
        // which advances only for rows that need it. Unresolved pixels
        // queue for history.
        const u32 row_off = current.offsets.offsetOf(y);
        u32 r_seen = 0;
        u32 last = 0;
        size_t pending = 0;
        for (size_t x = 0; x < w; ++x) {
            const PixelCode code = static_cast<PixelCode>(row_codes_[x]);
            if (code == PixelCode::N) {
                ++black;
                continue; // already black
            }
            size_t offset = cur_limit; // no source
            if (code == PixelCode::R) {
                last = row_off + r_seen++;
                offset = last;
            } else if (code == PixelCode::St) {
                if (r_seen > 0) {
                    offset = last;
                } else {
                    if (cur_carry_.next_row <= y)
                        cur_carry_.advanceTo(y, min_row);
                    if (cur_row[x] >= min_row)
                        offset = cur_offset[x];
                }
            }
            if (offset < cur_limit)
                row[x] = current.pixels[offset];
            else
                pending_[pending++] = static_cast<u32>(x);
        }

        // History, most recent first: a pending pixel fills from the
        // first frame that sampled it (R or St) and has its source in
        // reach. Each history carry advances only for rows with pending
        // pixels left when its turn comes.
        for (size_t k = 0; k < history.size() && pending > 0; ++k) {
            SourceCarry &past = hist_carries_[k];
            past.advanceTo(y, min_row);
            const u8 *codes = past.codes.data();
            const u32 *offset = past.offset.data();
            const i32 *src_row = past.row.data();
            const u8 *pixels = past.frame->pixels.data();
            const size_t limit = past.frame->pixels.size();
            size_t still = 0;
            for (size_t i = 0; i < pending; ++i) {
                const u32 x = pending_[i];
                const PixelCode pcode = static_cast<PixelCode>(codes[x]);
                if ((pcode == PixelCode::R || pcode == PixelCode::St) &&
                    src_row[x] >= min_row && offset[x] < limit) {
                    row[x] = pixels[offset[x]];
                    ++fills;
                } else {
                    pending_[still++] = x;
                }
            }
            pending = still;
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
