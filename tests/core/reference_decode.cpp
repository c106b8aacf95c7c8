#include "reference_decode.hpp"

#include "common/error.hpp"

namespace rpx {

const std::vector<u32> &
MaskPrefixCache::rowPrefix(i32 y)
{
    RPX_ASSERT(y >= 0 && y < frame_->height, "prefix row out of bounds");
    auto &row = rows_[static_cast<size_t>(y)];
    if (row.empty()) {
        // Scalar code reads, so the oracle shares no kernel with the
        // SIMD-dispatched decoders it checks.
        row.resize(static_cast<size_t>(frame_->width) + 1);
        u32 running = 0;
        for (i32 x = 0; x < frame_->width; ++x) {
            row[static_cast<size_t>(x)] = running;
            if (frame_->mask.at(x, y) == PixelCode::R)
                ++running;
        }
        row.back() = running;
    }
    return row;
}

u32
MaskPrefixCache::encodedBefore(i32 x, i32 y)
{
    const auto &row = rowPrefix(y);
    RPX_ASSERT(x >= 0 && static_cast<size_t>(x) < row.size(),
               "prefix column out of bounds");
    return row[static_cast<size_t>(x)];
}

i32
MaskPrefixCache::lastEncodedAtOrBefore(i32 x, i32 y)
{
    const auto &row = rowPrefix(y);
    const u32 count = row[static_cast<size_t>(x) + 1];
    if (count == 0)
        return -1;
    // The last R at or before x is the largest column whose prefix entry is
    // count - 1 followed by count; binary search the monotone prefix.
    i32 lo = 0, hi = x;
    while (lo < hi) {
        const i32 mid = lo + (hi - lo + 1) / 2;
        if (row[static_cast<size_t>(mid)] < count)
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

std::optional<PixelSource>
findPixelSource(MaskPrefixCache &cache, i32 x, i32 y, int max_upscan)
{
    const EncodedFrame &f = cache.frame();
    RPX_ASSERT(x >= 0 && x < f.width && y >= 0 && y < f.height,
               "findPixelSource out of bounds");
    for (int dy = 0; dy <= max_upscan; ++dy) {
        const i32 yy = y - dy;
        if (yy < 0)
            break;
        const i32 xx = cache.lastEncodedAtOrBefore(x, yy);
        if (xx >= 0) {
            const u32 offset =
                f.offsets.offsetOf(yy) + cache.encodedBefore(xx, yy);
            return PixelSource{xx, yy, offset};
        }
    }
    return std::nullopt;
}

ReferenceDecode
referenceDecode(const EncodedFrame &current,
                const std::vector<const EncodedFrame *> &history,
                const SoftwareDecoder::Config &config)
{
    ReferenceDecode ref;
    ref.image = Image(current.width, current.height, PixelFormat::Gray8,
                      config.black_value);
    MaskPrefixCache cur_cache(current);
    std::vector<MaskPrefixCache> hist_caches;
    for (const EncodedFrame *f : history)
        hist_caches.emplace_back(*f);

    for (i32 y = 0; y < current.height; ++y) {
        for (i32 x = 0; x < current.width; ++x) {
            const PixelCode code = current.mask.at(x, y);
            if (code == PixelCode::N) {
                ++ref.black;
                continue;
            }
            if (code == PixelCode::R || code == PixelCode::St) {
                const auto src =
                    findPixelSource(cur_cache, x, y, config.max_upscan);
                if (src && src->offset < current.pixels.size()) {
                    ref.image.set(x, y, current.pixels[src->offset]);
                    continue;
                }
            }
            bool filled = false;
            for (size_t k = 0; k < history.size() && !filled; ++k) {
                const EncodedFrame &past = *history[k];
                const PixelCode pcode = past.mask.at(x, y);
                if (pcode != PixelCode::R && pcode != PixelCode::St)
                    continue;
                const auto src = findPixelSource(hist_caches[k], x, y,
                                                 config.max_upscan);
                if (src && src->offset < past.pixels.size()) {
                    ref.image.set(x, y, past.pixels[src->offset]);
                    ++ref.history_fills;
                    filled = true;
                }
            }
            if (!filled)
                ++ref.black;
        }
    }
    return ref;
}

std::vector<const EncodedFrame *>
usableHistory(const EncodedFrame &current,
              const std::vector<const EncodedFrame *> &history,
              size_t *skipped)
{
    std::vector<const EncodedFrame *> usable;
    for (const EncodedFrame *f : history) {
        if (f != nullptr && f->width == current.width &&
            f->height == current.height && f->validate())
            usable.push_back(f);
        else if (skipped)
            ++*skipped;
    }
    return usable;
}

} // namespace rpx
