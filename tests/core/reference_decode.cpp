#include "reference_decode.hpp"

namespace rpx {

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

} // namespace rpx
