#include "core/parallel_decoder.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rpx {

namespace {

/** Band starts land on multiples of 4 rows: 4 rows of 2-bit codes occupy
 *  exactly `width` bytes, so every band boundary is byte-aligned in the
 *  packed mask regardless of frame width. */
constexpr i32 kBandAlign = 4;

} // namespace

ParallelDecoder::ParallelDecoder(const Config &config)
    : config_(config),
      threads_(config.threads == 0 ? ThreadPool::hardwareThreads()
                                   : config.threads)
{
    if (config.threads < 0)
        throwInvalid("decoder thread count must be >= 0, got ",
                     config.threads);
    if (config.min_band_rows < kBandAlign ||
        config.min_band_rows % kBandAlign != 0)
        throwInvalid("min_band_rows must be a positive multiple of ",
                     kBandAlign, ", got ", config.min_band_rows);
    band_.reserve(static_cast<size_t>(threads_));
    band_.push_back(std::make_unique<SoftwareDecoder>(config.decoder));
    if (threads_ > 1)
        pool_ = std::make_unique<ThreadPool>(threads_);
}

std::vector<std::pair<i32, i32>>
ParallelDecoder::partition(i32 rows, int bands, i32 min_band_rows)
{
    RPX_ASSERT(rows > 0 && bands > 0, "partition needs rows and bands");
    // Rows per band: an even split, rounded up to the alignment quantum
    // and floored at min_band_rows so tiny frames do not shatter into
    // slivers with more stitch overhead than decode work.
    const i32 even = (rows + bands - 1) / bands;
    i32 per_band = ((even + kBandAlign - 1) / kBandAlign) * kBandAlign;
    per_band = std::max(per_band, min_band_rows);

    std::vector<std::pair<i32, i32>> ranges;
    for (i32 y0 = 0; y0 < rows; y0 += per_band)
        ranges.emplace_back(y0, std::min(rows, y0 + per_band));
    return ranges;
}

void
ParallelDecoder::decodeValidatedInto(
    const EncodedFrame &current,
    const std::vector<const EncodedFrame *> &history, Image &out)
{
    out.reinit(current.width, current.height, PixelFormat::Gray8,
               config_.decoder.black_value);
    const auto ranges =
        partition(current.height, threads_, config_.min_band_rows);
    while (band_.size() < ranges.size())
        band_.push_back(std::make_unique<SoftwareDecoder>(config_.decoder));

    std::vector<std::future<void>> pending;
    pending.reserve(ranges.size());
    for (size_t b = 0; b < ranges.size(); ++b) {
        pending.push_back(
            pool_->submit([this, &current, &history, &out, b, &ranges] {
                band_[b]->decodeBandInto(current, history, ranges[b].first,
                                         ranges[b].second, out);
            }));
    }
    for (auto &f : pending)
        f.get(); // propagates worker exceptions

    last_history_fills_ = 0;
    last_black_ = 0;
    for (size_t b = 0; b < ranges.size(); ++b) {
        last_history_fills_ += band_[b]->lastHistoryFills();
        last_black_ += band_[b]->lastBlackPixels();
    }
}

Image
ParallelDecoder::decode(const EncodedFrame &current,
                        const std::vector<const EncodedFrame *> &history)
{
    Image out;
    decodeInto(current, history, out);
    return out;
}

void
ParallelDecoder::decodeInto(const EncodedFrame &current,
                            const std::vector<const EncodedFrame *> &history,
                            Image &out)
{
    if (threads_ <= 1) {
        band_[0]->decodeInto(current, history, out);
        last_history_fills_ = band_[0]->lastHistoryFills();
        last_black_ = band_[0]->lastBlackPixels();
        return;
    }
    // Match the serial entry checks before any worker touches the frame.
    current.checkConsistency();
    for (const EncodedFrame *f : history) {
        RPX_ASSERT(f != nullptr, "null history frame");
        RPX_ASSERT(f->width == current.width && f->height == current.height,
                   "history frame geometry mismatch");
    }
    decodeValidatedInto(current, history, out);
}

SwDecodeStatus
ParallelDecoder::tryDecode(const EncodedFrame &current,
                           const std::vector<const EncodedFrame *> &history,
                           Image &out)
{
    if (threads_ <= 1) {
        SwDecodeStatus status =
            band_[0]->tryDecode(current, history, out);
        last_history_fills_ = band_[0]->lastHistoryFills();
        last_black_ = band_[0]->lastBlackPixels();
        return status;
    }
    SwDecodeStatus status;
    std::string why;
    if (!current.validate(&why)) {
        status.ok = false;
        status.quarantined = true;
        status.reason = std::move(why);
        return status;
    }
    usable_.clear();
    SoftwareDecoder::filterUsableHistory(current, history, usable_,
                                         status.history_skipped);
    decodeValidatedInto(current, usable_, out);
    return status;
}

} // namespace rpx
