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
ParallelDecoder::decodeBands(const EncodedFrame &current,
                             const std::vector<const EncodedFrame *> &history,
                             Image &out, DecodedRowState *rows,
                             PlaneState plane)
{
    size_t bands = 1;
    if (threads_ <= 1) {
        band_[0]->decodeRows(current, history, 0, current.height, out, rows,
                             plane);
    } else {
        const auto ranges =
            partition(current.height, threads_, config_.min_band_rows);
        bands = ranges.size();
        while (band_.size() < bands)
            band_.push_back(
                std::make_unique<SoftwareDecoder>(config_.decoder));

        std::vector<std::future<void>> pending;
        pending.reserve(bands);
        for (size_t b = 0; b < bands; ++b) {
            pending.push_back(pool_->submit([&, b] {
                band_[b]->decodeRows(current, history, ranges[b].first,
                                     ranges[b].second, out, rows, plane);
            }));
        }
        for (auto &f : pending)
            f.get(); // propagates worker exceptions
    }

    last_history_fills_ = 0;
    last_black_ = 0;
    last_current_read_ = 0;
    last_history_read_ = 0;
    for (size_t b = 0; b < bands; ++b) {
        last_history_fills_ += band_[b]->lastHistoryFills();
        last_black_ += band_[b]->lastBlackPixels();
        last_current_read_ += band_[b]->lastCurrentBytesRead();
        last_history_read_ += band_[b]->lastHistoryBytesRead();
    }
}

void
ParallelDecoder::decodeCached(const EncodedFrame &current,
                              const std::vector<const EncodedFrame *> &history,
                              bool history_complete,
                              DecodedFrameCache &cache)
{
    const PlaneState plane =
        cache.prepare(current, history, history_complete, config_.decoder);
    decodeBands(current, history, cache.plane_, cache.rows_.data(), plane);
    cache.commit(current, history);
}

void
ParallelDecoder::decodeInto(const EncodedFrame &current,
                            const std::vector<const EncodedFrame *> &history,
                            Image &out)
{
    SoftwareDecoder::checkInputs(current, history);
    out.reinit(current.width, current.height, PixelFormat::Gray8,
               config_.decoder.black_value);
    decodeBands(current, history, out, nullptr, PlaneState::Black);
}

void
ParallelDecoder::decodeInto(const EncodedFrame &current,
                            const std::vector<const EncodedFrame *> &history,
                            DecodedFrameCache &cache)
{
    SoftwareDecoder::checkInputs(current, history);
    decodeCached(current, history, /*history_complete=*/true, cache);
}

SwDecodeStatus
ParallelDecoder::tryDecode(const EncodedFrame &current,
                           const std::vector<const EncodedFrame *> &history,
                           Image &out)
{
    SwDecodeStatus status;
    if (!band_[0]->validateInputs(current, history, status))
        return status;
    out.reinit(current.width, current.height, PixelFormat::Gray8,
               config_.decoder.black_value);
    decodeBands(current, band_[0]->usable_, out, nullptr,
                PlaneState::Black);
    return status;
}

SwDecodeStatus
ParallelDecoder::tryDecode(const EncodedFrame &current,
                           const std::vector<const EncodedFrame *> &history,
                           DecodedFrameCache &cache)
{
    SwDecodeStatus status;
    if (band_[0]->validateInputs(current, history, status))
        decodeCached(current, band_[0]->usable_,
                     status.history_skipped == 0, cache);
    return status;
}

} // namespace rpx
