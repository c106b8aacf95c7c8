#include "core/parallel_encoder.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rpx {

namespace {

/** Band starts must land on multiples of 4 rows: 4 rows of 2-bit codes
 *  occupy exactly `width` bytes, so every band boundary is byte-aligned in
 *  the packed mask regardless of frame width. */
constexpr i32 kBandAlign = 4;

} // namespace

ParallelEncoder::ParallelEncoder(i32 frame_w, i32 frame_h,
                                 const Config &config)
    : serial_(frame_w, frame_h, config.encoder),
      threads_(config.threads == 0 ? ThreadPool::hardwareThreads()
                                   : config.threads),
      min_band_rows_(config.min_band_rows)
{
    if (config.threads < 0)
        throwInvalid("encoder thread count must be >= 0, got ",
                     config.threads);
    if (min_band_rows_ < kBandAlign || min_band_rows_ % kBandAlign != 0)
        throwInvalid("min_band_rows must be a positive multiple of ",
                     kBandAlign, ", got ", min_band_rows_);
    if (threads_ > 1)
        pool_ = std::make_unique<ThreadPool>(threads_);
}

std::vector<std::pair<i32, i32>>
ParallelEncoder::partition(i32 rows, int bands, i32 min_band_rows)
{
    RPX_ASSERT(rows > 0 && bands > 0, "partition needs rows and bands");
    // Rows per band: an even split, rounded up to the alignment quantum
    // and floored at min_band_rows so tiny frames do not shatter into
    // slivers with more stitch overhead than encode work.
    const i32 even = (rows + bands - 1) / bands;
    i32 per_band = ((even + kBandAlign - 1) / kBandAlign) * kBandAlign;
    per_band = std::max(per_band, min_band_rows);

    std::vector<std::pair<i32, i32>> ranges;
    for (i32 y0 = 0; y0 < rows; y0 += per_band)
        ranges.emplace_back(y0, std::min(rows, y0 + per_band));
    return ranges;
}

EncodedFrame
ParallelEncoder::encodeFrame(const Image &gray, FrameIndex t)
{
    if (threads_ <= 1)
        return serial_.encodeFrame(gray, t);
    // Match the serial entry checks before any worker touches the image.
    if (gray.channels() != 1)
        throwInvalid("encoder consumes grayscale (post-ISP luma) frames");
    if (gray.width() != frameWidth() || gray.height() != frameHeight())
        throwInvalid("frame geometry mismatch: got ", gray.width(), "x",
                     gray.height(), ", configured ", frameWidth(), "x",
                     frameHeight());

    // Plan and shape the frame once; the bands only read the plan and
    // write their own rows, so stats, mask and payload are the serial
    // encoder's by construction.
    serial_.planFrame(t);
    EncodedFrame out = serial_.openFrame();
    const auto ranges =
        partition(frameHeight(), threads_, min_band_rows_);
    std::vector<std::future<void>> pending;
    pending.reserve(ranges.size());
    for (const auto &[y0, y1] : ranges) {
        pending.push_back(pool_->submit([this, &gray, &out, y0, y1] {
            serial_.encodeRows(gray, y0, y1, out);
        }));
    }
    for (auto &f : pending)
        f.get(); // propagates worker exceptions
    serial_.commitFrame(out);
    return out;
}

} // namespace rpx
