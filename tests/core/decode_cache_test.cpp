/**
 * @file
 * The decoded-frame cache (DecodedFrameCache, DESIGN.md §10): a cached
 * decode must be byte-identical to the full history decode and to the
 * per-pixel reference walk on every frame, with matching fill and black
 * tallies — and in particular on the frames where a cached row must not be reused: cold start, sources that
 * leave the history window, N <-> Sk label flips, a quarantined current
 * frame, a skipped history frame and a geometry change.
 */

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/encoder.hpp"
#include "core/sw_decoder.hpp"
#include "reference_decode.hpp"

namespace rpx {
namespace {

Image
noiseFrame(i32 w, i32 h, u64 seed)
{
    Rng rng(seed);
    Image img(w, h);
    for (i32 y = 0; y < h; ++y)
        for (i32 x = 0; x < w; ++x)
            img.set(x, y, static_cast<u8>(rng.uniformInt(0, 255)));
    return img;
}

/**
 * A stream's decoder and its cache. decode() runs it on a frame and
 * checks the result against the reference walk and the uncached decode.
 */
class CachedStream
{
  public:
    explicit CachedStream(const SoftwareDecoder::Config &cfg = {})
        : cfg_(cfg), dec_(cfg)
    {
    }

    /**
     * Decode `current` over `history` (tryDecode, or the strict path
     * when `strict`) through the cache. A frame that fails validation
     * must be quarantined with the cache left as it was; any other frame
     * must match the reference over the usable history.
     */
    void
    decode(const EncodedFrame &current,
           const std::vector<const EncodedFrame *> &history,
           const std::string &where, bool strict = false)
    {
        size_t skipped = 0;
        const bool valid = current.validate();
        const ReferenceDecode ref =
            valid ? referenceDecode(
                        current, usableHistory(current, history, &skipped),
                        cfg_)
                  : ReferenceDecode{};
        Image full;
        const SoftwareDecoder plain(cfg_);
        if (valid) {
            ASSERT_TRUE(plain.tryDecode(current, history, full).ok) << where;
            EXPECT_EQ(full.data(), ref.image.data()) << where;
        }

        const Image before = cache_.image();
        if (strict) {
            dec_.decodeInto(current, history, cache_);
        } else {
            const SwDecodeStatus st = dec_.tryDecode(current, history, cache_);
            EXPECT_EQ(st.quarantined, !valid) << where;
            EXPECT_EQ(st.history_skipped, skipped) << where;
        }
        last_full_history_read_ = plain.lastHistoryBytesRead();
        last_cached_history_read_ = dec_.lastHistoryBytesRead();
        if (!valid) {
            EXPECT_EQ(cache_.image(), before) << where;
            return;
        }
        EXPECT_TRUE(cache_.holdsFrame()) << where;
        EXPECT_EQ(cache_.image().data(), ref.image.data()) << where;
        EXPECT_EQ(dec_.lastHistoryFills(), ref.history_fills) << where;
        EXPECT_EQ(dec_.lastBlackPixels(), ref.black) << where;
    }

    /** History bytes the cached decode of the last frame read. */
    u64 cachedHistoryRead() const { return last_cached_history_read_; }
    /** History bytes the uncached decode of the last frame read. */
    u64 fullHistoryRead() const { return last_full_history_read_; }

  private:
    SoftwareDecoder::Config cfg_;
    SoftwareDecoder dec_;
    DecodedFrameCache cache_;
    u64 last_full_history_read_ = 0;
    u64 last_cached_history_read_ = 0;
};

/**
 * The frames a FrameStore of `depth` would hold: newest first, at stable
 * addresses (push_front/pop_back), so history frames are the objects the
 * cache saw.
 */
class Window
{
  public:
    explicit Window(size_t depth) : depth_(depth) {}

    const EncodedFrame &
    push(EncodedFrame f)
    {
        frames_.push_front(std::move(f));
        while (frames_.size() > depth_)
            frames_.pop_back();
        return frames_.front();
    }

    std::vector<const EncodedFrame *>
    history() const
    {
        std::vector<const EncodedFrame *> h;
        for (size_t k = 1; k < frames_.size(); ++k)
            h.push_back(&frames_[k]);
        return h;
    }

  private:
    size_t depth_;
    std::deque<EncodedFrame> frames_;
};

/**
 * A periphery sampled once every 6 frames outlives a 3-frame history:
 * its pixels are reused from the cache while their source is in the
 * window and turn black, as in the full decode, once it leaves. Reused
 * frames read no history at all; the expiring frame falls back.
 */
TEST(DecoderCache, ReusesRowsAndExpiresSourcesExactly)
{
    const i32 w = 64, h = 48;
    std::vector<RegionLabel> labels = {{0, 0, w, h, 2, 6, 0},
                                       {16, 12, 24, 16, 1, 1, 0}};
    sortRegionsByY(labels);
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels(labels);
    Window window(4); // current + 3 history frames
    CachedStream stream;
    for (FrameIndex t = 0; t < 14; ++t) {
        const EncodedFrame &cur =
            window.push(enc.encodeFrame(noiseFrame(w, h, 90 + t), t));
        stream.decode(cur, window.history(), "t=" + std::to_string(t));
        const FrameIndex phase = t % 6;
        if (phase >= 1 && phase <= 3) {
            EXPECT_EQ(stream.cachedHistoryRead(), 0u) << "t=" << t;
            EXPECT_GT(stream.fullHistoryRead(), 0u) << "t=" << t;
        }
        if (phase == 4) { // the t-4 source left the window: fall back
            EXPECT_GT(stream.cachedHistoryRead(), 0u) << "t=" << t;
        }
    }
}

/**
 * Labels that change every frame: regions appear, vanish and change
 * stride, skip and phase, so pixels flip between N, Sk, St and R (a
 * pixel N at t-1 and Sk at t decodes from t-2, never from the cached
 * black). Odd widths put rows across mask bytes; upscan bounds 0 and 3
 * limit the sources.
 */
TEST(DecoderCache, MatchesFullDecodeUnderLabelFlips)
{
    const std::pair<i32, i32> geometries[] = {{57, 33}, {64, 40}};
    for (const auto &[w, h] : geometries) {
        for (const int upscan : {0, 3, 64}) {
            SoftwareDecoder::Config cfg;
            cfg.max_upscan = upscan;
            CachedStream stream(cfg);
            RhythmicEncoder enc(w, h);
            Window window(4);
            Rng rng(static_cast<u64>(w * 131 + upscan));
            // A fixed pool of regions, each present on a random subset of
            // frames with its own rhythm. The first covers the frame, so
            // rows are clean (and reused) while it is present.
            std::vector<RegionLabel> pool = {{0, 0, w, h, 2, 3, 1}};
            for (int i = 0; i < 6; ++i) {
                RegionLabel r;
                r.w = static_cast<i32>(rng.uniformInt(4, w));
                r.h = static_cast<i32>(rng.uniformInt(4, h));
                r.x = static_cast<i32>(rng.uniformInt(0, w - r.w));
                r.y = static_cast<i32>(rng.uniformInt(0, h - r.h));
                r.stride = static_cast<i32>(rng.uniformInt(1, 4));
                r.skip = static_cast<i32>(rng.uniformInt(1, 4));
                r.phase = static_cast<i32>(rng.uniformInt(0, r.skip - 1));
                pool.push_back(r);
            }
            int reused = 0;
            for (FrameIndex t = 0; t < 30; ++t) {
                std::vector<RegionLabel> labels;
                for (const RegionLabel &r : pool)
                    if (rng.uniformInt(0, 3) != 0)
                        labels.push_back(r);
                sortRegionsByY(labels);
                enc.setRegionLabels(labels);
                const EncodedFrame &cur = window.push(
                    enc.encodeFrame(noiseFrame(w, h, 7 * t + 1), t));
                stream.decode(cur, window.history(),
                              std::to_string(w) + "x" + std::to_string(h) +
                                  " upscan=" + std::to_string(upscan) +
                                  " t=" + std::to_string(t));
                reused += stream.cachedHistoryRead() <
                          stream.fullHistoryRead();
            }
            EXPECT_GT(reused, 0) << w << "x" << h << " upscan=" << upscan;
        }
    }
}

/**
 * A frame whose metadata fails validation is quarantined and leaves the
 * cache holding the last good decode; the next frame sees it as a skipped
 * history frame and falls back, as does a frame whose history holds a
 * frame of another geometry.
 */
TEST(DecoderCache, QuarantineAndSkippedHistoryFallBack)
{
    const i32 w = 48, h = 40;
    std::vector<RegionLabel> labels = {{0, 0, w, h, 4, 2, 0},
                                       {8, 8, 20, 16, 1, 1, 0}};
    sortRegionsByY(labels);
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels(labels);
    Window window(4);
    CachedStream stream;
    for (FrameIndex t = 0; t < 12; ++t) {
        EncodedFrame f = enc.encodeFrame(noiseFrame(w, h, 300 + t), t);
        if (t == 5 || t == 6)
            f.pixels.pop_back(); // payload disagrees with the offsets
        if (t == 9) {
            f.sealMetadata();
            f.metadata_crc ^= 1; // CRC mismatch
        }
        const EncodedFrame &cur = window.push(std::move(f));
        stream.decode(cur, window.history(), "t=" + std::to_string(t));
    }
    const EncodedFrame other =
        RhythmicEncoder(w + 4, h).encodeFrame(noiseFrame(w + 4, h, 1), 12);
    const EncodedFrame &cur =
        window.push(enc.encodeFrame(noiseFrame(w, h, 400), 12));
    std::vector<const EncodedFrame *> history = window.history();
    history.insert(history.begin(), &other);
    stream.decode(cur, history, "foreign history frame");
}

/**
 * A stored frame that was never decoded (a frame the fleet guard shed)
 * becomes history[0] of the next decode: the cache holds the decode of
 * the frame before it, so every row falls back.
 */
TEST(DecoderCache, UndecodedHistoryFrameFallsBack)
{
    const i32 w = 48, h = 32;
    std::vector<RegionLabel> labels = {{0, 0, w, h, 2, 2, 0},
                                       {8, 8, 16, 8, 1, 1, 0}};
    sortRegionsByY(labels);
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels(labels);
    Window window(4);
    CachedStream stream;
    for (FrameIndex t = 0; t < 9; ++t) {
        const EncodedFrame &cur =
            window.push(enc.encodeFrame(noiseFrame(w, h, 700 + t), t));
        if (t == 4 || t == 6)
            continue; // stored, not decoded: it samples the periphery
        stream.decode(cur, window.history(), "t=" + std::to_string(t));
    }
}

/**
 * Cold start and geometry changes: one cache decodes two streams of
 * different sizes in turn, and after each switch every row falls back.
 * The strict entry point goes through the same cache.
 */
TEST(DecoderCache, GeometryChangeAndColdStartFallBack)
{
    CachedStream stream;
    const std::pair<i32, i32> geometries[] = {{40, 24}, {36, 28}, {40, 24}};
    FrameIndex t = 0;
    for (const auto &[w, h] : geometries) {
        std::vector<RegionLabel> labels = {{0, 0, w, h, 2, 2, 1},
                                           {4, 4, w / 2, h / 2, 1, 1, 0}};
        sortRegionsByY(labels);
        RhythmicEncoder enc(w, h);
        enc.setRegionLabels(labels);
        Window window(3);
        for (int i = 0; i < 5; ++i, ++t) {
            const EncodedFrame &cur =
                window.push(enc.encodeFrame(noiseFrame(w, h, 500 + t), t));
            stream.decode(cur, window.history(),
                          std::to_string(w) + "x" + std::to_string(h) +
                              " t=" + std::to_string(t),
                          /*strict=*/true);
            if (i == 0) { // cold: nothing to reuse, and no history
                EXPECT_EQ(stream.cachedHistoryRead(), 0u);
            }
        }
    }
}

/**
 * The paper's foveated layout at 1080p — a stride-1 fovea over a
 * stride-4, skip-2 periphery — as the hd_foveated workload decodes it,
 * through the strict path. After the first frame no decode reads any
 * history.
 */
TEST(DecoderCache, FoveatedHdLayoutMatchesFullDecode)
{
    const i32 w = 1920, h = 1080;
    std::vector<RegionLabel> labels = {{0, 0, w, h, 4, 2, 0},
                                       {720, 400, 480, 272, 1, 1, 0}};
    sortRegionsByY(labels);
    RhythmicEncoder enc(w, h);
    enc.setRegionLabels(labels);
    Window window(4);
    CachedStream stream;
    for (FrameIndex t = 0; t < 5; ++t) {
        const EncodedFrame &cur =
            window.push(enc.encodeFrame(noiseFrame(w, h, 40 + t), t));
        stream.decode(cur, window.history(), "t=" + std::to_string(t),
                      /*strict=*/true);
        EXPECT_EQ(stream.cachedHistoryRead(), 0u) << "t=" << t;
    }
}

} // namespace
} // namespace rpx
