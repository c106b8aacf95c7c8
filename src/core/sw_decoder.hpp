/**
 * @file
 * The alternative software decoder (§5.1): reconstructs a whole frame from
 * an encoded frame plus history on the CPU. Used by workloads that want a
 * full frame-based image (our from-scratch stand-in for the paper's
 * C++/OpenCV software decoder), and as the reference the hardware decoder
 * is differential-tested against.
 *
 * Two entry points share one bounds-checked core:
 *  - decode()/decodeInto(): the strict path — throws on malformed input
 *    (legacy behaviour, used when corrupt data indicates a programming
 *    error);
 *  - tryDecode(): the corruption-safe path — validates the current frame
 *    (including its metadata CRC when sealed) and quarantines it instead
 *    of throwing, and silently skips unusable history frames, so a
 *    pipeline facing injected or real faults keeps producing frames.
 *
 * The core resolves pixel sources with one row-carried SourceCarry sweep
 * per frame, current and history alike (core/source_carry.hpp, DESIGN.md
 * §10); each carry also holds its columns' source bytes. One rule
 * resolves every frame, the current one first and then history, most
 * recent first: a pending pixel takes the frame's carried byte when the
 * frame sampled it (R or St) and its source row is within max_upscan,
 * applied as a byte-wide blend over the row. History carries advance
 * lazily, only for rows with pixels left, and every carry catches up from
 * max_upscan rows above.
 *
 * A stream decodes through its DecodedFrameCache: the last decoded frame
 * plus per-row state. A row of it is refreshed from the current frame
 * alone when the rows it kept are still exact (see DecodedFrameCache);
 * every other row goes through the full resolver above. The Image entry
 * points decode with no cache, so every row takes the full resolver.
 *
 * Decode scratch state (source carries, history filters)
 * is pooled in the instance, so steady-state decoding performs zero heap
 * allocations (asserted by tests/core/decode_alloc_test.cpp). The flip
 * side: a SoftwareDecoder instance is NOT safe for concurrent use — give
 * each thread its own (each fleet stream owns one).
 */

#ifndef RPX_CORE_SW_DECODER_HPP
#define RPX_CORE_SW_DECODER_HPP

#include <vector>

#include "core/encoded_frame.hpp"
#include "core/source_carry.hpp"
#include "frame/image.hpp"

namespace rpx {

/** Outcome of SoftwareDecoder::tryDecode. */
struct SwDecodeStatus {
    bool ok = true;           //!< out image holds a decode of the frame
    bool quarantined = false; //!< current frame rejected (out untouched)
    /** Failure description when quarantined (a static string). */
    const char *reason = nullptr;
    size_t history_skipped = 0; //!< history frames dropped as unusable
};

/** Per-row state a DecodedFrameCache keeps next to each decoded row. */
struct DecodedRowState {
    /** The row held no black pixel: neither N nor unresolved. */
    bool clean = false;
    /**
     * Position of the row's oldest source frame in the decode that wrote
     * it: 0 for that decode's current frame, k + 1 for its history[k].
     */
    u32 age = 0;
};

/** What a decode's output plane holds before the decode. */
enum class PlaneState {
    Black,  //!< every pixel black: a fresh image or cache plane
    Stale,  //!< an earlier decode that may not be reused
    Cached, //!< the decode of history[0] over the rest of the history
};

class DecodedFrameCache;

/**
 * Whole-frame software decoder.
 */
class SoftwareDecoder
{
  public:
    struct Config {
        u8 black_value = 0;
        int max_upscan = 64;
    };

    explicit SoftwareDecoder(const Config &config);
    SoftwareDecoder() : SoftwareDecoder(Config{}) {}

    /**
     * Decode `current` into a full grayscale frame. `history` lists older
     * encoded frames, most recent first (up to the hardware's four-frame
     * window; extras are used if given). Skipped pixels resolve to the most
     * recent history frame that sampled them; unresolvable pixels are black.
     * Throws std::runtime_error on malformed current or history frames.
     */
    Image decode(const EncodedFrame &current,
                 const std::vector<const EncodedFrame *> &history = {}) const;

    /**
     * decode() into a caller-owned image, reusing its allocation when
     * possible (`out` is re-shaped to the frame geometry).
     */
    void decodeInto(const EncodedFrame &current,
                    const std::vector<const EncodedFrame *> &history,
                    Image &out) const;

    /**
     * decodeInto() through a stream's cache: afterwards cache.image()
     * holds the decode, byte-identical to decodeInto() into an image.
     * Rows the current frame refreshes are all that is read when the
     * cache still holds the decode of history[0] over the rest of
     * `history` (DecodedFrameCache).
     */
    void decodeInto(const EncodedFrame &current,
                    const std::vector<const EncodedFrame *> &history,
                    DecodedFrameCache &cache) const;

    /**
     * Corruption-safe decode. Validates `current` (bounds safety plus the
     * metadata CRC when sealed); on failure returns quarantined=true and
     * leaves `out` untouched — never throws on corrupt metadata, never
     * reads out of range. Unusable history frames (null, wrong geometry,
     * failing validation) are skipped and counted, not fatal.
     */
    SwDecodeStatus tryDecode(const EncodedFrame &current,
                             const std::vector<const EncodedFrame *> &history,
                             Image &out) const;

    /**
     * tryDecode() through a stream's cache. A quarantined frame leaves
     * the cache as it was, so cache.image() still holds the last good
     * decode; a skipped history frame makes every row take the full
     * resolver.
     */
    SwDecodeStatus tryDecode(const EncodedFrame &current,
                             const std::vector<const EncodedFrame *> &history,
                             DecodedFrameCache &cache) const;

    /** Number of pixels the last decode filled from history frames. */
    u64 lastHistoryFills() const { return last_history_fills_; }

    /** Number of pixels the last decode left black. */
    u64 lastBlackPixels() const { return last_black_; }

    /**
     * Bytes of the current frame the last decode's sweeps read: each
     * swept row's mask bits and 4-byte offset entry, and its R payload.
     */
    u64 lastCurrentBytesRead() const { return last_current_read_; }

    /** Bytes of history frames the last decode's sweeps read. */
    u64 lastHistoryBytesRead() const { return last_history_read_; }

  private:
    /** The strict entry checks: a consistent current frame and
     *  same-geometry, non-null history. Throws otherwise. */
    static void checkInputs(const EncodedFrame &current,
                            const std::vector<const EncodedFrame *> &history);

    /**
     * Validate `current` and filter `history` into usable_: the frames
     * that are non-null, match its geometry and pass validate(); the rest
     * count into status.history_skipped. Returns false, with the status
     * quarantined, when the current frame fails validation.
     */
    bool validateInputs(const EncodedFrame &current,
                        const std::vector<const EncodedFrame *> &history,
                        SwDecodeStatus &status) const;

    /**
     * Decode `current` into `out`, which already has the frame's
     * geometry. Inputs must be pre-validated.
     *
     * @param rows   null, or (for a cache plane) rows[y] is the state of
     *               row y, which every decoded row rewrites
     * @param plane  what `out` holds. When Cached (with `rows`), clean
     *               rows whose oldest source is still in `history` are
     *               refreshed from the current frame alone; other rows
     *               take the full resolver, after a black fill unless the
     *               plane is already Black.
     */
    void decodeFrame(const EncodedFrame &current,
                     const std::vector<const EncodedFrame *> &history,
                     Image &out, DecodedRowState *rows,
                     PlaneState plane) const;

    /** decodeFrame through `cache`. */
    void decodeCached(const EncodedFrame &current,
                      const std::vector<const EncodedFrame *> &history,
                      bool history_complete, DecodedFrameCache &cache) const;

    Config config_;
    mutable u64 last_history_fills_ = 0;
    mutable u64 last_black_ = 0;
    mutable u64 last_current_read_ = 0;
    mutable u64 last_history_read_ = 0;
    // Pooled decode scratch (rebound per frame, never shrunk) — what
    // makes steady-state decode allocation-free and the instance
    // single-threaded.
    mutable SourceCarry cur_carry_;
    mutable std::vector<SourceCarry> hist_carries_;
    mutable std::vector<u8> todo_; //!< 1 per row column still unresolved
    mutable std::vector<const EncodedFrame *> usable_;
};

/**
 * One stream's decoded frame, kept from one decode to the next
 * (DESIGN.md §10): a frame-sized Gray8 plane plus a DecodedRowState per
 * row. The paper's decoder serves each pixel from the newest frame that
 * sampled it; this cache lets the software decoder move only what the
 * current frame refreshed.
 *
 * Take a pixel the current frame leaves pending (not N, not resolved by
 * it). Its decode is the first history frame that resolves it, and the
 * cached value is the first of [history[0], the history the cache was
 * decoded over] that resolved it. The two agree when the cache holds the
 * decode of history[0], the rest of `history` is the history that decode
 * saw, the pixel was resolved (not black: a pixel N at t-1 and Sk at t
 * decodes from t-2, not from the black it showed), and its source is
 * still in `history`. The cache checks the first two per frame and the
 * last two per row: a row is reused only when it held no black pixel and
 * its oldest source is within the window, which bounds every pixel's
 * source without a per-pixel age plane. A reused row writes the pixels
 * the current frame resolves, blacks its N pixels and keeps the rest; a
 * row of only Sk codes is not touched.
 *
 * Frames are recognised by address and index, so history frames must be
 * the unchanged objects the cache saw (a FrameStore's slots are). Not
 * safe for concurrent decodes.
 */
class DecodedFrameCache
{
  public:
    /** The last successful decode (empty before the first). */
    const Image &image() const { return plane_; }

    /** True when image() holds a complete decode. */
    bool holdsFrame() const { return !chain_.empty(); }

  private:
    friend class SoftwareDecoder;

    /** A frame of the last decode, by address and index. */
    struct Link {
        const EncodedFrame *frame;
        FrameIndex index;
    };

    /**
     * Shape the plane for `current` and forget the last decode. Returns
     * Cached when its rows may be reused: the geometry and decoder config
     * are unchanged, no history frame was skipped (`history_complete`),
     * and `history` is the last decode's current frame and then its
     * history. A reshaped plane is Black.
     */
    PlaneState prepare(const EncodedFrame &current,
                 const std::vector<const EncodedFrame *> &history,
                 bool history_complete,
                 const SoftwareDecoder::Config &config);

    /** Record the decode that just filled the plane. */
    void commit(const EncodedFrame &current,
                const std::vector<const EncodedFrame *> &history);

    Image plane_;
    std::vector<DecodedRowState> rows_;
    /** The last decode's current frame, then its history. */
    std::vector<Link> chain_;
    SoftwareDecoder::Config config_;
};

} // namespace rpx

#endif // RPX_CORE_SW_DECODER_HPP
