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
 * max_upscan rows above — which also primes the first row of a band.
 *
 * Decode scratch state (source carries, history filters)
 * is pooled in the instance, so steady-state decoding performs zero heap
 * allocations (asserted by tests/core/decode_alloc_test.cpp). The flip
 * side: a SoftwareDecoder instance is NOT safe for concurrent use — give
 * each thread its own (ParallelDecoder does exactly that per band).
 */

#ifndef RPX_CORE_SW_DECODER_HPP
#define RPX_CORE_SW_DECODER_HPP

#include <string>
#include <vector>

#include "core/encoded_frame.hpp"
#include "core/source_carry.hpp"
#include "frame/image.hpp"

namespace rpx {

/** Outcome of SoftwareDecoder::tryDecode. */
struct SwDecodeStatus {
    bool ok = true;           //!< out image holds a decode of the frame
    bool quarantined = false; //!< current frame rejected (out untouched)
    std::string reason;       //!< failure description when quarantined
    size_t history_skipped = 0; //!< history frames dropped as unusable
};

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
     * Decode only rows [y0, y1) of `current` into `out`, which must
     * already have the frame's geometry; rows outside the band are not
     * touched. History lookups and upscans still see the whole frame, so
     * banded decodes concatenate to exactly the full decode — this is
     * ParallelDecoder's per-band primitive. Inputs must be pre-validated
     * (decodeInto/tryDecode do that).
     */
    void decodeBandInto(const EncodedFrame &current,
                        const std::vector<const EncodedFrame *> &history,
                        i32 y0, i32 y1, Image &out) const;

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
     * The tryDecode history filter, exposed so band-parallel callers can
     * validate once and fan out: appends the usable subset of `history`
     * (non-null, geometry matches `current`, passes validate()) to
     * `usable` and counts the rest into `skipped`.
     */
    static void
    filterUsableHistory(const EncodedFrame &current,
                        const std::vector<const EncodedFrame *> &history,
                        std::vector<const EncodedFrame *> &usable,
                        size_t &skipped);

    /** Number of pixels the last decode filled from history frames. */
    u64 lastHistoryFills() const { return last_history_fills_; }

    /** Number of pixels the last decode left black. */
    u64 lastBlackPixels() const { return last_black_; }

  private:
    /**
     * Shared bounds-checked reconstruction over pre-validated frames,
     * writing rows [y0, y1) of `out` (already shaped and black-filled).
     */
    void decodeCoreInto(const EncodedFrame &current,
                        const std::vector<const EncodedFrame *> &history,
                        i32 y0, i32 y1, Image &out) const;

    Config config_;
    mutable u64 last_history_fills_ = 0;
    mutable u64 last_black_ = 0;
    // Pooled decode scratch (rebound per frame, never shrunk) — what
    // makes steady-state decode allocation-free and the instance
    // single-threaded.
    mutable SourceCarry cur_carry_;
    mutable std::vector<SourceCarry> hist_carries_;
    mutable std::vector<u8> todo_; //!< 1 per row column still unresolved
    mutable std::vector<const EncodedFrame *> usable_;
};

} // namespace rpx

#endif // RPX_CORE_SW_DECODER_HPP
