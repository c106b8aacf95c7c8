/**
 * @file
 * The rhythmic pixel decoder (§4.2).
 *
 * Fulfills pixel requests from vision applications, which address pixels in
 * the original decoded frame space. Two cooperating units:
 *
 *  - Pixel Memory Management Unit (PMMU): the Out-of-Frame Handler decides
 *    whether a memory transaction targets the decoded framebuffer (pixel
 *    request) or should bypass to standard DRAM access. The Metadata
 *    Scratchpad holds per-row offsets and EncMasks for the four most recent
 *    encoded frames; the Transaction Analyzer splits the request into
 *    sub-requests tagged with the encoded frame that hosts each pixel; the
 *    Translator converts them to encoded-frame DRAM addresses.
 *
 *  - FIFO Sampling Unit: buffers DRAM response data and produces the decoded
 *    pixel values — dequeuing R pixels, re-sampling a neighbouring pixel for
 *    strided (St) pixels via the resampling buffer, fetching history frames
 *    for skipped (Sk) pixels, and emitting black for non-regional (N) ones.
 */

#ifndef RPX_CORE_DECODER_HPP
#define RPX_CORE_DECODER_HPP

#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "core/frame_store.hpp"
#include "core/source_carry.hpp"
#include "obs/obs.hpp"
#include "stream/fifo.hpp"

namespace rpx {

/** Decoder traffic/behaviour counters. */
struct DecoderStats {
    u64 transactions = 0;        //!< pixel transactions served
    u64 pixels_requested = 0;    //!< decoded pixels returned
    u64 sub_requests_intra = 0;  //!< sub-requests to the current frame
    u64 sub_requests_inter = 0;  //!< sub-requests to history frames
    u64 dram_reads = 0;          //!< coalesced encoded-pixel DRAM reads
    Bytes dram_pixel_bytes = 0;  //!< encoded payload bytes fetched
    Bytes metadata_bytes = 0;    //!< mask/offset bytes fetched
    u64 black_pixels = 0;        //!< N (or unresolvable) pixels emitted
    u64 resampled_pixels = 0;    //!< St pixels served by the resampler
    u64 history_hits = 0;        //!< Sk pixels resolved from history
    u64 history_misses = 0;      //!< Sk pixels with no stored source
    u64 bypassed = 0;            //!< non-pixel transactions passed through
    Cycles cycles = 0;           //!< modelled transaction latency
    u64 frames_quarantined = 0;  //!< scratchpad loads rejected as unsafe
    u64 crc_failures = 0;        //!< metadata CRC mismatches on fetch
    u64 validation_failures = 0; //!< metadata bounds-check rejections

    void reset() { *this = DecoderStats{}; }
};

/**
 * Streaming rhythmic pixel decoder over a FrameStore.
 */
class RhythmicDecoder
{
  public:
    struct Config {
        u8 black_value = 0;        //!< value emitted for N pixels
        int max_upscan = 64;       //!< St source search bound (rows)
        Cycles fixed_latency = 8;  //!< pipeline fill per transaction
        double clock_ghz = 0.300;  //!< fabric clock for ns conversion
        u64 decoded_base = 0x80000000ULL; //!< decoded framebuffer address
        size_t response_fifo_depth = 16;
        /**
         * Longest single DRAM read the translator issues; longer
         * coalesced runs split into multiple bursts (LPDDR4 x32 BL16 =
         * 64 bytes).
         */
        u32 max_burst_bytes = 64;
        /**
         * Largest hole (in payload bytes) the coalescer will read
         * through to keep two sub-requests in one burst. 0 (default)
         * merges only strictly consecutive offsets — the legacy
         * behaviour, bit- and stat-identical to older builds. Small
         * values trade a few wasted data beats for fewer burst issues
         * (fewer modelled cycles) on sparse masks.
         */
        u32 burst_gap_bytes = 0;
    };

    RhythmicDecoder(FrameStore &store, const Config &config);
    explicit RhythmicDecoder(FrameStore &store)
        : RhythmicDecoder(store, Config{})
    {
    }

    const Config &config() const { return config_; }

    /**
     * Serve a pixel transaction: `count` sequential pixels of the newest
     * frame starting at (x, y), continuing across row boundaries like a
     * linear framebuffer read would.
     */
    std::vector<u8> requestPixels(i32 x, i32 y, i32 count);

    /**
     * requestPixels into a caller-owned buffer (resized to `count`),
     * reusing its allocation. The steady-state path: with a warm
     * scratchpad and a reused `out`, a transaction performs zero heap
     * allocations.
     */
    void requestPixelsInto(i32 x, i32 y, i32 count, std::vector<u8> &out);

    /**
     * Raw memory-transaction entry point (the integration point with the
     * DDR controller, §4.2.3). Addresses inside the decoded framebuffer
     * window are translated; anything else bypasses to standard DRAM
     * access.
     */
    std::vector<u8> requestBytes(u64 addr, size_t len);

    /** Decoded framebuffer window in the address map. */
    u64 decodedBase() const { return config_.decoded_base; }
    u64 decodedSize() const;

    const DecoderStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /**
     * Attach an observability context: "decoder.*" counters mirror
     * per-transaction stat deltas. Null detaches (default, zero-cost).
     */
    void attachObs(obs::ObsContext *ctx);

    /** Mean modelled latency per transaction in nanoseconds. */
    double avgLatencyNs() const;

  private:
    /** A translated sub-request against one stored encoded frame. */
    struct SubRequest {
        size_t frame_tag;  //!< 0 = newest
        u32 offset;        //!< encoded payload index
        size_t result_pos; //!< where the value lands in the response
    };

    /**
     * Translate the in-row pixel run [x0, x1) of row y, whose values land
     * at result[base ..]. Codes are unpacked once through the SIMD shim;
     * R pixels, and St pixels with an R at or left in the row, resolve
     * from a running in-row R count seeded from the mask. Every other
     * pixel reads the slot's SourceCarry (DESIGN.md §10) or takes
     * translateFallback.
     */
    void translateSegment(i32 y, i32 x0, i32 x1, size_t base,
                          std::vector<SubRequest> &subs,
                          std::vector<u8> &result);

    /** The history lookup for one pixel: serves Sk pixels, unresolvable
     *  St pixels, and every pixel of a quarantined newest frame. */
    void translateFallback(i32 x, i32 y, size_t result_pos,
                           std::vector<SubRequest> &subs,
                           std::vector<u8> &result);

    /** Issue coalesced DRAM reads for the sub-requests and fill results. */
    void fulfill(std::vector<SubRequest> &subs, std::vector<u8> &result);

    FrameStore &store_;
    Config config_;
    DecoderStats stats_;
    /**
     * Identity of one mirrored frame: slot pointer *and* capture index.
     * The pointer alone is not a safe staleness key — the FrameStore's
     * deque can hand a new frame the storage of an evicted one.
     */
    struct ScratchKey {
        const EncodedFrame *frame = nullptr;
        FrameIndex index = 0;

        bool operator==(const ScratchKey &) const = default;
    };

    /**
     * One metadata-scratchpad slot: the EncMask/RowOffsets reconstructed
     * from DRAM bytes (pixel payloads stay in DRAM; meta.pixels stays
     * empty) plus the SourceCarry that resolves pixel sources in it.
     * `valid` is false when the fetched metadata failed its safety checks
     * (bounds validation, or the CRC when the store seals metadata): the
     * frame is quarantined — never addressed — and requests against it
     * fall back to history or black instead of chasing corrupt offsets.
     * Entries are pooled across refreshes (unique_ptr keeps them
     * address-stable while the pool grows) so a warm refresh reuses all
     * metadata storage instead of reallocating it per frame.
     */
    struct ScratchEntry {
        EncodedFrame meta;
        SourceCarry carry;
        bool valid = false;
    };

    /**
     * The slot's carry, swept through row y for sources within
     * max_upscan rows. A row above the last swept one rebinds the carry
     * first, so requests may arrive in any order.
     */
    SourceCarry &carryAt(ScratchEntry &e, i32 y);

    /** Slot pool; the first scratchCount() entries mirror the store. */
    std::vector<std::unique_ptr<ScratchEntry>> scratch_;
    /** Stored frames the scratchpad currently mirrors (also the count). */
    std::vector<ScratchKey> scratch_keys_;

    size_t scratchCount() const { return scratch_keys_.size(); }

    void refreshScratchpad();

    /** FrameArena slots for the per-transaction scratch buffers. */
    enum ArenaSlot : size_t {
        kMaskFetch = 0, //!< raw mask bytes fetched from DRAM
        kOffsFetch,     //!< raw row-offset table bytes fetched from DRAM
        kRowCodes,      //!< unpacked 2-bit codes for one row segment
        kBurst,         //!< coalesced payload burst staging
    };

    FrameArena arena_;
    /** Reused per transaction (see requestPixelsInto's zero-alloc note). */
    std::vector<SubRequest> subs_;
    /** Response FIFO of the sampling unit, drained between bursts. */
    Fifo<u8> response_;

    /** Push stats_ deltas since the last mirror into the obs counters. */
    void mirrorObs();

    // Cached counter handles; null when no observer is attached.
    obs::Counter *obs_transactions_ = nullptr;
    obs::Counter *obs_pixels_ = nullptr;
    obs::Counter *obs_dram_reads_ = nullptr;
    obs::Counter *obs_pixel_bytes_ = nullptr;
    obs::Counter *obs_metadata_bytes_ = nullptr;
    obs::Counter *obs_history_hits_ = nullptr;
    obs::Counter *obs_black_pixels_ = nullptr;
    obs::Counter *obs_quarantined_ = nullptr;
    obs::Gauge *obs_arena_retained_ = nullptr;
    obs::Gauge *obs_arena_high_water_ = nullptr;
    /** Stats already mirrored into the counters (delta baseline). */
    DecoderStats obs_seen_;
};

} // namespace rpx

#endif // RPX_CORE_DECODER_HPP
