/**
 * @file
 * Per-frame / per-region telemetry attribution (obs v2).
 *
 * The PerfRegistry answers "how much work did the whole run do"; this layer
 * answers "which frame and which region label did it". The pipeline fills
 * one FrameTelemetry record per processed frame — stage latencies, pixel
 * and byte traffic, DRAM transaction deltas, encoder cycle/work deltas,
 * fault outcomes, and a first-order energy split — plus one RegionTelemetry
 * entry per active region label, with encoder work and DRAM energy
 * attributed by the encoder's conserving RegionAttribution.
 *
 * Records flow into a TelemetrySink, which (a) aggregates run totals that
 * must reconcile with the PerfRegistry aggregates (the conservation tests
 * assert this), (b) retains a bounded ring of recent frames for in-process
 * consumers, and (c) optionally streams each record as one JSON line into a
 * journal file (`rpx_cli --journal-out frames.jsonl`). The JSONL schema is
 * versioned ("rpx-frame-telemetry-v1") and round-trips through
 * readJournal(), which trend tooling and tests use to parse records back.
 */

#ifndef RPX_OBS_TELEMETRY_HPP
#define RPX_OBS_TELEMETRY_HPP

#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"

namespace rpx::obs {

/** One region label's share of a frame's work, traffic, and energy. */
struct RegionTelemetry {
    // Label geometry/rhythm as programmed for this frame (after any
    // degradation trimming), so a journal line is self-describing.
    i32 x = 0;
    i32 y = 0;
    i32 w = 0;
    i32 h = 0;
    i32 stride = 1;
    i32 skip = 0;
    bool active = false;     //!< temporal rhythm sampled this frame
    u64 pixels_kept = 0;     //!< R pixels attributed to this region
    u64 comparisons = 0;     //!< comparison-engine checks attributed
    Bytes payload_bytes = 0; //!< encoded payload bytes (1 B/pixel)
    double energy_nj = 0.0;  //!< DRAM-path energy of the kept pixels
};

/** Everything attributed to one processed frame. */
struct FrameTelemetry {
    u64 index = 0;
    /**
     * Originating stream label (fleet runs label streams "s<id>").
     * Empty for single-stream pipelines; the journal field is omitted
     * when empty, so legacy journals are byte-identical.
     */
    std::string stream;

    // Wall-clock stage latencies in microseconds.
    double sensor_us = 0.0;
    double isp_us = 0.0;
    double encode_us = 0.0;
    double dram_write_us = 0.0;
    double decode_us = 0.0;
    double total_us = 0.0;

    // Pixels and bytes.
    u64 pixels_in = 0;
    u64 pixels_kept = 0;
    Bytes bytes_written = 0;
    Bytes bytes_read = 0;
    Bytes metadata_bytes = 0;

    // DRAM transaction deltas across this frame (write path + decode).
    u64 dram_write_transactions = 0;
    u64 dram_read_transactions = 0;
    Bytes dram_bytes_written = 0;
    Bytes dram_bytes_read = 0;

    // Encoder work model.
    u64 compare_cycles = 0;
    u64 stream_cycles = 0;
    u64 region_comparisons = 0;

    // Fault / resilience outcome.
    bool quarantined = false;
    bool held_last_good = false;
    bool deadline_missed = false;
    /** Shed by the fleet guard before decode (shed ≠ missed ≠ lost). */
    bool shed = false;
    u32 csi_dropped_lines = 0;
    u64 transient_faults = 0;
    u64 dma_retries = 0;        //!< DMA bursts retried during store
    u64 dma_dropped_bursts = 0; //!< DMA bursts dropped during store
    int degradation_level = 0;

    // First-order energy split (nanojoules; see src/energy/energy_model).
    double energy_sense_nj = 0.0;
    double energy_csi_nj = 0.0;
    double energy_dram_nj = 0.0;
    double energy_total_nj = 0.0;

    /** Per-region attribution; sums reconcile with the frame fields. */
    std::vector<RegionTelemetry> regions;
};

/** Run totals accumulated by a TelemetrySink (never trimmed). */
struct TelemetryTotals {
    u64 frames = 0;
    u64 pixels_in = 0;
    u64 pixels_kept = 0;
    Bytes bytes_written = 0;
    Bytes bytes_read = 0;
    Bytes metadata_bytes = 0;
    u64 region_comparisons = 0;
    u64 compare_cycles = 0;
    u64 stream_cycles = 0;
    u64 quarantined_frames = 0;
    u64 deadline_misses = 0;
    u64 shed_frames = 0;
    u64 transient_faults = 0;
    u64 dma_retries = 0;
    u64 dma_dropped_bursts = 0;
    double energy_total_nj = 0.0;

    void add(const FrameTelemetry &frame);
};

/**
 * Thread-safe collector for FrameTelemetry records.
 *
 * Not owned by the pipeline: callers create one, point
 * PipelineConfig::telemetry at it, and read totals()/frames() afterwards.
 * With a journal path configured, every record is streamed out as one JSON
 * line at record() time (write failures throw once, at open).
 */
class TelemetrySink
{
  public:
    struct Config {
        /**
         * How many recent FrameTelemetry records to retain in memory
         * (oldest evicted first). 0 retains nothing — totals and the
         * journal still see every frame.
         */
        size_t keep_frames = 256;
        /** JSONL journal path; empty (default) disables the journal. */
        std::string journal_path;
    };

    TelemetrySink() : TelemetrySink(Config{}) {}
    explicit TelemetrySink(const Config &config);

    void record(const FrameTelemetry &frame);

    TelemetryTotals totals() const;
    /**
     * Run totals broken down by FrameTelemetry::stream label (key "" for
     * unlabeled single-stream frames). Summing any field across all
     * entries reproduces totals() — the per-stream conservation the
     * fleet reconciliation tests assert against the PerfRegistry.
     */
    std::map<std::string, TelemetryTotals> perStreamTotals() const;
    /** One stream's entry of perStreamTotals() (zeros when unseen). */
    TelemetryTotals streamTotals(const std::string &stream) const;
    /** Copy of the retained ring, oldest first. */
    std::vector<FrameTelemetry> frames() const;
    /** Flush the journal stream (record() already writes eagerly). */
    void flush();

  private:
    Config config_;
    mutable std::mutex mutex_;
    TelemetryTotals totals_;
    std::map<std::string, TelemetryTotals> per_stream_;
    std::deque<FrameTelemetry> ring_;
    std::ofstream journal_;
};

/** Serialize one record as a single JSON line (no trailing newline). */
std::string writeFrameJson(const FrameTelemetry &frame);

/**
 * Parse one journal record. Throws std::runtime_error on schema mismatch
 * or missing required fields.
 */
FrameTelemetry frameFromJson(const json::Value &value);

/** Parse a whole JSONL journal (text / file). Throws on malformed lines. */
std::vector<FrameTelemetry> readJournal(const std::string &text);
std::vector<FrameTelemetry> readJournalFile(const std::string &path);

} // namespace rpx::obs

#endif // RPX_OBS_TELEMETRY_HPP
