/**
 * @file
 * The rhythmic pixel encoder (§4.1).
 *
 * A fully streaming block that intercepts the dense raster-scan pixel stream
 * at the ISP output and, guided by developer-specified region labels,
 * produces: (i) the tightly packed encoded frame, (ii) the 2-bit EncMask,
 * and (iii) the per-row offsets.
 *
 * Architecture (Fig. 5), modelled structurally:
 *  - Sequencer: tracks row/pixel position in the stream.
 *  - RoI Selector: once per row, shortlists the y-sorted region list down to
 *    the regions whose y-range covers the row.
 *  - Comparison Engine: per pixel, checks the x-ranges/strides of the
 *    shortlisted regions only.
 *  - Sampler: forwards regional pixels, reusing a comparison result across a
 *    region's width (run-length reuse) and emitting metadata.
 *
 * Functional output is identical across comparison modes; the modes differ
 * in the *work accounting* (comparison counts, cycles), which is what the
 * paper's scalability evaluation (Table 5 and §6.2/§6.3) is about.
 *
 * The software encoder does not walk pixels to model this. Once per frame
 * it plans the rows (KeptRunPlan): the kept columns of a span repeat with
 * the period of its stride grids, so one period gives the span's kept
 * offsets, its per-pixel comparison count and its per-region attribution
 * in closed form. Writing the frame is then a mask fill per span plus a
 * gather of the kept pixels.
 */

#ifndef RPX_CORE_ENCODER_HPP
#define RPX_CORE_ENCODER_HPP

#include <vector>

#include "core/encoded_frame.hpp"
#include "core/kept_plan.hpp"
#include "core/region.hpp"
#include "frame/image.hpp"
#include "obs/obs.hpp"

namespace rpx {

/** Comparison-engine organisation (work model; results are identical). */
enum class ComparisonMode {
    /** Check every region label for every pixel (strawman of §4.1.1). */
    Naive,
    /** RoI-selector row shortlist, no sampler reuse. */
    RowSublist,
    /** Row shortlist + run-length reuse within a region's width (hybrid). */
    Hybrid,
};

/** Work/performance counters for one or more encoded frames. */
struct EncoderStats {
    u64 frames = 0;
    u64 pixels_in = 0;           //!< dense pixels consumed
    u64 pixels_encoded = 0;      //!< R pixels emitted
    u64 region_comparisons = 0;  //!< comparison-engine region checks
    u64 selector_examined = 0;   //!< regions examined by the RoI selector
    u64 rows_with_regions = 0;   //!< rows whose shortlist was non-empty
    u64 rows_skipped = 0;        //!< rows skipped entirely (empty shortlist)
    u64 run_reuses = 0;          //!< pixels classified via run-length reuse
    /**
     * Modelled encoder cycles: per row, the larger of the stream time
     * (w / ppc) and the comparison-engine time. Every row is charged,
     * including rows with an empty shortlist — they still stream through
     * the sequencer at line rate.
     */
    Cycles compare_cycles = 0;
    /**
     * The pixel-clock budget: sum of per-row stream times (w / ppc,
     * rounded up per row) over the same rows compare_cycles covers.
     * compare_cycles == stream_cycles iff no row was engine-bound.
     */
    Cycles stream_cycles = 0;

    void reset() { *this = EncoderStats{}; }

    /**
     * Fold another stats block into this one (all counters are additive).
     * Used to fold a planned frame's work into the running totals.
     */
    void accumulate(const EncoderStats &other);
};

/**
 * Per-region attribution of encoder work: slot i corresponds to
 * regionLabels()[i] of the encoder that produced it.
 *
 * Attribution is deterministic and conserving — every counted unit lands in
 * exactly one slot, so the vectors sum back to the frame aggregates:
 *   sum(kept)        == EncoderStats::pixels_encoded
 *   sum(comparisons) == EncoderStats::region_comparisons
 * An R pixel claimed by several overlapping grids is attributed to the
 * region the comparison engine matched first (the sweep's break target);
 * a span covered by a stride-1 grid is attributed whole to the first
 * stride-1 region covering it.
 */
struct RegionAttribution {
    std::vector<u64> kept;        //!< R pixels attributed to each region
    std::vector<u64> comparisons; //!< engine checks attributed to each region

    /** Zero `regions` slots (0 releases storage = attribution off). */
    void reset(size_t regions);
    /** Elementwise add; other must be empty or the same size. */
    void accumulate(const RegionAttribution &other);
    bool empty() const { return kept.empty(); }
};

/**
 * Streaming rhythmic pixel encoder.
 */
class RhythmicEncoder
{
  public:
    struct Config {
        ComparisonMode mode = ComparisonMode::Hybrid;
        double pixels_per_clock = 2.0;  //!< ISP line rate to keep up with
        int engine_lanes = 16;          //!< parallel comparators per cycle
        bool require_sorted = true;     //!< insist on y-sorted label lists
    };

    /**
     * @param frame_w decoded-space frame width
     * @param frame_h decoded-space frame height
     */
    RhythmicEncoder(i32 frame_w, i32 frame_h, const Config &config);
    RhythmicEncoder(i32 frame_w, i32 frame_h)
        : RhythmicEncoder(frame_w, frame_h, Config{})
    {
    }

    i32 frameWidth() const { return frame_w_; }
    i32 frameHeight() const { return frame_h_; }
    const Config &config() const { return config_; }

    /**
     * Load a region label list (the runtime writes these into the encoder's
     * memory-mapped registers). Validates geometry and, when
     * require_sorted, the y-ordering precondition.
     */
    void setRegionLabels(std::vector<RegionLabel> regions);

    const std::vector<RegionLabel> &regionLabels() const { return regions_; }

    /**
     * Encode one dense grayscale frame captured at frame index `t`.
     * The frame must match the configured geometry. Plans the frame (or
     * reuses its plan), writes each span's mask run and gathers the kept
     * pixels, then folds the plan's work counters into stats().
     */
    EncodedFrame encodeFrame(const Image &gray, FrameIndex t);

    /**
     * Plan frame `t` under the current labels: the kept runs of every
     * row, plus the frame's work counters and (when enabled) per-region
     * attribution, all in closed form. A plan for the same `t` is reused
     * until setRegionLabels() or enableRegionAttribution() changes what
     * it depends on, so the capture stage can plan the frame for the
     * kept-pixel ISP and encodeFrame() then reuses it. Storage is reused
     * from frame to frame: a warm plan allocates nothing.
     */
    const KeptRunPlan &planFrame(FrameIndex t);

    /** Per-code pixel counts of one frame (analytic, no pixel payload). */
    struct FrameSummary {
        u64 r = 0;   //!< encoded pixels
        u64 st = 0;  //!< strided-out regional pixels
        u64 sk = 0;  //!< temporally skipped regional pixels
        u64 n = 0;   //!< non-regional pixels
        Bytes metadata_bytes = 0; //!< EncMask + per-row offsets

        u64 total() const { return r + st + sk + n; }
    };

    /**
     * Compute the per-code pixel counts the current label list would
     * produce at frame `t`, without touching pixel data: the span totals
     * of the same plan encodeFrame() writes from. Used by the throughput
     * simulator to evaluate 4K-scale traces quickly (§5.3.1).
     */
    FrameSummary summarizeFrame(FrameIndex t) const;

    /**
     * Toggle per-region work attribution (off by default: the hot loops
     * then skip every attribution branch via a null pointer, keeping the
     * non-telemetry path cost-free). When on, each encoded frame also
     * fills lastFrameAttribution().
     */
    void
    enableRegionAttribution(bool on)
    {
        if (on != attribute_regions_)
            plan_.invalidate();
        attribute_regions_ = on;
    }
    bool regionAttributionEnabled() const { return attribute_regions_; }

    /**
     * Per-region attribution of the most recently committed frame
     * (empty when attribution is disabled). Indexed like regionLabels()
     * as of that frame — read it before the next setRegionLabels().
     */
    const RegionAttribution &lastFrameAttribution() const
    {
        return last_attr_;
    }

    /**
     * Classify a single pixel against a label list — the reference
     * semantics every comparison mode must reproduce.
     *
     * Priority for overlapping regions: R > St > Sk > N. A pixel is R when
     * any active covering region has it on its stride grid; St when it is
     * covered by an active region but on no grid; Sk when covered only by
     * inactive regions.
     */
    static PixelCode classify(const std::vector<RegionLabel> &regions,
                              i32 x, i32 y, FrameIndex t);

    const EncoderStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /**
     * Attach an observability context: "encoder.*" counters mirror the
     * per-frame work/traffic deltas. Null detaches (default, zero-cost).
     */
    void attachObs(obs::ObsContext *ctx);

    /**
     * True when the modelled comparison work fit the pixel-clock budget:
     * no processed row took longer than its stream time, i.e.
     * compare_cycles == stream_cycles.
     */
    bool withinCycleBudget() const;

  private:
    /**
     * Plan frame `t` into `plan`: per row, the RoI selector's shortlist,
     * the spans of constant covering set and their kept offsets over one
     * period of the covering grids, with comparisons, reuses and cycles
     * charged in closed form into `work` (and `attr` when non-null).
     */
    void buildPlan(FrameIndex t, KeptRunPlan &plan, EncoderStats &work,
                   RegionAttribution *attr) const;
    /**
     * Kept offsets, kept count, hybrid grid checks and attribution of
     * span [a, b) (covering set in the plan's sweep state, label words
     * [w0, w1]) from one period of the covering grids, each column
     * weighted by how often it recurs in the span.
     */
    void planSpanByWalk(i32 a, i32 b, size_t w0, size_t w1,
                        KeptRunPlan &plan, RegionAttribution *attr,
                        u64 &row_comparisons, KeptSpan &span) const;
    /** Per-row cycle model: stream time vs comparison-engine time. */
    void chargeRowCycles(u64 row_comparisons, EncoderStats &stats) const;

    i32 frame_w_;
    i32 frame_h_;
    Config config_;
    std::vector<RegionLabel> regions_;
    EncoderStats stats_;
    bool attribute_regions_ = false;
    RegionAttribution last_attr_;
    KeptRunPlan plan_;            //!< the current frame's plan
    EncoderStats plan_work_;      //!< its work counters
    RegionAttribution plan_attr_; //!< its attribution (when enabled)

    // Cached counter handles; null when no observer is attached.
    obs::Counter *obs_frames_ = nullptr;
    obs::Counter *obs_pixels_in_ = nullptr;
    obs::Counter *obs_pixels_kept_ = nullptr;
    obs::Counter *obs_comparisons_ = nullptr;
    obs::Counter *obs_compare_cycles_ = nullptr;
};

} // namespace rpx

#endif // RPX_CORE_ENCODER_HPP
