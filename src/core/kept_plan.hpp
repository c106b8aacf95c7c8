/**
 * @file
 * The per-frame kept-run plan: where the encoder will keep pixels.
 *
 * A frame's region labels and index fix, for every row, the spans of
 * constant covering set and which columns of each span are R. Inside a
 * span the R columns are the union of the covering stride grids, so they
 * repeat with the least common multiple of the grid strides (≤ 12 for
 * strides 1–4): a span is stored as one period of kept offsets. The
 * encoder derives the plan once per frame (RhythmicEncoder::planFrame);
 * the encoder's mask and payload writes, the kept-pixel ISP and the
 * per-code summary all read it, so the work each does is proportional to
 * the pixels kept rather than the pixels streamed.
 */

#ifndef RPX_CORE_KEPT_PLAN_HPP
#define RPX_CORE_KEPT_PLAN_HPP

#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "core/encmask.hpp"

namespace rpx {

/**
 * One covered span [x0, x1) of a row. Column x0 + p * period + o is R for
 * every in-period kept offset o (and p >= 0 while the column is inside
 * the span); every other column of the span has code `base`.
 */
struct KeptSpan {
    i32 x0 = 0;
    i32 x1 = 0;
    i32 period = 1;     //!< kept columns repeat every `period` columns
    u32 off_begin = 0;  //!< first in-period offset in KeptRunPlan::offsets
    u32 off_count = 0;  //!< kept offsets per period (0: nothing kept)
    u32 kept = 0;       //!< R pixels in the span
    PixelCode base = PixelCode::St; //!< code of unkept columns (St or Sk)

    i32 width() const { return x1 - x0; }
    bool allKept() const { return kept == static_cast<u32>(x1 - x0); }
};

class RhythmicEncoder;

/**
 * Kept runs of one frame, row by row. Uncovered columns (code N) have no
 * span. Storage grows to the largest frame planned and is then reused,
 * so re-planning a warm plan allocates nothing.
 */
class KeptRunPlan
{
  public:
    i32 width() const { return width_; }
    i32 height() const { return height_; }
    /** Frame index the plan was made for. */
    FrameIndex frame() const { return frame_; }
    /** True once planned and until invalidate(). */
    bool valid() const { return valid_; }
    void invalidate() { valid_ = false; }

    /** R pixels in the frame. */
    u64 kept() const { return kept_; }
    /** R pixels in row y. */
    u32 rowKept(i32 y) const { return row_kept_[index(y)]; }

    /** Covered spans of row y, left to right. */
    std::span<const KeptSpan>
    spans(i32 y) const
    {
        const size_t i = index(y);
        return {spans_.data() + row_begin_[i],
                row_begin_[i + 1] - row_begin_[i]};
    }

    /** In-period kept offsets of a span (ascending). */
    std::span<const i32>
    offsets(const KeptSpan &s) const
    {
        return {offsets_.data() + s.off_begin, s.off_count};
    }

    /**
     * Visit the kept columns of a span in raster order as arithmetic
     * runs f(x, count, step): one run for a single-offset period (stride
     * 1 or a lone grid), one column per call otherwise.
     */
    template <class F>
    void
    forEachRun(const KeptSpan &s, F &&f) const
    {
        if (s.off_count == 0)
            return;
        const i32 *off = offsets_.data() + s.off_begin;
        if (s.off_count == 1) {
            f(s.x0 + off[0], s.kept, s.period);
            return;
        }
        for (i32 p = s.x0; p < s.x1; p += s.period) {
            for (u32 i = 0; i < s.off_count; ++i) {
                const i32 x = p + off[i];
                if (x >= s.x1)
                    return;
                f(x, 1u, 1);
            }
        }
    }

    /** Code of column x inside span s. */
    PixelCode
    codeAt(const KeptSpan &s, i32 x) const
    {
        const i32 o = (x - s.x0) % s.period;
        for (const i32 k : offsets(s))
            if (k == o)
                return PixelCode::R;
        return s.base;
    }

  private:
    friend class RhythmicEncoder;

    size_t
    index(i32 y) const
    {
        RPX_ASSERT(valid_ && y >= 0 && y < height_,
                   "kept-run plan row out of range");
        return static_cast<size_t>(y);
    }

    /** Start a fresh plan of `h` rows, keeping capacity. */
    void
    begin(i32 w, i32 h, FrameIndex t)
    {
        width_ = w;
        height_ = h;
        frame_ = t;
        kept_ = 0;
        spans_.clear();
        offsets_.clear();
        row_begin_.assign(1, 0);
        row_kept_.clear();
        valid_ = false;
    }

    /** Close the current row (its spans are those pushed since). */
    void
    endRow(u32 kept)
    {
        row_begin_.push_back(static_cast<u32>(spans_.size()));
        row_kept_.push_back(kept);
        kept_ += kept;
    }

    i32 width_ = 0;
    i32 height_ = 0;
    FrameIndex frame_ = 0;
    bool valid_ = false;
    u64 kept_ = 0;
    std::vector<KeptSpan> spans_;
    std::vector<i32> offsets_;
    std::vector<u32> row_begin_; //!< spans of row y: [row_begin_[y], [y+1])
    std::vector<u32> row_kept_;

    // Planning scratch, reused across frames: the labels whose rows cover
    // the current row (in list order), bit sets over label indices and
    // the boundary-sweep events of the live labels, sorted by column.
    struct Event {
        i32 x;     //!< column where the label enters or leaves
        u32 label;
    };
    std::vector<u32> live_;
    std::vector<Event> events_;
    std::vector<u64> active_;  //!< rhythm samples this frame
    std::vector<u64> grid_;    //!< active and the row is on its grid
    std::vector<u64> stride1_; //!< grid with stride 1
    std::vector<u64> cover_;   //!< covers the current span
    std::vector<u8> claimed_; //!< a span's period: column already kept
};

} // namespace rpx

#endif // RPX_CORE_KEPT_PLAN_HPP
