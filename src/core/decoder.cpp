#include "core/decoder.hpp"

#include <algorithm>
#include <limits>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"

namespace rpx {

RhythmicDecoder::RhythmicDecoder(FrameStore &store, const Config &config)
    : store_(store), config_(config), response_(config.response_fifo_depth)
{
    if (config.clock_ghz <= 0.0)
        throwInvalid("decoder clock must be positive");
    if (config.max_upscan < 0)
        throwInvalid("max_upscan must be non-negative");
}

u64
RhythmicDecoder::decodedSize() const
{
    return static_cast<u64>(store_.frameWidth()) *
           static_cast<u64>(store_.frameHeight());
}

void
RhythmicDecoder::refreshScratchpad()
{
    // The scratchpad mirrors the metadata of the four most recent encoded
    // frames (§4.2.1). Reload the slots when the frame set changed. The
    // key pairs the slot pointer with the frame's capture index: the frame
    // store's deque can reuse element storage as slots cycle, so a new
    // frame may alias an evicted one's address, and the pointer alone
    // would read as "unchanged".
    bool stale = scratch_keys_.size() != store_.size();
    if (!stale) {
        for (size_t k = 0; k < scratch_keys_.size(); ++k) {
            const EncodedFrame *f = store_.recent(k);
            if (scratch_keys_[k] != ScratchKey{f, f->index}) {
                stale = true;
                break;
            }
        }
    }
    if (!stale)
        return;
    scratch_keys_.clear();
    while (scratch_.size() < store_.size())
        scratch_.push_back(std::make_unique<ScratchEntry>());
    for (size_t k = 0; k < store_.size(); ++k) {
        const EncodedFrame *f = store_.recent(k);
        const StoredFrameAddrs *addrs = store_.recentAddrs(k);
        scratch_keys_.push_back(ScratchKey{f, f->index});

        // Load the frame's metadata from DRAM — the decoder consumes
        // memory content, not simulator-side state. The mask bytes
        // reconstruct the EncMask; the per-row offset table reconstructs
        // RowOffsets (the last row's count comes from the mask). Fetch
        // staging and the slot's metadata storage are pooled, so a warm
        // refresh allocates nothing.
        ScratchEntry &e = *scratch_[k];
        e.valid = false;
        EncodedFrame &meta = e.meta;
        meta.index = f->index;
        meta.width = f->width;
        meta.height = f->height;
        const size_t mask_bytes =
            (static_cast<size_t>(f->width) * f->height * 2 + 7) / 8;
        std::vector<u8> &mask_buf = arena_.bytes(kMaskFetch, mask_bytes);
        store_.dram().read(addrs->mask.base, mask_buf.data(), mask_bytes);
        const size_t offs_bytes =
            static_cast<size_t>(f->height) * sizeof(u32);
        std::vector<u8> &offs = arena_.bytes(kOffsFetch, offs_bytes);
        store_.dram().read(addrs->offsets.base, offs.data(), offs_bytes);

        // Integrity gate 1: when the store seals metadata, verify the
        // CRC over the raw fetched bytes before trusting any of them.
        bool safe = true;
        if (store_.metadataCrcEnabled()) {
            Crc32 crc;
            crc.update(mask_buf);
            crc.update(offs);
            u8 cell[sizeof(u32)];
            store_.dram().read(addrs->crc.base, cell, sizeof(cell));
            const u32 sealed = static_cast<u32>(cell[0]) |
                               (static_cast<u32>(cell[1]) << 8) |
                               (static_cast<u32>(cell[2]) << 16) |
                               (static_cast<u32>(cell[3]) << 24);
            if (crc.value() != sealed) {
                ++stats_.crc_failures;
                safe = false;
            }
        }

        meta.mask.assign(f->width, f->height, mask_buf.data(), mask_bytes);
        meta.offsets.reset(f->height);
        auto word = [&](i32 y) {
            const size_t b = static_cast<size_t>(y) * 4;
            return static_cast<u32>(offs[b]) |
                   (static_cast<u32>(offs[b + 1]) << 8) |
                   (static_cast<u32>(offs[b + 2]) << 16) |
                   (static_cast<u32>(offs[b + 3]) << 24);
        };
        for (i32 y = 0; y + 1 < f->height; ++y)
            meta.offsets.setRowCount(y, word(y + 1) - word(y));
        meta.offsets.setRowCount(f->height - 1,
                                 meta.mask.encodedInRow(f->height - 1));
        stats_.metadata_bytes += mask_bytes + offs_bytes;

        // Integrity gate 2: bounds-validate the reconstructed metadata so
        // no later translation can index outside the slot's payload range
        // (payload size is not checked — the payload stays in DRAM).
        if (safe && !meta.validate(nullptr, /*check_payload=*/false)) {
            ++stats_.validation_failures;
            safe = false;
        }

        if (!safe) {
            // Quarantine: keep the slot's position so frame tags still
            // line up, but never address it (e.valid stays false).
            ++stats_.frames_quarantined;
            if (obs_quarantined_)
                obs_quarantined_->inc();
            continue;
        }

        e.carry.bind(meta, /*values=*/false);
        e.valid = true;
    }
}

SourceCarry &
RhythmicDecoder::carryAt(ScratchEntry &e, i32 y)
{
    if (y + 1 < e.carry.next_row)
        e.carry.bind(e.meta, /*values=*/false);
    e.carry.advanceTo(y, minSourceRow(y, config_.max_upscan));
    return e.carry;
}

void
RhythmicDecoder::translateSegment(i32 y, i32 x0, i32 x1, size_t base,
                                  std::vector<SubRequest> &subs,
                                  std::vector<u8> &result)
{
    ScratchEntry *cur = scratch_[0]->valid ? scratch_[0].get() : nullptr;
    if (!cur) {
        // A quarantined newest frame has no trustworthy mask: treat every
        // pixel like a temporally skipped one and look to history.
        for (i32 x = x0; x < x1; ++x)
            translateFallback(x, y, base + static_cast<size_t>(x - x0),
                              subs, result);
        return;
    }

    const EncodedFrame &current = cur->meta;
    const size_t w = static_cast<size_t>(current.width);
    const size_t seg = static_cast<size_t>(x1 - x0);
    std::vector<u8> &codes = arena_.bytes(kRowCodes, seg);
    simd::unpackMask2bpp(current.mask.bytes().data(),
                         static_cast<size_t>(y) * w +
                             static_cast<size_t>(x0),
                         seg, codes.data());

    // In-row R tracker (the Translator's fast path): r_count is the R
    // prefix at the cursor and last_off the payload offset of the nearest
    // R at or left of it. A mid-row start seeds the count from the mask;
    // the offset of the r_count'th R in the row is row_off + r_count - 1
    // by construction.
    const u32 row_off = current.offsets.offsetOf(y);
    const u32 total = current.offsets.total();
    const i32 min_row = minSourceRow(y, config_.max_upscan);
    u32 r_count = current.mask.encodedBefore(x0, y);
    bool have_r = r_count > 0;
    u32 last_off = have_r ? row_off + r_count - 1 : 0;

    for (i32 x = x0; x < x1; ++x) {
        const size_t pos = base + static_cast<size_t>(x - x0);
        const PixelCode code = static_cast<PixelCode>(
            codes[static_cast<size_t>(x - x0)]);
        if (code == PixelCode::N) {
            result[pos] = config_.black_value;
            ++stats_.black_pixels;
            continue;
        }
        if (code == PixelCode::R || code == PixelCode::St) {
            // Intra-frame: resolve via the resampling rules of the FIFO
            // sampling unit (§4.2.2). The offset bound is a no-op for
            // consistent frames; it only bites when an unsealed store
            // let a mask/offset mismatch through validation.
            u32 offset = total; // no source
            if (code == PixelCode::R) {
                offset = row_off + r_count++;
                have_r = true;
                last_off = offset;
            } else if (have_r) {
                offset = last_off;
            } else {
                // St with no R at or left in its row: the nearest R in
                // the rows above, within max_upscan, from the carry.
                const SourceCarry &carry = carryAt(*cur, y);
                const size_t col = static_cast<size_t>(x);
                if (col >= carry.threshold(min_row))
                    offset = carry.offset[col];
            }
            if (offset < total) {
                subs.push_back({0, offset, pos});
                ++stats_.sub_requests_intra;
                if (code == PixelCode::St)
                    ++stats_.resampled_pixels;
                continue;
            }
            // An St pixel with no reachable R in this frame falls back
            // to history the same way a skipped pixel does.
        }
        translateFallback(x, y, pos, subs, result);
    }
}

void
RhythmicDecoder::translateFallback(i32 x, i32 y, size_t result_pos,
                                   std::vector<SubRequest> &subs,
                                   std::vector<u8> &result)
{
    // Sk (or unresolvable St): the newest stored frame that sampled the
    // pixel (R or St) and has its source in reach.
    const i32 min_row = minSourceRow(y, config_.max_upscan);
    const size_t col = static_cast<size_t>(x);
    for (size_t k = 1; k < scratchCount(); ++k) {
        ScratchEntry &e = *scratch_[k];
        if (!e.valid)
            continue; // quarantined history frame
        const SourceCarry &past = carryAt(e, y);
        const PixelCode pcode = static_cast<PixelCode>(past.codes[col]);
        if ((pcode == PixelCode::R || pcode == PixelCode::St) &&
            col >= past.threshold(min_row) &&
            past.offset[col] < e.meta.offsets.total()) {
            subs.push_back({k, past.offset[col], result_pos});
            ++stats_.sub_requests_inter;
            ++stats_.history_hits;
            return;
        }
    }

    result[result_pos] = config_.black_value;
    ++stats_.history_misses;
    ++stats_.black_pixels;
}

void
RhythmicDecoder::fulfill(std::vector<SubRequest> &subs,
                         std::vector<u8> &result)
{
    // Coalesce sub-requests into burst reads: sort by (frame, offset) and
    // merge runs of consecutive encoded offsets into one DRAM transaction.
    std::sort(subs.begin(), subs.end(),
              [](const SubRequest &a, const SubRequest &b) {
                  return a.frame_tag != b.frame_tag
                             ? a.frame_tag < b.frame_tag
                             : a.offset < b.offset;
              });

    size_t i = 0;
    while (i < subs.size()) {
        size_t j = i + 1;
        while (j < subs.size() && subs[j].frame_tag == subs[i].frame_tag &&
               subs[j].offset <=
                   subs[j - 1].offset + 1 + config_.burst_gap_bytes &&
               subs[j].offset - subs[i].offset <
                   config_.max_burst_bytes) {
            ++j;
        }
        const u32 first = subs[i].offset;
        const u32 last = subs[j - 1].offset;
        const size_t len = static_cast<size_t>(last - first) + 1;

        const StoredFrameAddrs *addrs =
            store_.recentAddrs(subs[i].frame_tag);
        RPX_ASSERT(addrs != nullptr, "sub-request against missing frame");
        std::vector<u8> &burst = arena_.bytes(kBurst, len);
        store_.dram().read(addrs->pixels.base + first, burst.data(), len);
        ++stats_.dram_reads;
        stats_.dram_pixel_bytes += len;

        // Response path: the burst streams through the response FIFO into
        // the sampling unit, which places each beat in the transaction
        // result (duplicate offsets re-sample the previous beat; beats
        // fetched only to bridge a coalescing gap are popped and
        // discarded the same way).
        response_.clear();
        size_t consumed = 0; // burst bytes already pushed into the FIFO
        u8 current = config_.black_value;
        u32 current_offset = first;
        bool have_current = false;
        for (size_t k = i; k < j; ++k) {
            const u32 want = subs[k].offset;
            while (!have_current || current_offset < want) {
                if (response_.empty()) {
                    while (consumed < len && !response_.full())
                        response_.push(burst[consumed++]);
                }
                current_offset =
                    have_current ? current_offset + 1 : first;
                current = response_.pop();
                have_current = true;
            }
            result[subs[k].result_pos] = current;
        }
        i = j;
    }
}

std::vector<u8>
RhythmicDecoder::requestPixels(i32 x, i32 y, i32 count)
{
    std::vector<u8> result;
    requestPixelsInto(x, y, count, result);
    return result;
}

void
RhythmicDecoder::requestPixelsInto(i32 x, i32 y, i32 count,
                                   std::vector<u8> &out)
{
    if (count < 0)
        throwInvalid("pixel request count must be non-negative");
    if (store_.size() == 0)
        throwRuntime("decoder has no stored encoded frame to serve from");
    const i32 w = store_.frameWidth();
    const i32 h = store_.frameHeight();
    if (x < 0 || x >= w || y < 0 || y >= h)
        throwInvalid("pixel request origin out of frame: (", x, ",", y, ")");
    const i64 linear = static_cast<i64>(y) * w + x;
    if (linear + count > static_cast<i64>(w) * h)
        throwInvalid("pixel request runs past the end of the frame");

    refreshScratchpad();

    out.assign(static_cast<size_t>(count), config_.black_value);
    subs_.clear();
    if (subs_.capacity() < static_cast<size_t>(count))
        subs_.reserve(static_cast<size_t>(count));

    // Translate row segment by row segment: a linear request covers at
    // most one partial row, then whole rows — each is one vectorised
    // scan instead of per-pixel mask bit plucking.
    i64 lin = linear;
    size_t base = 0;
    i64 remaining = count;
    while (remaining > 0) {
        const i32 yy = static_cast<i32>(lin / w);
        const i32 xx = static_cast<i32>(lin % w);
        const i32 seg =
            static_cast<i32>(std::min<i64>(remaining, w - xx));
        translateSegment(yy, xx, xx + seg, base, subs_, out);
        lin += seg;
        base += static_cast<size_t>(seg);
        remaining -= seg;
    }
    const u64 reads_before = stats_.dram_reads;
    fulfill(subs_, out);
    const u64 bursts_issued = stats_.dram_reads - reads_before;

    ++stats_.transactions;
    stats_.pixels_requested += static_cast<u64>(count);
    // Latency model: the *added* delay of intercepting the transaction —
    // pipeline fill plus one issue cycle per coalesced DRAM burst. Data
    // beats themselves stream at line rate, so they are not added delay
    // (§6.3: "a few clock cycles ... order of a few 10s of ns").
    stats_.cycles += config_.fixed_latency + bursts_issued;

    // Metadata touched for this transaction: the mask bits and the offset
    // entries of the rows the request covers (already resident in the
    // scratchpad; accounted there).
    if (obs_transactions_)
        mirrorObs();
}

void
RhythmicDecoder::mirrorObs()
{
    obs_transactions_->add(stats_.transactions - obs_seen_.transactions);
    obs_pixels_->add(stats_.pixels_requested - obs_seen_.pixels_requested);
    obs_dram_reads_->add(stats_.dram_reads - obs_seen_.dram_reads);
    obs_pixel_bytes_->add(stats_.dram_pixel_bytes -
                          obs_seen_.dram_pixel_bytes);
    obs_metadata_bytes_->add(stats_.metadata_bytes -
                             obs_seen_.metadata_bytes);
    obs_history_hits_->add(stats_.history_hits - obs_seen_.history_hits);
    obs_black_pixels_->add(stats_.black_pixels - obs_seen_.black_pixels);
    obs_arena_retained_->set(static_cast<double>(arena_.retainedBytes()));
    obs_arena_high_water_->set(
        static_cast<double>(arena_.highWaterBytes()));
    obs_seen_ = stats_;
}

void
RhythmicDecoder::attachObs(obs::ObsContext *ctx)
{
    if (!ctx) {
        obs_transactions_ = obs_pixels_ = obs_dram_reads_ = nullptr;
        obs_pixel_bytes_ = obs_metadata_bytes_ = nullptr;
        obs_history_hits_ = obs_black_pixels_ = nullptr;
        obs_quarantined_ = nullptr;
        obs_arena_retained_ = obs_arena_high_water_ = nullptr;
        return;
    }
    obs::PerfRegistry &r = ctx->registry();
    obs_quarantined_ = &r.counter("decoder.frames_quarantined");
    obs_transactions_ = &r.counter("decoder.transactions");
    obs_pixels_ = &r.counter("decoder.pixels_requested");
    obs_dram_reads_ = &r.counter("decoder.dram_reads");
    obs_pixel_bytes_ = &r.counter("decoder.dram_pixel_bytes");
    obs_metadata_bytes_ = &r.counter("decoder.metadata_bytes");
    obs_history_hits_ = &r.counter("decoder.history_hits");
    obs_black_pixels_ = &r.counter("decoder.black_pixels");
    obs_arena_retained_ = &r.gauge("decoder.arena_retained_bytes");
    obs_arena_high_water_ = &r.gauge("decoder.arena_high_water_bytes");
    obs_seen_ = stats_;
}

std::vector<u8>
RhythmicDecoder::requestBytes(u64 addr, size_t len)
{
    const u64 base = config_.decoded_base;
    const u64 end = base + decodedSize();

    // Out-of-Frame Handler (§4.2.1): the transaction may lie entirely
    // outside the decoded-frame aperture, entirely inside it, or straddle
    // either edge. A straddling request must be split — the in-aperture
    // bytes are pixel-translated, the rest bypasses to standard DRAM —
    // otherwise the caller would receive raw encoded-frame DRAM content
    // for the in-frame portion.
    if (len == 0 || addr >= end || addr + len <= base) {
        ++stats_.bypassed;
        return store_.dram().read(addr, len);
    }

    const u64 pix_begin = std::max(addr, base);
    const u64 pix_end = std::min(addr + len, end);

    std::vector<u8> result;
    result.reserve(len);

    if (addr < pix_begin) {
        // Prefix before the aperture: plain DRAM.
        ++stats_.bypassed;
        const std::vector<u8> head =
            store_.dram().read(addr, static_cast<size_t>(pix_begin - addr));
        result.insert(result.end(), head.begin(), head.end());
    }

    // In-aperture portion, chunked so each requestPixels count fits i32
    // (decodedSize() can exceed INT32_MAX at extreme geometries; the old
    // static_cast<i32>(len) silently truncated).
    constexpr u64 kMaxChunk =
        static_cast<u64>(std::numeric_limits<i32>::max());
    const i32 w = store_.frameWidth();
    for (u64 pos = pix_begin; pos < pix_end;) {
        const u64 chunk = std::min(pix_end - pos, kMaxChunk);
        const u64 offset = pos - base;
        const std::vector<u8> pixels =
            requestPixels(static_cast<i32>(offset % w),
                          static_cast<i32>(offset / w),
                          static_cast<i32>(chunk));
        result.insert(result.end(), pixels.begin(), pixels.end());
        pos += chunk;
    }

    if (pix_end < addr + len) {
        // Suffix past the aperture: plain DRAM.
        ++stats_.bypassed;
        const std::vector<u8> tail = store_.dram().read(
            pix_end, static_cast<size_t>(addr + len - pix_end));
        result.insert(result.end(), tail.begin(), tail.end());
    }
    return result;
}

double
RhythmicDecoder::avgLatencyNs() const
{
    if (stats_.transactions == 0)
        return 0.0;
    const double cycles_per_txn = static_cast<double>(stats_.cycles) /
                                  static_cast<double>(stats_.transactions);
    return cycles_per_txn / config_.clock_ghz;
}

} // namespace rpx
