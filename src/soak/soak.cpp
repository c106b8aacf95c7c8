#include "soak/soak.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "frame/draw.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "sim/trace_io.hpp"

namespace rpx::soak {

namespace {

/**
 * Slot a replacement stream should continue; -1 outside a replacement.
 * Thread-local because addStream() runs the configure hook synchronously
 * on the caller's thread while holding the fleet mutex, so the slot
 * cannot be passed through shared state guarded by the soak mutex
 * (lock order is fleet -> soak).
 */
thread_local i64 t_pending_slot = -1;

u64
readStatusKb(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const size_t klen = std::char_traits<char>::length(key);
    while (std::getline(in, line)) {
        if (line.compare(0, klen, key) != 0)
            continue;
        u64 v = 0;
        for (const char c : line)
            if (c >= '0' && c <= '9')
                v = v * 10 + static_cast<u64>(c - '0');
        return v;
    }
    return 0;
}

double
sortedQuantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** The soak driver; one instance per runSoak() call. */
class SoakRunner
{
  public:
    explicit SoakRunner(const SoakOptions &opts) : opts_(opts)
    {
        if (opts_.streams < 1)
            throwInvalid("soak needs at least one stream");
        if (opts_.fps <= 0.0 || opts_.duration_s <= 0.0)
            throwInvalid("soak duration and fps must be positive");

        budget_ = static_cast<u64>(
            std::llround(opts_.duration_s * opts_.fps));
        if (budget_ < 1)
            budget_ = 1;

        width_ = opts_.width;
        height_ = opts_.height;
        if (!opts_.trace_path.empty()) {
            trace_ = readTraceFile(opts_.trace_path);
            if (trace_.trace.empty())
                throwRuntime("soak trace has no frames: ",
                             opts_.trace_path);
            have_trace_ = true;
            width_ = trace_.width;
            height_ = trace_.height;
        }
        if (width_ < 16 || height_ < 16)
            throwInvalid("soak frame geometry too small");

        plan_ = opts_.chaos ? chaosFaultPlanFor(opts_.seed)
                            : faultPlanFor(opts_.seed);
        slots_.resize(opts_.streams);
    }

    SoakResult run();

  private:
    struct SlotState {
        u64 done = 0;     //!< frames completed across generations
        u64 gen = 0;      //!< generations started
        u64 gen_base = 0; //!< slot-frame offset of the running generation
        u64 gen_done = 0; //!< frames the running generation completed
        u64 stop_at = 0;  //!< frames the running generation will run
    };

    /**
     * Frames generation `gen` of `slot` runs before leaving. Without
     * churn a generation runs its whole remaining budget (and the sole
     * generation completes naturally at the fleet frame target).
     */
    u64
    genLength(u64 slot, u64 gen, u64 remaining) const
    {
        if (!opts_.churn || remaining <= 1)
            return remaining;
        Rng rng = Rng(opts_.seed)
                      .fork(0xC0FFEEULL + slot * 0x9E3779B97F4A7C15ULL)
                      .fork(gen);
        const u64 lo = std::max<u64>(1, budget_ / 8);
        const u64 hi = std::max<u64>(lo, budget_ / 2);
        return std::min(remaining,
                        static_cast<u64>(rng.uniformInt(
                            static_cast<i64>(lo), static_cast<i64>(hi))));
    }

    /**
     * Stream configure hook. Runs under the fleet mutex on the thread
     * that called addStream(), which is what lets a replacement inherit
     * its slot through t_pending_slot. Initial streams (ids 0..N-1,
     * assigned in construction order) map to slot == id.
     */
    void
    configureStream(u32 id, PipelineConfig &pc)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const u64 slot = t_pending_slot >= 0
                             ? static_cast<u64>(t_pending_slot)
                             : static_cast<u64>(id);
        id2slot_[id] = slot;
        SlotState &st = slots_.at(slot);
        st.gen_base = st.done;
        st.gen_done = 0;
        st.stop_at = genLength(slot, st.gen, budget_ - st.done);
        // Decorrelate each generation's fault sequence: a plan seed
        // shared by every stream would fault every stream identically
        // (and short generations would never reach the later draws of
        // the sequence at all). stream_plan_ is a single slot, but
        // configure and the StreamContext construction that copies the
        // plan both run under the fleet mutex, so it cannot be
        // clobbered mid-build.
        if (pc.fault.plan) {
            stream_plan_ = plan_;
            stream_plan_.seed =
                Rng(opts_.seed)
                    .fork(0xFA017ULL + slot * 0x9E3779B97F4A7C15ULL)
                    .fork(st.gen)
                    .next();
            pc.fault.plan = &stream_plan_;
        }
        ++st.gen;
        ++generations_;
    }

    /** Scene content is keyed by slot frame, so a replacement stream
     *  continues exactly where the departed generation stopped. */
    Image
    sceneFor(u32 id, u64 frame)
    {
        u64 slot = 0;
        u64 base = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            slot = id2slot_.at(id);
            base = slots_[slot].gen_base;
        }
        Image img(width_, height_);
        Rng rng = Rng(opts_.seed)
                      .fork(0x5CE11EULL + slot * 0x9E3779B97F4A7C15ULL)
                      .fork(base + frame);
        fillValueNoise(img, rng, 11.0, 16, 239);
        return img;
    }

    std::vector<RegionLabel>
    syntheticLabels(u64 slot) const
    {
        Rng rng = Rng(opts_.seed)
                      .fork(0x1ABE1ULL + slot * 0x9E3779B97F4A7C15ULL);
        std::vector<RegionLabel> labels;
        // Coarse full-frame context plus one or two dense ROIs.
        labels.push_back(RegionLabel{
            0, 0, width_, height_,
            static_cast<i32>(rng.uniformInt(2, 4)), 2, 0});
        const i64 rois = rng.uniformInt(1, 2);
        for (i64 i = 0; i < rois; ++i) {
            const i32 w = static_cast<i32>(
                rng.uniformInt(width_ / 6, width_ / 3));
            const i32 h = static_cast<i32>(
                rng.uniformInt(height_ / 6, height_ / 3));
            const i32 x =
                static_cast<i32>(rng.uniformInt(0, width_ - w));
            const i32 y =
                static_cast<i32>(rng.uniformInt(0, height_ - h));
            labels.push_back(RegionLabel{x, y, w, h, 1, 1, 0});
        }
        return labels;
    }

    /** Creation-time labels: frame 0 of the stream's generation. */
    std::vector<RegionLabel>
    labelsFor(u32 id)
    {
        u64 slot = 0;
        u64 base = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            slot = id2slot_.at(id);
            base = slots_[slot].gen_base;
        }
        if (have_trace_) {
            const auto &labels = trace_.trace[base % trace_.trace.size()];
            if (!labels.empty())
                return labels;
            return {RegionLabel{0, 0, width_, height_, 1, 1, 0}};
        }
        return syntheticLabels(slot);
    }

    void
    onFrame(fleet::StreamContext &s, const PipelineFrameResult &result)
    {
        (void)result;
        const u32 id = s.id();
        const u64 g =
            global_frames_.fetch_add(1, std::memory_order_relaxed) + 1;
        bool remove = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const u64 slot = id2slot_.at(id);
            SlotState &st = slots_[slot];
            ++st.gen_done;
            ++st.done;
            // Trace replay programs the *next* frame's labels. Safe
            // without per-stream locking: one frame per stream is in
            // flight and the sink runs before frame n+1 is resubmitted,
            // so nothing else touches this stream's runtime right now.
            if (have_trace_ && st.gen_done < st.stop_at) {
                const auto &next =
                    trace_.trace[(st.gen_base + st.gen_done) %
                                 trace_.trace.size()];
                if (!next.empty())
                    s.runtime().setRegionLabels(next);
            }
            // A generation that runs the slot's whole budget from frame
            // zero completes naturally at the fleet frame target; every
            // other generation leaves via removeStream.
            const bool natural =
                st.gen_base == 0 && st.stop_at >= budget_;
            if (st.gen_done >= st.stop_at && !natural)
                remove = true;
        }
        if (opts_.frame_hook)
            opts_.frame_hook(g);
        if (remove)
            server_->removeStream(id);
        if (opts_.checkpoint_every != 0 &&
            g % opts_.checkpoint_every == 0 &&
            !aborted_.load(std::memory_order_relaxed))
            checkpoint(g);
    }

    void
    onRetired(const fleet::FleetStreamReport &sr)
    {
        i64 replace_slot = -1;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = id2slot_.find(sr.id);
            if (it != id2slot_.end()) {
                const u64 slot = it->second;
                id2slot_.erase(it);
                if (!aborted_.load(std::memory_order_relaxed) &&
                    slots_[slot].done < budget_)
                    replace_slot = static_cast<i64>(slot);
            }
        }
        if (replace_slot < 0)
            return;
        t_pending_slot = replace_slot;
        try {
            server_->addStream();
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(check_mutex_);
            violations_.push_back(
                std::string("replacement addStream failed: ") + e.what());
            aborted_.store(true, std::memory_order_relaxed);
        }
        t_pending_slot = -1;
    }

    /** Record a violation and abort the run (in-flight frames drain). */
    void
    violateLocked(std::string what)
    {
        violations_.push_back(std::move(what));
        aborted_.store(true, std::memory_order_relaxed);
        server_->drain();
    }

    void
    checkpoint(u64 g)
    {
        std::lock_guard<std::mutex> lock(check_mutex_);
        const auto t0 = std::chrono::steady_clock::now();
        // Journal first, registry second: every registry update of a
        // frame happens-before its journal record (program order into
        // the sink mutex), so this read order guarantees registry >=
        // journal for each conserved counter.
        const obs::TelemetryTotals j = sink_->totals();
        const u64 rf = reg_frames_->value();
        const u64 rw = reg_written_->value();
        const u64 rr = reg_read_->value();
        const u64 rm = reg_meta_->value();
        const u64 live = server_->activeStreams();

        SoakCheckpoint cp;
        cp.at_frame = g;
        cp.live_streams = live;
        if (rf < j.frames) {
            std::ostringstream os;
            os << "checkpoint@" << g << ": journal frames (" << j.frames
               << ") ahead of registry (" << rf << ")";
            violateLocked(os.str());
        } else {
            cp.frames_drift = rf - j.frames;
            max_drift_ = std::max(max_drift_, cp.frames_drift);
            // At most one frame per live stream is in flight, so the
            // registry can run ahead of the journal by at most
            // `streams` frames (and their bytes).
            if (cp.frames_drift > opts_.streams) {
                std::ostringstream os;
                os << "checkpoint@" << g << ": frames drift "
                   << cp.frames_drift << " exceeds max in-flight "
                   << opts_.streams << " (journal " << j.frames
                   << ", registry " << rf << ", live " << live << ")";
                violateLocked(os.str());
            }
            const u64 per_frame_cap =
                static_cast<u64>(width_) * static_cast<u64>(height_) * 4 +
                65536;
            const u64 byte_cap = opts_.streams * per_frame_cap;
            const u64 jw = static_cast<u64>(j.bytes_written);
            const u64 jr = static_cast<u64>(j.bytes_read);
            const u64 jm = static_cast<u64>(j.metadata_bytes);
            if (rw < jw || rr < jr || rm < jm ||
                rw - jw > byte_cap || rr - jr > byte_cap ||
                rm - jm > byte_cap) {
                std::ostringstream os;
                os << "checkpoint@" << g
                   << ": byte counters out of conservation bounds"
                   << " (written " << rw << "/" << jw << ", read " << rr
                   << "/" << jr << ", metadata " << rm << "/" << jm
                   << ", cap " << byte_cap << ")";
                violateLocked(os.str());
            }
        }
        cp.rss_kb = currentRssKb();
        rss_peak_ = std::max(rss_peak_, cp.rss_kb);
        cp.duration_us =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - t0)
                .count();
        check_durations_.push_back(cp.duration_us);
        checkpoints_.push_back(cp);
    }

    void finalChecks(const fleet::FleetReport &rep, SoakResult &res);
    void buildBench(SoakResult &res) const;

    SoakOptions opts_;
    u64 budget_ = 0;
    i32 width_ = 0;
    i32 height_ = 0;
    TraceFile trace_;
    bool have_trace_ = false;
    fault::FaultPlan plan_;
    fault::FaultPlan stream_plan_; //!< per-generation reseeded copy

    obs::ObsContext obs_;
    std::unique_ptr<obs::TelemetrySink> sink_;
    std::unique_ptr<fleet::FleetServer> server_;
    obs::Counter *reg_frames_ = nullptr;
    obs::Counter *reg_written_ = nullptr;
    obs::Counter *reg_read_ = nullptr;
    obs::Counter *reg_meta_ = nullptr;
    obs::Counter *reg_shed_ = nullptr;

    std::mutex mutex_; //!< slots / id map / generation count
    std::vector<SlotState> slots_;
    std::unordered_map<u32, u64> id2slot_;
    u64 generations_ = 0;
    std::atomic<u64> global_frames_{0};
    std::atomic<bool> aborted_{false};

    std::mutex check_mutex_; //!< checkpoint + violation state
    std::vector<SoakCheckpoint> checkpoints_;
    std::vector<double> check_durations_;
    std::vector<std::string> violations_;
    u64 max_drift_ = 0;
    u64 rss_peak_ = 0;
};

SoakResult
SoakRunner::run()
{
    obs::TelemetrySink::Config sc;
    sc.keep_frames = 0; // totals only: a soak must not grow the ring
    sc.journal_path = opts_.journal_path;
    sink_ = std::make_unique<obs::TelemetrySink>(sc);

    reg_frames_ = &obs_.registry().counter("pipeline.frames");
    reg_written_ = &obs_.registry().counter("pipeline.bytes_written");
    reg_read_ = &obs_.registry().counter("pipeline.bytes_read");
    reg_meta_ = &obs_.registry().counter("pipeline.metadata_bytes");
    reg_shed_ = &obs_.registry().counter("pipeline.shed_frames");

    fleet::FleetConfig fc;
    fc.stream.width = width_;
    fc.stream.height = height_;
    fc.stream.fps = opts_.fps;
    fc.stream.obs = &obs_;
    fc.stream.telemetry = sink_.get();
    if (opts_.faults || opts_.chaos) {
        fc.stream.fault.plan = &plan_;
        fc.stream.fault.crc_metadata = true;
        fc.stream.fault.graceful = true;
    }
    if (opts_.chaos) {
        // Wall-only stage delays, seeded independently of the fault
        // plan; the shed verdicts themselves come from the plan's
        // Stage::Shed rate so model quantities stay deterministic.
        fc.chaos.enabled = true;
        fc.chaos.seed = Rng(opts_.seed).fork(0xC4A05ULL).next();
        fc.chaos.capture_jitter_rate = 0.02;
        fc.chaos.worker_stall_rate = 0.01;
        fc.chaos.slow_lease_rate = 0.015;
        fc.chaos.queue_burst_rate = 0.01;
        // Watchdog with thresholds far above the injected delays: the
        // warn tier may fire under load, but quarantine/evict verdicts
        // would break the slot-budget invariant and must stay out of
        // reach of healthy (if slow) progress.
        fc.guard.watchdog.enabled = true;
        fc.guard.watchdog.interval_ms = 20;
        fc.guard.watchdog.warn_ms = 400;
        fc.guard.watchdog.quarantine_ms = 4000;
        fc.guard.watchdog.evict_ms = 20000;
    }
    fc.streams = opts_.streams;
    fc.frames_per_stream = static_cast<u32>(budget_);
    fc.max_streams = opts_.streams;
    fc.capture_workers = opts_.capture_workers;
    fc.encode_engines = opts_.encode_engines;
    fc.decode_engines = opts_.decode_engines;
    // Wall-clock EDF would make fault/degradation outcomes depend on
    // host load; injected Stage::Deadline misses exercise the ladder
    // deterministically instead.
    fc.use_deadlines = false;
    fc.scene_source = [this](u32 id, u64 frame) {
        return sceneFor(id, frame);
    };
    fc.label_source = [this](u32 id) { return labelsFor(id); };
    fc.configure = [this](u32 id, PipelineConfig &pc) {
        configureStream(id, pc);
    };
    fc.frame_sink = [this](fleet::StreamContext &s,
                           const PipelineFrameResult &r) { onFrame(s, r); };
    fc.stream_retired = [this](const fleet::FleetStreamReport &sr) {
        onRetired(sr);
    };

    SoakResult res;
    res.frames_budget = budget_ * opts_.streams;
    res.rss_start_kb = currentRssKb();
    rss_peak_ = res.rss_start_kb;

    server_ = std::make_unique<fleet::FleetServer>(fc);
    const fleet::FleetReport rep = server_->run();

    finalChecks(rep, res);
    res.fleet = rep;
    buildBench(res);
    server_.reset();
    sink_->flush();
    return res;
}

void
SoakRunner::finalChecks(const fleet::FleetReport &rep, SoakResult &res)
{
    std::lock_guard<std::mutex> lock(check_mutex_);
    const obs::TelemetryTotals j = sink_->totals();

    res.frames = j.frames;
    res.generations = generations_;
    res.shed_frames = rep.shed_frames;
    res.health_recoveries = rep.health_recoveries;
    res.watchdog_warns = rep.watchdog_warns;
    res.chaos_hits = rep.chaos_hits;
    res.checkpoints = checkpoints_.size();
    res.max_frames_drift = max_drift_;
    res.final_frames_drift = reg_frames_->value() >= j.frames
                                 ? reg_frames_->value() - j.frames
                                 : j.frames - reg_frames_->value();
    res.final_bytes_drift =
        (static_cast<i64>(reg_written_->value()) -
         static_cast<i64>(j.bytes_written)) +
        (static_cast<i64>(reg_read_->value()) -
         static_cast<i64>(j.bytes_read)) +
        (static_cast<i64>(reg_meta_->value()) -
         static_cast<i64>(j.metadata_bytes));

    const auto expectEq = [&](const char *what, u64 got, u64 want) {
        if (got == want)
            return;
        std::ostringstream os;
        os << "final: " << what << " mismatch (" << got
           << " != " << want << ")";
        violations_.push_back(os.str());
    };
    expectEq("registry/journal frames", reg_frames_->value(), j.frames);
    expectEq("registry/journal bytes_written", reg_written_->value(),
             static_cast<u64>(j.bytes_written));
    expectEq("registry/journal bytes_read", reg_read_->value(),
             static_cast<u64>(j.bytes_read));
    expectEq("registry/journal metadata_bytes", reg_meta_->value(),
             static_cast<u64>(j.metadata_bytes));
    expectEq("fleet/journal frames", rep.frames, j.frames);
    expectEq("fleet/journal quarantined", rep.quarantined,
             j.quarantined_frames);
    expectEq("fleet/journal deadline_misses", rep.deadline_misses,
             j.deadline_misses);
    expectEq("fleet/journal transient_faults", rep.transient_faults,
             j.transient_faults);
    // Shed accounting is three-way: every shed frame appears once in the
    // journal, the registry, and the fleet report (shed != lost).
    expectEq("registry/journal shed_frames", reg_shed_->value(),
             j.shed_frames);
    expectEq("fleet/journal shed_frames", rep.shed_frames,
             j.shed_frames);
    expectEq("fleet/journal dma_retries", rep.dma_retries,
             j.dma_retries);
    expectEq("fleet/journal dma_dropped_bursts", rep.dma_dropped_bursts,
             j.dma_dropped_bursts);
    expectEq("fleet errors", rep.errors, 0);

    if (!aborted_.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> slots_lock(mutex_);
        for (size_t s = 0; s < slots_.size(); ++s)
            if (slots_[s].done != budget_) {
                std::ostringstream os;
                os << "final: slot " << s << " ran " << slots_[s].done
                   << " of " << budget_ << " budgeted frames";
                violations_.push_back(os.str());
            }
    }

    // Fault / degradation attribution from the shared registry (survives
    // per-stream context teardown at retirement).
    for (const obs::MetricSample &sample : obs_.registry().snapshot()) {
        if (sample.kind != obs::MetricSample::Kind::Counter)
            continue;
        const u64 v = static_cast<u64>(sample.value);
        if (sample.name.rfind("fault.", 0) == 0) {
            if (endsWith(sample.name, ".drops"))
                res.fault_drops += v;
            else if (endsWith(sample.name, ".bytes_corrupted"))
                res.fault_byte_errors += v;
            else if (endsWith(sample.name, ".stalls"))
                res.fault_stalls += v;
        } else if (sample.name == "degrade.escalations") {
            res.degrade_escalations = v;
        } else if (sample.name == "degrade.recoveries") {
            res.degrade_recoveries = v;
        }
    }

    res.rss_peak_kb = std::max(rss_peak_, peakRssKb());
    res.checkpoint_p50_us = sortedQuantile(check_durations_, 0.5);
    res.checkpoint_p99_us = sortedQuantile(check_durations_, 0.99);
    res.checkpoint_log = checkpoints_;
    res.violations = violations_;
    res.ok = violations_.empty();
}

void
SoakRunner::buildBench(SoakResult &res) const
{
    obs::BenchReport b;
    b.bench = "soak";
    b.commit = obs::benchCommitFromEnv();
    const auto model = [&](const std::string &name, double v,
                           const char *unit, const char *dir) {
        b.setMetric(name, v, unit, dir, "model");
    };
    const auto wall = [&](const std::string &name, double v,
                          const char *unit, const char *dir) {
        b.setMetric(name, v, unit, dir, "wall");
    };
    model("soak.frames", static_cast<double>(res.frames), "frames",
          "higher");
    model("soak.generations", static_cast<double>(res.generations),
          "count", "higher");
    model("soak.errors", static_cast<double>(res.fleet.errors), "count",
          "lower");
    model("soak.frames_drift", static_cast<double>(res.final_frames_drift),
          "frames", "lower");
    model("soak.quarantined", static_cast<double>(res.fleet.quarantined),
          "frames", "lower");
    model("soak.deadline_misses",
          static_cast<double>(res.fleet.deadline_misses), "count",
          "lower");
    model("soak.transient_faults",
          static_cast<double>(res.fleet.transient_faults), "count",
          "lower");
    model("soak.bytes_written",
          static_cast<double>(res.fleet.bytes_written), "bytes", "lower");
    if (opts_.chaos) {
        // Emitted only in chaos mode so the baseline soak trend schema
        // is unchanged.
        model("soak.shed_frames", static_cast<double>(res.shed_frames),
              "frames", "lower");
        model("soak.health_recoveries",
              static_cast<double>(res.health_recoveries), "count",
              "higher");
        wall("soak.watchdog_warns",
             static_cast<double>(res.watchdog_warns), "count", "lower");
        wall("soak.chaos_hits", static_cast<double>(res.chaos_hits),
             "count", "higher");
    }
    wall("soak.wall_seconds", res.fleet.wall_seconds, "s", "lower");
    wall("soak.frames_per_second", res.fleet.frames_per_second, "fps",
         "higher");
    wall("soak.checkpoint_p99_us", res.checkpoint_p99_us, "us", "lower");
    wall("soak.rss_peak_kb", static_cast<double>(res.rss_peak_kb), "kB",
         "lower");
    res.bench = b;
}

} // namespace

fault::FaultPlan
faultPlanFor(u64 seed)
{
    fault::FaultPlan plan;
    plan.seed = seed ^ 0xF417F417F417F417ULL;
    // Metadata corruption drives the CRC/quarantine path, DMA drops the
    // transient-retry path, injected deadline misses the degradation
    // ladder (escalate after 2, recover after 8 clean frames).
    plan.at(fault::Stage::FrameMeta).byte_error_rate = 3e-5;
    plan.at(fault::Stage::Dma).drop_rate = 0.02;
    plan.at(fault::Stage::Deadline).drop_rate = 0.12;
    return plan;
}

fault::FaultPlan
chaosFaultPlanFor(u64 seed)
{
    fault::FaultPlan plan = faultPlanFor(seed);
    // Forced shed verdicts exercise the guard's load-shed accounting,
    // and a much hotter metadata-corruption rate produces the
    // consecutive-quarantine streaks that push streams into Quarantined
    // and back out (the recovery transitions the chaos gate asserts).
    plan.at(fault::Stage::Shed).drop_rate = 0.08;
    plan.at(fault::Stage::FrameMeta).byte_error_rate = 2e-4;
    return plan;
}

SoakResult
runSoak(const SoakOptions &options)
{
    SoakRunner runner(options);
    return runner.run();
}

u64
currentRssKb()
{
    return readStatusKb("VmRSS:");
}

u64
peakRssKb()
{
    return readStatusKb("VmHWM:");
}

std::string
toJson(const SoakResult &result)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"rpx-soak-report-v1\",\n";
    os << "  \"ok\": " << (result.ok ? "true" : "false") << ",\n";
    os << "  \"frames\": " << result.frames << ",\n";
    os << "  \"frames_budget\": " << result.frames_budget << ",\n";
    os << "  \"generations\": " << result.generations << ",\n";
    os << "  \"checkpoints\": " << result.checkpoints << ",\n";
    os << "  \"max_frames_drift\": " << result.max_frames_drift << ",\n";
    os << "  \"final_frames_drift\": " << result.final_frames_drift
       << ",\n";
    os << "  \"final_bytes_drift\": " << result.final_bytes_drift << ",\n";
    os << "  \"fault_drops\": " << result.fault_drops << ",\n";
    os << "  \"fault_byte_errors\": " << result.fault_byte_errors << ",\n";
    os << "  \"fault_stalls\": " << result.fault_stalls << ",\n";
    os << "  \"degrade_escalations\": " << result.degrade_escalations
       << ",\n";
    os << "  \"degrade_recoveries\": " << result.degrade_recoveries
       << ",\n";
    os << "  \"shed_frames\": " << result.shed_frames << ",\n";
    os << "  \"health_recoveries\": " << result.health_recoveries << ",\n";
    os << "  \"watchdog_warns\": " << result.watchdog_warns << ",\n";
    os << "  \"chaos_hits\": " << result.chaos_hits << ",\n";
    os << "  \"rss_start_kb\": " << result.rss_start_kb << ",\n";
    os << "  \"rss_peak_kb\": " << result.rss_peak_kb << ",\n";
    os << "  \"checkpoint_p50_us\": " << json::number(result.checkpoint_p50_us)
       << ",\n";
    os << "  \"checkpoint_p99_us\": " << json::number(result.checkpoint_p99_us)
       << ",\n";
    os << "  \"violations\": [";
    for (size_t i = 0; i < result.violations.size(); ++i)
        os << (i ? ", " : "") << "\"" << json::escape(result.violations[i])
           << "\"";
    os << "],\n";
    os << "  \"checkpoint_log\": [";
    for (size_t i = 0; i < result.checkpoint_log.size(); ++i) {
        const SoakCheckpoint &cp = result.checkpoint_log[i];
        os << (i ? "," : "") << "\n    {\"at_frame\": " << cp.at_frame
           << ", \"frames_drift\": " << cp.frames_drift
           << ", \"live_streams\": " << cp.live_streams
           << ", \"rss_kb\": " << cp.rss_kb << ", \"duration_us\": "
           << json::number(cp.duration_us) << "}";
    }
    os << (result.checkpoint_log.empty() ? "" : "\n  ") << "],\n";

    // Indent the embedded reports two spaces so the output stays a
    // readable whole; both are newline-terminated pretty JSON.
    const auto embed = [&os](const char *key, const std::string &body) {
        os << "  \"" << key << "\": ";
        for (size_t i = 0; i < body.size(); ++i) {
            const char c = body[i];
            if (c == '\n' && i + 1 < body.size())
                os << "\n  ";
            else if (c != '\n')
                os << c;
        }
    };
    embed("fleet", fleet::toJson(result.fleet));
    os << ",\n";
    embed("bench", obs::writeBenchReportJson(result.bench));
    os << "\n}\n";
    return os.str();
}

} // namespace rpx::soak
