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

/**
 * One kB field of /proc/self/status (0 off-Linux): VmRSS is the current
 * resident set, VmHWM its peak.
 */
u64
statusKb(const char *key)
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

using Journal = obs::TelemetryTotals;
using Ledger = fleet::FrameTotals;

/** One frame-ledger field that the telemetry journal also counts. */
struct LedgerField {
    const char *name;
    u64 Journal::*journal;
    u64 Ledger::*ledger;
    /** At most one per frame; else counted per byte or DMA burst. */
    bool per_frame;
};

/** The fields on which journal and ledger must agree. */
constexpr LedgerField kLedgerFields[] = {
    {"frames", &Journal::frames, &Ledger::frames, true},
    {"bytes_written", &Journal::bytes_written, &Ledger::bytes_written, false},
    {"bytes_read", &Journal::bytes_read, &Ledger::bytes_read, false},
    {"metadata_bytes", &Journal::metadata_bytes, &Ledger::metadata_bytes,
     false},
    {"quarantined", &Journal::quarantined_frames, &Ledger::quarantined, true},
    {"deadline_misses", &Journal::deadline_misses, &Ledger::deadline_misses,
     true},
    {"transient_faults", &Journal::transient_faults,
     &Ledger::transient_faults, false},
    {"shed_frames", &Journal::shed_frames, &Ledger::shed, true},
    {"dma_retries", &Journal::dma_retries, &Ledger::dma_retries, false},
    {"dma_dropped_bursts", &Journal::dma_dropped_bursts,
     &Ledger::dma_dropped_bursts, false},
};

u64
absDiff(u64 a, u64 b)
{
    return a >= b ? a - b : b - a;
}

} // namespace

std::vector<std::string>
ledgerViolations(const std::string &where, const Journal &before,
                 const Ledger &ledger, const Journal &after, u64 frame_cap,
                 u64 byte_cap)
{
    std::vector<std::string> out;
    for (const LedgerField &f : kLedgerFields) {
        const u64 lv = ledger.*f.ledger;
        const u64 jb = before.*f.journal;
        const u64 ja = after.*f.journal;
        const u64 cap = f.per_frame ? frame_cap : byte_cap;
        if (ja >= lv && (jb <= lv || jb - lv <= cap))
            continue;
        std::ostringstream os;
        os << where << ": journal/ledger " << f.name
           << " out of bounds (journal " << jb;
        if (ja != jb)
            os << " then " << ja;
        os << ", ledger " << lv << ", cap " << cap << ")";
        out.push_back(os.str());
    }
    return out;
}

namespace {

/** The ledger as the journal sees it: errored frames are never journaled. */
Ledger
journaled(Ledger l)
{
    l.frames -= l.errors;
    return l;
}

/**
 * The standard soak fault mix for a master seed: metadata corruption
 * drives the CRC/quarantine path, DMA drops the transient-retry path,
 * injected deadline misses the degradation ladder (escalate after 2,
 * recover after 8 clean frames) without wall clocks.
 */
fault::FaultPlan
faultPlanFor(u64 seed)
{
    fault::FaultPlan plan;
    plan.seed = seed ^ 0xF417F417F417F417ULL;
    plan.at(fault::Stage::FrameMeta).byte_error_rate = 3e-5;
    plan.at(fault::Stage::Dma).drop_rate = 0.02;
    plan.at(fault::Stage::Deadline).drop_rate = 0.12;
    return plan;
}

/**
 * The amplified chaos-mode fault mix: forced Stage::Shed verdicts
 * exercise the guard's load-shed accounting, and a much hotter
 * metadata-corruption rate produces the consecutive-quarantine streaks
 * that push streams into Quarantined and back out (the recovery
 * transitions the chaos gate asserts).
 */
fault::FaultPlan
chaosFaultPlanFor(u64 seed)
{
    fault::FaultPlan plan = faultPlanFor(seed);
    plan.at(fault::Stage::Shed).drop_rate = 0.08;
    plan.at(fault::Stage::FrameMeta).byte_error_rate = 2e-4;
    return plan;
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
        u64 gen = 0;      //!< generations started
        u64 gen_base = 0; //!< slot-frame offset of the running generation
        u64 gen_done = 0; //!< frames the running generation completed
        u64 stop_at = 0;  //!< frames the running generation will run

        /** Frames completed across generations. */
        u64 done() const { return gen_base + gen_done; }
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
        st.gen_base = st.done();
        st.gen_done = 0;
        st.stop_at = genLength(slot, st.gen, budget_ - st.gen_base);
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

    /** Stream `id`'s slot and its generation's slot-frame offset. */
    std::pair<u64, u64>
    slotOf(u32 id)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const u64 slot = id2slot_.at(id);
        return {slot, slots_[slot].gen_base};
    }

    /** Scene content is keyed by slot frame, so a replacement stream
     *  continues exactly where the departed generation stopped. */
    Image
    sceneFor(u32 id, u64 frame)
    {
        const auto [slot, base] = slotOf(id);
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
        const auto [slot, base] = slotOf(id);
        if (!trace_.trace.empty()) {
            const auto &labels = trace_.trace[base % trace_.trace.size()];
            if (!labels.empty())
                return labels;
            return {RegionLabel{0, 0, width_, height_, 1, 1, 0}};
        }
        return syntheticLabels(slot);
    }

    void
    onFrame(fleet::StreamContext &s)
    {
        const u32 id = s.id();
        const u64 g =
            global_frames_.fetch_add(1, std::memory_order_relaxed) + 1;
        bool remove = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const u64 slot = id2slot_.at(id);
            SlotState &st = slots_[slot];
            ++st.gen_done;
            // Trace replay programs the *next* frame's labels. Safe
            // without per-stream locking: one frame per stream is in
            // flight and the sink runs before frame n+1 is resubmitted,
            // so nothing else touches this stream's runtime right now.
            if (!trace_.trace.empty() && st.gen_done < st.stop_at) {
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
        // A retired stream has no frame in flight, so its journal lines
        // and its ledger entry must agree exactly.
        const Journal journal = sink_->streamTotals(sr.label);
        std::vector<std::string> bad =
            ledgerViolations("retire@" + sr.label, journal,
                             journaled(sr.totals), journal, 0, 0);
        if (!bad.empty()) {
            {
                std::lock_guard<std::mutex> lock(check_mutex_);
                for (std::string &v : bad)
                    violations_.push_back(std::move(v));
            }
            aborted_.store(true, std::memory_order_relaxed);
            // Outside check_mutex_: drain() may retire more streams
            // through this hook.
            server_->drain();
        }
        i64 replace_slot = -1;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = id2slot_.find(sr.id);
            if (it != id2slot_.end()) {
                const u64 slot = it->second;
                id2slot_.erase(it);
                if (!aborted_.load(std::memory_order_relaxed) &&
                    slots_[slot].done() < budget_)
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
        // Journal, ledger, journal: accountFrame() journals a frame
        // before finishFrame() counts it in the ledger, so the later
        // journal read is >= the ledger on every field, and the earlier
        // one cannot count frames journaled after the ledger read.
        const Journal before = sink_->totals();
        const Ledger l = journaled(server_->totals());
        const Journal after = sink_->totals();
        SoakCheckpoint cp{g,
                          before.frames > l.frames ? before.frames - l.frames
                                                   : 0,
                          server_->activeStreams(),
                          statusKb("VmRSS:")};
        max_drift_ = std::max(max_drift_, cp.frames_drift);
        // At most one frame per live stream is journaled but not yet in
        // the ledger, and live streams never exceed `streams`.
        const u64 byte_cap =
            opts_.streams *
            (static_cast<u64>(width_) * static_cast<u64>(height_) * 4 +
             65536);
        for (std::string &v :
             ledgerViolations("checkpoint@" + std::to_string(g), before,
                              l, after, opts_.streams, byte_cap))
            violateLocked(std::move(v));
        cp.duration_us =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - t0)
                .count();
        check_us_.record(cp.duration_us);
        checkpoints_.push_back(cp);
    }

    void finalChecks(const fleet::FleetReport &rep, SoakResult &res);
    void buildBench(SoakResult &res) const;

    SoakOptions opts_;
    u64 budget_ = 0;
    i32 width_ = 0;
    i32 height_ = 0;
    TraceFile trace_; //!< no frames = synthetic labels
    fault::FaultPlan plan_;
    fault::FaultPlan stream_plan_; //!< per-generation reseeded copy

    obs::ObsContext obs_;
    std::unique_ptr<obs::TelemetrySink> sink_;
    std::unique_ptr<fleet::FleetServer> server_;

    std::mutex mutex_; //!< slots / id map / generation count
    std::vector<SlotState> slots_;
    std::unordered_map<u32, u64> id2slot_;
    u64 generations_ = 0;
    std::atomic<u64> global_frames_{0};
    std::atomic<bool> aborted_{false};

    std::mutex check_mutex_; //!< checkpoint + violation state
    std::vector<SoakCheckpoint> checkpoints_;
    obs::Histogram check_us_{obs::Histogram::defaultLatencyBoundsUs()};
    std::vector<std::string> violations_;
    u64 max_drift_ = 0;
};

SoakResult
SoakRunner::run()
{
    obs::TelemetrySink::Config sc;
    sc.keep_frames = 0; // totals only: a soak must not grow the ring
    sc.journal_path = opts_.journal_path;
    sink_ = std::make_unique<obs::TelemetrySink>(sc);

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
                           const PipelineFrameResult &) { onFrame(s); };
    fc.stream_retired = [this](const fleet::FleetStreamReport &sr) {
        onRetired(sr);
    };

    SoakResult res;
    res.frames_budget = budget_ * opts_.streams;
    res.rss_start_kb = statusKb("VmRSS:");

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
    const Journal j = sink_->totals();

    res.frames = j.frames;
    res.generations = generations_;
    res.shed_frames = rep.shed_frames;
    res.health_recoveries = rep.health_recoveries;
    res.watchdog_warns = rep.watchdog_warns;
    res.chaos_hits = rep.chaos_hits;
    res.checkpoints = checkpoints_.size();
    res.max_frames_drift = max_drift_;

    // The run has quiesced: journal and ledger agree exactly.
    const Ledger l = journaled(server_->totals());
    for (std::string &v : ledgerViolations("final", j, l, j, 0, 0))
        violations_.push_back(std::move(v));
    res.final_frames_drift = absDiff(j.frames, l.frames);
    res.final_bytes_drift = static_cast<i64>(
        absDiff(j.bytes_written, l.bytes_written) +
        absDiff(j.bytes_read, l.bytes_read) +
        absDiff(j.metadata_bytes, l.metadata_bytes));
    if (rep.errors != 0)
        violations_.push_back("final: fleet errors mismatch (" +
                              std::to_string(rep.errors) + " != 0)");

    if (!aborted_.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> slots_lock(mutex_);
        for (size_t s = 0; s < slots_.size(); ++s)
            if (slots_[s].done() != budget_) {
                std::ostringstream os;
                os << "final: slot " << s << " ran " << slots_[s].done()
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
            if (sample.name.ends_with(".drops"))
                res.fault_drops += v;
            else if (sample.name.ends_with(".bytes_corrupted"))
                res.fault_byte_errors += v;
            else if (sample.name.ends_with(".stalls"))
                res.fault_stalls += v;
        } else if (sample.name == "degrade.escalations") {
            res.degrade_escalations = v;
        } else if (sample.name == "degrade.recoveries") {
            res.degrade_recoveries = v;
        }
    }

    // VmHWM is the high-water mark of every VmRSS sample taken.
    res.rss_peak_kb = statusKb("VmHWM:");
    res.checkpoint_p50_us = check_us_.quantile(0.5);
    res.checkpoint_p99_us = check_us_.quantile(0.99);
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
    const auto model = [&](const char *name, double v, const char *unit,
                           const char *dir) {
        b.setMetric(name, v, unit, dir, "model");
    };
    const auto wall = [&](const char *name, double v, const char *unit,
                          const char *dir) {
        b.setMetric(name, v, unit, dir, "wall");
    };
    const fleet::FleetReport &f = res.fleet;
    model("soak.frames", res.frames, "frames", "higher");
    model("soak.generations", res.generations, "count", "higher");
    model("soak.errors", f.errors, "count", "lower");
    model("soak.frames_drift", res.final_frames_drift, "frames", "lower");
    model("soak.quarantined", f.quarantined, "frames", "lower");
    model("soak.deadline_misses", f.deadline_misses, "count", "lower");
    model("soak.transient_faults", f.transient_faults, "count", "lower");
    model("soak.bytes_written", f.bytes_written, "bytes", "lower");
    if (opts_.chaos) {
        // Emitted only in chaos mode so the baseline soak trend schema
        // is unchanged.
        model("soak.shed_frames", res.shed_frames, "frames", "lower");
        model("soak.health_recoveries", res.health_recoveries, "count",
              "higher");
        wall("soak.watchdog_warns", res.watchdog_warns, "count", "lower");
        wall("soak.chaos_hits", res.chaos_hits, "count", "higher");
    }
    wall("soak.wall_seconds", f.wall_seconds, "s", "lower");
    wall("soak.frames_per_second", f.frames_per_second, "fps", "higher");
    wall("soak.checkpoint_p99_us", res.checkpoint_p99_us, "us", "lower");
    wall("soak.rss_peak_kb", res.rss_peak_kb, "kB", "lower");
    res.bench = b;
}

} // namespace

SoakResult
runSoak(const SoakOptions &options)
{
    SoakRunner runner(options);
    return runner.run();
}

std::string
toJson(const SoakResult &result)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"rpx-soak-report-v1\",\n";
    os << "  \"ok\": " << (result.ok ? "true" : "false") << ",\n";
    const std::pair<const char *, u64> counts[] = {
        {"frames", result.frames},
        {"frames_budget", result.frames_budget},
        {"generations", result.generations},
        {"checkpoints", result.checkpoints},
        {"max_frames_drift", result.max_frames_drift},
        {"final_frames_drift", result.final_frames_drift},
        {"final_bytes_drift", static_cast<u64>(result.final_bytes_drift)},
        {"fault_drops", result.fault_drops},
        {"fault_byte_errors", result.fault_byte_errors},
        {"fault_stalls", result.fault_stalls},
        {"degrade_escalations", result.degrade_escalations},
        {"degrade_recoveries", result.degrade_recoveries},
        {"shed_frames", result.shed_frames},
        {"health_recoveries", result.health_recoveries},
        {"watchdog_warns", result.watchdog_warns},
        {"chaos_hits", result.chaos_hits},
        {"rss_start_kb", result.rss_start_kb},
        {"rss_peak_kb", result.rss_peak_kb},
    };
    for (const auto &[key, value] : counts)
        os << "  \"" << key << "\": " << value << ",\n";
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
