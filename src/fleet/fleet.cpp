#include "fleet/fleet.hpp"

#include <algorithm>
#include <future>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"

namespace rpx::fleet {

namespace {

u32
resolveMaxStreams(const FleetConfig &c)
{
    return c.max_streams ? c.max_streams : c.streams + 64;
}

u32
resolveWorkers(u32 configured, u32 engines)
{
    return configured ? configured : engines;
}

/**
 * Pop a stage worker's next task. Under a watchdog the pop is timed so
 * every pass bumps the stage heartbeat — a wedged peer cannot make this
 * worker look dead too. Guard-off keeps the plain blocking pop (seed
 * behavior, zero extra wakeups). Either way a nullopt means the queue is
 * closed and drained.
 */
std::optional<FrameTask>
popTask(StageQueue &q, std::atomic<u64> &beat,
        const guard::WatchdogConfig &wd)
{
    if (!wd.enabled)
        return q.pop();
    const auto every = std::chrono::microseconds(wd.interval_ms * u64{1000});
    for (;;) {
        std::optional<FrameTask> t = q.popFor(every);
        beat.fetch_add(1, std::memory_order_relaxed);
        if (t || (q.closed() && q.size() == 0))
            return t;
    }
}

} // namespace

FleetServer::FleetServer(const FleetConfig &config)
    : config_(config), obs_(std::make_unique<PipelineObs>(config.stream.obs)),
      capture_q_(StageQueue::Order::Fifo, resolveMaxStreams(config)),
      encode_q_(StageQueue::Order::Edf, resolveMaxStreams(config)),
      store_q_(StageQueue::Order::Fifo, resolveMaxStreams(config)),
      decode_q_(StageQueue::Order::Edf, resolveMaxStreams(config)),
      encode_engines_(config.encode_engines, "encode"),
      decode_engines_(config.decode_engines, "decode"),
      vision_(config.frame_sink),
      latency_(obs::Histogram::defaultLatencyBoundsUs())
{
    if (config_.frames_per_stream < 1)
        throwInvalid("fleet needs frames_per_stream >= 1");
    if (config_.capture_workers < 1)
        throwInvalid("fleet needs at least one capture worker");
    if (config_.store_batch_max < 1)
        throwInvalid("fleet store_batch_max must be >= 1");
    if (config_.use_deadlines && config_.stream.fps <= 0.0)
        throwInvalid("fleet deadlines need a positive stream fps");
    if (config_.streams > resolveMaxStreams(config_))
        throwInvalid("fleet streams exceed max_streams");
    if (config_.chaos.any())
        chaos_ = std::make_unique<fault::ChaosInjector>(config_.chaos);

    std::lock_guard<std::mutex> lock(mutex_);
    for (u32 i = 0; i < config_.streams; ++i)
        addStreamLocked();
}

FleetServer::~FleetServer() = default;

u32
FleetServer::addStreamLocked()
{
    const u32 id = next_id_++;
    PipelineConfig pc = config_.stream;
    // Built in two steps: GCC 12's -Wrestrict misfires on the one-line
    // "s" + to_string concatenation when inlined here (PR105651).
    pc.stream_label.assign(1, 's');
    pc.stream_label += std::to_string(id);
    if (config_.configure)
        config_.configure(id, pc);

    StreamEntry entry;
    entry.ctx = std::make_unique<StreamContext>(
        pc, obs_.get(), /*force_degradation=*/config_.use_deadlines);
    entry.ctx->setId(id);
    entry.label = pc.stream_label;
    entry.target = config_.frames_per_stream;
    entry.period_us = pc.fps > 0.0 ? 1e6 / pc.fps : 0.0;
    entry.epoch = std::chrono::steady_clock::now();

    std::vector<RegionLabel> labels;
    if (config_.label_source) {
        labels = config_.label_source(id);
    } else {
        RegionLabel full;
        full.x = 0;
        full.y = 0;
        full.w = pc.width;
        full.h = pc.height;
        labels.push_back(full);
    }
    entry.ctx->runtime().setRegionLabels(labels);

    streams_.emplace(id, std::move(entry));
    ++live_;
    return id;
}

guard::AdmissionResult
FleetServer::admitLocked() const
{
    guard::AdmissionResult res;
    if (capture_q_.closed()) {
        res.outcome = guard::AdmissionOutcome::RejectedDrained;
        res.reason = "fleet has already drained; cannot add streams";
        return res;
    }
    if (live_ >= resolveMaxStreams(config_)) {
        res.outcome = guard::AdmissionOutcome::RejectedHardCap;
        std::ostringstream os;
        os << "fleet is at max_streams (" << resolveMaxStreams(config_)
           << ")";
        res.reason = os.str();
        return res;
    }
    const guard::AdmissionConfig &ac = config_.guard.admission;
    if (ac.policy == guard::AdmissionPolicy::CapacityModel &&
        config_.stream.fps > 0.0) {
        // Projected demand of every live stream plus the candidate vs
        // the engine pool's modelled throughput. The per-frame cost is
        // configured or derived from the live EWMA of measured encode
        // engine-hold time; until the EWMA warms up we admit (cold-start
        // grace — rejecting on zero data would deadlock an idle fleet).
        const double cost_us = ac.frame_cost_us > 0.0
                                   ? ac.frame_cost_us
                                   : encode_hold_ewma_us_;
        if (cost_us > 0.0) {
            res.capacity_fps = static_cast<double>(config_.encode_engines) *
                               (1e6 / cost_us) * ac.headroom;
            res.demand_fps =
                static_cast<double>(live_ + 1) * config_.stream.fps;
            if (res.demand_fps > res.capacity_fps) {
                res.outcome = guard::AdmissionOutcome::RejectedCapacity;
                std::ostringstream os;
                os << "admission rejected: demand "
                   << static_cast<u64>(res.demand_fps)
                   << " frames/s exceeds capacity "
                   << static_cast<u64>(res.capacity_fps)
                   << " frames/s (" << config_.encode_engines
                   << " engines x " << static_cast<u64>(cost_us)
                   << " us/frame, headroom " << ac.headroom << ")";
                res.reason = os.str();
                return res;
            }
        }
    }
    return res; // admitted
}

u32
FleetServer::addStream()
{
    const guard::AdmissionResult res = tryAddStream();
    if (!res.admitted())
        throwRuntime(res.reason);
    return res.id;
}

guard::AdmissionResult
FleetServer::tryAddStream()
{
    // One critical section: creation and (mid-run) seeding must be
    // atomic, or run()'s start-up seeding loop can race this and submit
    // the same stream's first frame twice.
    std::lock_guard<std::mutex> lock(mutex_);
    guard::AdmissionResult res = admitLocked();
    if (!res.admitted()) {
        ++admission_rejects_;
        return res;
    }
    res.id = addStreamLocked();
    if (running_)
        // Joined mid-run: its first frame enters the graph immediately.
        seedStream(streams_.at(res.id), res.id);
    return res;
}

FleetStreamReport
FleetServer::streamReportLocked(u32 id, const StreamEntry &entry) const
{
    FleetStreamReport sr;
    sr.id = id;
    sr.label = entry.label;
    const FrameTotals &t = entry.totals;
    sr.totals = t;
    sr.degradation_level = entry.degradation_level;
    sr.completed = t.frames >= entry.target;
    sr.health = entry.health.state();
    sr.health_transitions = entry.health.transitions();
    sr.health_recoveries = entry.health.recoveries();
    sr.watchdog_warns = entry.watchdog_warns;
    sr.evicted = entry.evicted;
    return sr;
}

FrameTotals
FleetServer::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return totalsLocked();
}

FrameTotals
FleetServer::totalsLocked() const
{
    FrameTotals sum;
    for (const auto &[id, entry] : streams_) {
        const FrameTotals &t = entry.totals;
        sum.frames += t.frames;
        sum.errors += t.errors;
        sum.deadline_misses += t.deadline_misses;
        sum.quarantined += t.quarantined;
        sum.shed_frames += t.shed_frames;
        sum.transient_faults += t.transient_faults;
        sum.dma_retries += t.dma_retries;
        sum.dma_dropped_bursts += t.dma_dropped_bursts;
        sum.bytes_written += t.bytes_written;
        sum.bytes_read += t.bytes_read;
        sum.metadata_bytes += t.metadata_bytes;
    }
    // Under churn, which stream gets which id depends on timing; adding
    // the per-stream sums in value order instead of id order makes the
    // floating-point totals reproducible.
    std::vector<double> v;
    v.reserve(streams_.size());
    const auto orderedSum = [&](double FrameTotals::*field) {
        v.clear();
        for (const auto &[id, entry] : streams_)
            v.push_back(entry.totals.*field);
        std::sort(v.begin(), v.end());
        return std::accumulate(v.begin(), v.end(), 0.0);
    };
    sum.kept_sum = orderedSum(&FrameTotals::kept_sum);
    sum.energy_sense_nj = orderedSum(&FrameTotals::energy_sense_nj);
    sum.energy_csi_nj = orderedSum(&FrameTotals::energy_csi_nj);
    sum.energy_dram_nj = orderedSum(&FrameTotals::energy_dram_nj);
    return sum;
}

FleetStreamReport
FleetServer::retireLocked(u32 id, StreamEntry &entry)
{
    entry.finished = true;
    entry.active = false;
    --live_;
    // Release everything the stream owned (sensor models, framebuffer
    // ring, software-decoder pools). Without this, long join/leave churn
    // accumulates one dead StreamContext per departed stream — the
    // unbounded-memory shape the soak harness exists to catch. The
    // entry itself (counters + label) stays for the final report.
    entry.ctx.reset();
    return streamReportLocked(id, entry);
}

bool
FleetServer::removeStream(u32 id)
{
    bool retired = false;
    FleetStreamReport sr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = streams_.find(id);
        if (it == streams_.end() || it->second.finished ||
            !it->second.active)
            return false;
        it->second.active = false;
        if (!it->second.seeded) {
            // No frame in flight: the stream leaves the fleet right
            // away. (Mid-run, every unfinished stream is seeded, so
            // this is the pre-run path.)
            sr = retireLocked(id, it->second);
            retired = true;
        }
        // During a run the in-flight frame completes and the stream
        // retires at its completion accounting, after that last frame
        // has landed in journal totals.
    }
    if (retired && config_.stream_retired)
        config_.stream_retired(sr);
    return true;
}

void
FleetServer::drain()
{
    std::vector<FleetStreamReport> retired;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &[id, entry] : streams_) {
            if (entry.finished)
                continue;
            entry.active = false;
            if (!entry.seeded)
                retired.push_back(retireLocked(id, entry));
        }
    }
    // Seeded streams retire through their in-flight frame's completion;
    // the last one out closes the capture queue and run() returns.
    if (config_.stream_retired)
        for (const FleetStreamReport &sr : retired)
            config_.stream_retired(sr);
}

StreamContext *
FleetServer::stream(u32 id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = streams_.find(id);
    return it == streams_.end() ? nullptr : it->second.ctx.get();
}

u32
FleetServer::activeStreams() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return live_;
}

FrameTask
FleetServer::makeTask(StreamEntry &entry, u32 id, u64 frame)
{
    FrameTask task;
    task.stream = entry.ctx.get();
    task.scene = config_.scene_source(id, frame);
    if (config_.use_deadlines) {
        task.has_deadline = true;
        task.deadline =
            entry.epoch +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::micro>(
                    static_cast<double>(frame + 1) * entry.period_us));
    }
    return task;
}

void
FleetServer::seedStream(StreamEntry &entry, u32 id)
{
    // Caller holds mutex_, under which admission found the capture queue
    // open; it closes only under mutex_ too (closeIfDrainedLocked).
    entry.seeded = true;
    entry.inflight_since = std::chrono::steady_clock::now();
    FrameTask task = makeTask(entry, id, entry.totals.frames);
    capture_q_.push(std::move(task));
}

template <typename Stage>
bool
FleetServer::runStage(const Stage &stage, FrameTask &task)
{
    try {
        stage.run(task);
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

void
FleetServer::countFrameLocked(StreamEntry &entry,
                              const PipelineFrameResult &r, bool errored)
{
    entry.totals.add(r, errored);
    guard::HealthSignal sig;
    if (errored) {
        sig.decode_quarantined = true; // errors count as dirty frames
    } else {
        sig.decode_quarantined = r.quarantined;
        sig.shed = r.shed;
        sig.deadline_missed = r.deadline_missed;
        sig.degradation_level = static_cast<u32>(
            r.degradation_level < 0 ? 0 : r.degradation_level);
        entry.degradation_level = r.degradation_level;
    }
    entry.health.onFrame(sig);
}

void
FleetServer::finishFrame(FrameTask &task, bool errored)
{
    latency_.record(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - task.start)
                        .count());

    const u32 id = task.stream->id();
    StreamEntry *entry = nullptr;
    bool resubmit = false;
    FleetStreamReport retired_report;
    u64 next = 0;
    // Retire under mutex_. A running stream_retired hook may still add a
    // replacement, so the fleet closes only when no stream is live and no
    // hook is running; otherwise the last hook out closes it.
    const auto retire = [&] {
        retired_report = retireLocked(id, *entry);
        if (config_.stream_retired)
            ++retire_hooks_running_;
        closeIfDrainedLocked();
    };
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entry = &streams_.at(id);
        countFrameLocked(*entry, task.result, errored);
        // Fold the measured engine-hold time into the admission cost
        // EWMA (shed/errored frames never held an engine; skip them).
        if (task.encode_hold_us > 0.0)
            encode_hold_ewma_us_ =
                encode_hold_ewma_us_ == 0.0
                    ? task.encode_hold_us
                    : 0.9 * encode_hold_ewma_us_ +
                          0.1 * task.encode_hold_us;
        resubmit = entry->active && entry->totals.frames < entry->target;
        if (resubmit) {
            next = entry->totals.frames;
            entry->inflight_since = std::chrono::steady_clock::now();
            entry->wd_warned = false;
            entry->wd_quarantined = false;
        } else {
            retire();
        }
    }

    if (resubmit) {
        // The stream is still live, so the capture queue is open.
        std::optional<FrameTask> next_task;
        try {
            next_task = makeTask(*entry, id, next);
        } catch (const std::exception &) {
            // Scene source failed: frame n+1 is one errored frame, and
            // the stream retires with it.
            std::lock_guard<std::mutex> lock(mutex_);
            countFrameLocked(*entry, PipelineFrameResult{}, true);
            retire();
        }
        if (next_task) {
            capture_q_.push(std::move(*next_task));
            return;
        }
    }
    if (config_.stream_retired) {
        // Outside the lock: the hook may call addStream() to replace the
        // departed stream.
        config_.stream_retired(retired_report);
        std::lock_guard<std::mutex> lock(mutex_);
        --retire_hooks_running_;
        closeIfDrainedLocked();
    }
}

void
FleetServer::closeIfDrainedLocked()
{
    // Closing in the critical section that finds the fleet empty keeps
    // it atomic with admission: admitLocked() checks closed() under
    // mutex_, so no stream is admitted into a queue about to close.
    if (live_ == 0 && retire_hooks_running_ == 0)
        capture_q_.close();
}

bool
FleetServer::pastShedDeadline(const FrameTask &task) const
{
    const guard::ShedConfig &sc = config_.guard.shed;
    if (!sc.enabled || !task.has_deadline)
        return false;
    const auto slack =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(sc.slack_ms));
    return std::chrono::steady_clock::now() > task.deadline + slack;
}

void
FleetServer::shedFrame(FrameTask &task, bool stored)
{
    // The result still carries a frame — the hold-last-good image the
    // decoder's quarantine verdicts serve — so a shed is a freshness
    // loss in the accounting, not a hole. (The vision sink itself only
    // sees decoded frames; shed is its own first-class outcome.)
    holdLastGood(task);
    accountFrame(task, /*decoded=*/false, stored);
}

void
FleetServer::captureLoop()
{
    const guard::WatchdogConfig &wd = config_.guard.watchdog;
    while (std::optional<FrameTask> t =
               popTask(capture_q_, beat_capture_, wd)) {
        FrameTask &task = *t;
        if (chaos_)
            chaos_->perturb(fault::ChaosSite::CaptureJitter,
                            task.stream->id(),
                            static_cast<u64>(task.stream->frameIndex()));
        if (!runStage(capture_, task)) {
            finishFrame(task, true);
            continue;
        }
        encode_q_.push(std::move(task));
    }
    if (capture_alive_.fetch_sub(1) == 1)
        encode_q_.close();
}

void
FleetServer::encodeLoop()
{
    const guard::WatchdogConfig &wd = config_.guard.watchdog;
    while (std::optional<FrameTask> t =
               popTask(encode_q_, beat_encode_, wd)) {
        FrameTask &task = *t;
        // Load shedding happens *before* the engine lease: a frame the
        // fault plan sheds (deterministic Stage::Shed verdict) or one
        // already past deadline + slack cannot be saved by encoding it,
        // so the engine time goes to a frame that can still make it.
        // The Shed draw is consulted whenever an injector is present;
        // at drop_rate 0 it consumes no randomness (baseline-safe).
        fault::FaultInjector *inj = task.stream->injector();
        const bool injected_shed =
            inj && inj->dropEvent(fault::Stage::Shed);
        if (injected_shed || pastShedDeadline(task)) {
            shedFrame(task, /*stored=*/false);
            finishFrame(task, false);
            continue;
        }
        if (chaos_)
            chaos_->perturb(fault::ChaosSite::SlowLease,
                            task.stream->id(),
                            static_cast<u64>(task.index));
        bool ok;
        {
            EnginePool::Lease lease = encode_engines_.acquire();
            const auto hold_start = std::chrono::steady_clock::now();
            ok = runStage(encode_, task);
            task.encode_hold_us =
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - hold_start)
                    .count();
        }
        if (!ok) {
            finishFrame(task, true);
            continue;
        }
        store_q_.push(std::move(task));
    }
    if (encode_alive_.fetch_sub(1) == 1)
        store_q_.close();
}

void
FleetServer::storeLoop()
{
    // Batched DRAM/DMA submission: drain whatever is queued (up to
    // store_batch_max frames) and commit the burst back-to-back, the way
    // a DMA engine chains descriptors across streams.
    const guard::WatchdogConfig &wd = config_.guard.watchdog;
    while (std::optional<FrameTask> first =
               popTask(store_q_, beat_store_, wd)) {
        std::vector<FrameTask> batch;
        batch.push_back(std::move(*first));
        while (batch.size() <
               static_cast<size_t>(config_.store_batch_max)) {
            auto more = store_q_.tryPop();
            if (!more)
                break;
            batch.push_back(std::move(*more));
        }
        ++store_batches_;
        store_batch_frames_ += batch.size();
        max_store_batch_ =
            std::max<u64>(max_store_batch_, batch.size());
        if (chaos_)
            // Queue-saturation burst: the store path stalls while frames
            // pile up behind it, back-pressuring encode.
            chaos_->perturb(fault::ChaosSite::QueueBurst,
                            batch.front().stream->id(),
                            static_cast<u64>(batch.front().index));
        for (FrameTask &task : batch) {
            if (!runStage(store_, task)) {
                finishFrame(task, true);
                continue;
            }
            decode_q_.push(std::move(task));
        }
    }
    decode_q_.close();
}

void
FleetServer::decodeLoop()
{
    const guard::WatchdogConfig &wd = config_.guard.watchdog;
    while (std::optional<FrameTask> t =
               popTask(decode_q_, beat_decode_, wd)) {
        FrameTask &task = *t;
        // Second shed point: the frame is stored (write-side traffic
        // paid), but a hopeless frame still should not burn a decode
        // engine lease.
        if (pastShedDeadline(task)) {
            shedFrame(task, /*stored=*/true);
            finishFrame(task, false);
            continue;
        }
        if (chaos_)
            chaos_->perturb(fault::ChaosSite::WorkerStall,
                            task.stream->id(),
                            static_cast<u64>(task.index));
        bool ok;
        {
            EnginePool::Lease lease = decode_engines_.acquire();
            ok = runStage(decode_, task);
        }
        if (ok && vision_.attached())
            (void)runStage(vision_, task);
        finishFrame(task, !ok);
    }
    decode_alive_.fetch_sub(1);
}

void
FleetServer::watchdogLoop()
{
    const guard::WatchdogConfig &wd = config_.guard.watchdog;
    u64 last_beats[4] = {0, 0, 0, 0};
    // The monitor outlives the stage workers by at most one interval:
    // once the last decode worker leaves, the fleet is drained.
    while (decode_alive_.load(std::memory_order_acquire) > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(wd.interval_ms));
        const auto now = std::chrono::steady_clock::now();

        // Stuck-worker heartbeats: a stage with queued work whose beats
        // did not advance across a full interval draws a warning (warn
        // only — stream-level escalation below owns the verdicts).
        const u64 beats[4] = {
            beat_capture_.load(std::memory_order_relaxed),
            beat_encode_.load(std::memory_order_relaxed),
            beat_store_.load(std::memory_order_relaxed),
            beat_decode_.load(std::memory_order_relaxed)};
        const size_t depths[4] = {capture_q_.size(), encode_q_.size(),
                                  store_q_.size(), decode_q_.size()};
        u64 stage_warns = 0;
        for (int i = 0; i < 4; ++i) {
            if (depths[i] > 0 && beats[i] == last_beats[i])
                ++stage_warns;
            last_beats[i] = beats[i];
        }

        std::lock_guard<std::mutex> lock(mutex_);
        watchdog_warns_ += stage_warns;
        for (auto &[id, entry] : streams_) {
            if (entry.finished || !entry.seeded || !entry.active)
                continue;
            const double age_ms =
                std::chrono::duration<double, std::milli>(
                    now - entry.inflight_since)
                    .count();
            if (age_ms > wd.evict_ms) {
                // Evict: the stream stops being scheduled. Its wedged
                // in-flight frame still completes eventually and retires
                // the stream through the normal accounting path, so the
                // conservation invariant stays exact — an evicted
                // stream's frames are all accounted, never lost.
                entry.evicted = true;
                entry.active = false;
                entry.health.evict();
                ++watchdog_evictions_;
            } else if (age_ms > wd.quarantine_ms) {
                if (!entry.wd_quarantined) {
                    entry.wd_quarantined = true;
                    ++watchdog_quarantines_;
                }
            } else if (age_ms > wd.warn_ms) {
                if (!entry.wd_warned) {
                    entry.wd_warned = true;
                    ++entry.watchdog_warns;
                    ++watchdog_warns_;
                }
            }
        }
    }
}

FleetReport
FleetServer::run()
{
    if (!config_.scene_source)
        throwInvalid("fleet needs a scene_source");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (ran_)
            throwRuntime("FleetServer::run() may only be called once");
        ran_ = true;
        running_ = true;
    }

    const auto start = std::chrono::steady_clock::now();
    const u32 cw = config_.capture_workers;
    const u32 ew =
        resolveWorkers(config_.encode_workers, config_.encode_engines);
    const u32 dw =
        resolveWorkers(config_.decode_workers, config_.decode_engines);
    capture_alive_.store(static_cast<int>(cw));
    encode_alive_.store(static_cast<int>(ew));
    decode_alive_.store(static_cast<int>(dw));

    const bool watchdog = config_.guard.watchdog.enabled;
    {
        // One thread per stage loop. The futures join their threads when
        // destroyed, and get() rethrows a loop's exception.
        std::vector<std::future<void>> workers;
        const auto start_loop = [&](void (FleetServer::*loop)()) {
            workers.push_back(std::async(std::launch::async, loop, this));
        };
        for (u32 i = 0; i < cw; ++i)
            start_loop(&FleetServer::captureLoop);
        for (u32 i = 0; i < ew; ++i)
            start_loop(&FleetServer::encodeLoop);
        start_loop(&FleetServer::storeLoop);
        for (u32 i = 0; i < dw; ++i)
            start_loop(&FleetServer::decodeLoop);
        if (watchdog)
            start_loop(&FleetServer::watchdogLoop);

        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (auto &[id, entry] : streams_) {
                // Skip streams already gone and streams a concurrent
                // addStream() seeded since running_ flipped true.
                if (entry.finished || entry.seeded)
                    continue;
                entry.epoch = start;
                seedStream(entry, id);
            }
            // Live streams are all in flight now; closure is theirs to
            // cascade. Only a completely empty fleet closes here.
            closeIfDrainedLocked();
        }

        for (auto &f : workers)
            f.get();
    }
    const auto end = std::chrono::steady_clock::now();

    std::lock_guard<std::mutex> lock(mutex_);
    running_ = false;

    FleetReport rep;
    static_cast<FrameTotals &>(rep) = totalsLocked();
    obs_->publish(rep);
    rep.streams_started = static_cast<u32>(streams_.size());
    const u64 ok_frames = rep.frames - rep.errors;
    rep.kept_fraction_mean =
        ok_frames ? rep.kept_sum / static_cast<double>(ok_frames) : 0.0;
    for (const auto &[id, entry] : streams_) {
        FleetStreamReport sr = streamReportLocked(id, entry);
        if (sr.completed)
            ++rep.streams_completed;
        rep.health_transitions += sr.health_transitions;
        rep.health_recoveries += sr.health_recoveries;
        rep.streams.push_back(std::move(sr));
    }
    rep.wall_seconds =
        std::chrono::duration<double>(end - start).count();
    rep.frames_per_second =
        rep.wall_seconds > 0.0
            ? static_cast<double>(rep.frames) / rep.wall_seconds
            : 0.0;
    rep.latency_p50_us = latency_.quantile(0.5);
    rep.latency_p99_us = latency_.quantile(0.99);
    rep.latency_p999_us = latency_.quantile(0.999);
    rep.store_batches = store_batches_;
    rep.max_store_batch = max_store_batch_;
    rep.mean_store_batch =
        store_batches_ ? static_cast<double>(store_batch_frames_) /
                             static_cast<double>(store_batches_)
                       : 0.0;
    rep.encode_engines = encode_engines_.stats();
    rep.decode_engines = decode_engines_.stats();
    rep.capture_queue = capture_q_.stats();
    rep.store_queue = store_q_.stats();
    rep.encode_queue = encode_q_.stats();
    rep.decode_queue = decode_q_.stats();
    rep.admission_rejects = admission_rejects_;
    rep.watchdog_warns = watchdog_warns_;
    rep.watchdog_quarantines = watchdog_quarantines_;
    rep.watchdog_evictions = watchdog_evictions_;
    if (chaos_) {
        rep.chaos_hits = chaos_->totalHits();
        rep.chaos_slept_us = chaos_->totalSleptUs();
    }
    return rep;
}

std::string
toJson(const FleetReport &r)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"rpx-fleet-report-v1\",\n"
       << "  \"streams_started\": " << r.streams_started << ",\n"
       << "  \"streams_completed\": " << r.streams_completed << ",\n"
       << "  \"frames\": " << r.frames << ",\n"
       << "  \"errors\": " << r.errors << ",\n"
       << "  \"deadline_misses\": " << r.deadline_misses << ",\n"
       << "  \"quarantined\": " << r.quarantined << ",\n"
       << "  \"shed_frames\": " << r.shed_frames << ",\n"
       << "  \"transient_faults\": " << r.transient_faults << ",\n"
       << "  \"dma_retries\": " << r.dma_retries << ",\n"
       << "  \"dma_dropped_bursts\": " << r.dma_dropped_bursts << ",\n"
       << "  \"bytes_written\": " << r.bytes_written << ",\n"
       << "  \"bytes_read\": " << r.bytes_read << ",\n"
       << "  \"metadata_bytes\": " << r.metadata_bytes << ",\n"
       << "  \"kept_fraction_mean\": " << json::number(r.kept_fraction_mean)
       << ",\n"
       << "  \"wall_seconds\": " << json::number(r.wall_seconds) << ",\n"
       << "  \"frames_per_second\": " << json::number(r.frames_per_second)
       << ",\n"
       << "  \"latency_us\": {\"p50\": " << json::number(r.latency_p50_us)
       << ", \"p99\": " << json::number(r.latency_p99_us)
       << ", \"p999\": " << json::number(r.latency_p999_us) << "},\n"
       << "  \"store_batches\": " << r.store_batches << ",\n"
       << "  \"max_store_batch\": " << r.max_store_batch << ",\n"
       << "  \"mean_store_batch\": " << json::number(r.mean_store_batch)
       << ",\n"
       << "  \"engines\": {\n"
       << "    \"encode\": {\"acquisitions\": "
       << r.encode_engines.acquisitions
       << ", \"waits\": " << r.encode_engines.waits
       << ", \"max_in_use\": " << r.encode_engines.max_in_use << "},\n"
       << "    \"decode\": {\"acquisitions\": "
       << r.decode_engines.acquisitions
       << ", \"waits\": " << r.decode_engines.waits
       << ", \"max_in_use\": " << r.decode_engines.max_in_use << "}\n"
       << "  },\n"
       << "  \"queues\": {\n"
       << "    \"capture\": {\"pushes\": " << r.capture_queue.pushes
       << ", \"pops\": " << r.capture_queue.pops
       << ", \"high_water\": " << r.capture_queue.high_water << "},\n"
       << "    \"encode\": {\"pushes\": " << r.encode_queue.pushes
       << ", \"pops\": " << r.encode_queue.pops
       << ", \"high_water\": " << r.encode_queue.high_water << "},\n"
       << "    \"store\": {\"pushes\": " << r.store_queue.pushes
       << ", \"pops\": " << r.store_queue.pops
       << ", \"high_water\": " << r.store_queue.high_water << "},\n"
       << "    \"decode\": {\"pushes\": " << r.decode_queue.pushes
       << ", \"pops\": " << r.decode_queue.pops
       << ", \"high_water\": " << r.decode_queue.high_water << "}\n"
       << "  },\n"
       << "  \"streams\": [";
    for (size_t i = 0; i < r.streams.size(); ++i) {
        const FleetStreamReport &s = r.streams[i];
        os << (i ? "," : "") << "\n    {\"id\": " << s.id
           << ", \"label\": \"" << json::escape(s.label) << "\""
           << ", \"frames\": " << s.totals.frames
           << ", \"deadline_misses\": " << s.totals.deadline_misses
           << ", \"quarantined\": " << s.totals.quarantined
           << ", \"shed\": " << s.totals.shed_frames
           << ", \"dma_retries\": " << s.totals.dma_retries
           << ", \"dma_dropped_bursts\": " << s.totals.dma_dropped_bursts
           << ", \"errors\": " << s.totals.errors
           << ", \"degradation_level\": " << s.degradation_level
           << ", \"health\": \""
           << guard::healthStateName(s.health) << "\""
           << ", \"health_transitions\": " << s.health_transitions
           << ", \"health_recoveries\": " << s.health_recoveries
           << ", \"evicted\": " << (s.evicted ? "true" : "false")
           << ", \"completed\": " << (s.completed ? "true" : "false")
           << "}";
    }
    os << "\n  ],\n"
       << "  \"guard\": {\n"
       << "    \"admission_rejects\": " << r.admission_rejects << ",\n"
       << "    \"watchdog_warns\": " << r.watchdog_warns << ",\n"
       << "    \"watchdog_quarantines\": " << r.watchdog_quarantines
       << ",\n"
       << "    \"watchdog_evictions\": " << r.watchdog_evictions << ",\n"
       << "    \"health_transitions\": " << r.health_transitions << ",\n"
       << "    \"health_recoveries\": " << r.health_recoveries << ",\n"
       << "    \"chaos\": {\"hits\": " << r.chaos_hits
       << ", \"slept_us\": " << r.chaos_slept_us << "}\n"
       << "  }\n}\n";
    return os.str();
}

} // namespace rpx::fleet
