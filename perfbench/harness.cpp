#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/crc32.hpp"
#include "common/json.hpp"

namespace perfbench {

namespace {

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v;
    return os.str();
}

/** SplitMix64: a cheap, well-mixed hash for seeded pixel noise. */
u64
mix(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Paint `channels` interleaved channels of scene (seed, index). */
void
paintScene(u64 seed, u64 index, i32 w, i32 h, int channels, rpx::u8 *out)
{
    // A handful of rectangles that drift with the frame index, over a
    // diagonal gradient; every pixel then gets a few levels of noise.
    struct Box {
        i32 x, y, bw, bh;
        int level[3];
    };
    std::vector<Box> boxes;
    u64 s = mix(seed * 0x100000001b3ULL);
    for (int i = 0; i < 12; ++i) {
        Box b;
        s = mix(s);
        b.bw = static_cast<i32>(w / 16 + s % static_cast<u64>(w / 4));
        s = mix(s);
        b.bh = static_cast<i32>(h / 16 + s % static_cast<u64>(h / 4));
        s = mix(s);
        const i32 x0 = static_cast<i32>(s % static_cast<u64>(w));
        s = mix(s);
        const i32 y0 = static_cast<i32>(s % static_cast<u64>(h));
        b.x = static_cast<i32>((x0 + static_cast<i64>(index) * (i + 1)) % w);
        b.y = static_cast<i32>((y0 + static_cast<i64>(index) * (i % 3)) % h);
        for (int c = 0; c < 3; ++c) {
            s = mix(s);
            b.level[c] = static_cast<int>(s % 256);
        }
        boxes.push_back(b);
    }
    const u64 noise_base = mix(seed ^ mix(index + 1));
    for (i32 y = 0; y < h; ++y) {
        rpx::u8 *row = out + static_cast<size_t>(y) * w * channels;
        for (i32 x = 0; x < w; ++x) {
            int v[3];
            for (int c = 0; c < 3; ++c)
                v[c] = ((x * 255) / w + (y * 255) / h + c * 40) / 2;
            for (const Box &b : boxes)
                if (x >= b.x && x < b.x + b.bw && y >= b.y &&
                    y < b.y + b.bh)
                    for (int c = 0; c < 3; ++c)
                        v[c] = b.level[c];
            const u64 n =
                mix(noise_base + static_cast<u64>(y) * w + x) % 9;
            for (int c = 0; c < channels; ++c)
                row[x * channels + c] = static_cast<rpx::u8>(
                    std::clamp(v[c] + static_cast<int>(n) - 4, 0, 255));
        }
    }
}

double
threadCpuMs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

/**
 * One probe run, two parts of similar length: strided byte loads over a
 * 16 KiB table (L1-resident), then a 3x3 box filter over a 512x256
 * 8-bit image into a second one (256 KiB in all, L2-resident).
 *
 * Host contention slows the workloads unevenly, and each part tracks a
 * different workload. Over twenty 30 s hd runs, scaling by the filter
 * cut the range of mean frame time from 47% of the median to 8%, and
 * by the loads only to 17%. Over ten slam runs the loads cut it from 54%
 * to 9%, and the filter only to 15%. The two together gave 12% on hd and
 * 7% on slam. Strided loads over 256 KiB, 2 MiB and 4 MiB tracked worse.
 */
double
probeMs()
{
    constexpr int kW = 512;
    constexpr int kH = 256;
    thread_local std::vector<u8> in = [] {
        std::vector<u8> img(kW * kH);
        for (size_t i = 0; i < img.size(); ++i)
            img[i] = static_cast<u8>(i * 31 + 7);
        return img;
    }();
    thread_local std::vector<u8> out(kW * kH);
    static std::atomic<u64> sink{0};
    const double a = threadCpuMs();
    u64 acc = 0;
    for (int r = 0; r < 300; ++r)
        for (size_t i = 0; i < 16384; i += 8)
            acc += in[i];
    sink.fetch_add(acc, std::memory_order_relaxed);
    for (int y = 1; y + 1 < kH; ++y)
        for (int x = 1; x + 1 < kW; ++x) {
            int sum = 0;
            for (int dy = -1; dy <= 1; ++dy)
                for (int dx = -1; dx <= 1; ++dx)
                    sum += in[(y + dy) * kW + x + dx];
            out[y * kW + x] = static_cast<u8>(sum / 9);
        }
    return threadCpuMs() - a;
}

} // namespace

double
hostSlowdown()
{
    return median({probeMs(), probeMs(), probeMs()}) / kProbeReferenceMs;
}

ProbeSampler::ProbeSampler(std::chrono::milliseconds period)
    : readings_{hostSlowdown()}, thread_([this, period] {
          std::unique_lock<std::mutex> lock(mutex_);
          while (!wake_.wait_for(lock, period, [this] { return stopping_; })) {
              lock.unlock();
              const double r = hostSlowdown();
              lock.lock();
              readings_.push_back(r);
          }
      })
{
}

double
ProbeSampler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable())
        thread_.join();
    return median(readings_);
}

std::string
Result::toJson() const
{
    std::ostringstream os;
    os << "{\"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : metrics) {
        os << (first ? "" : ", ") << "\"" << rpx::json::escape(name)
           << "\": {\"value\": " << num(vu.first) << ", \"unit\": \""
           << rpx::json::escape(vu.second) << "\"}";
        first = false;
    }
    os << "}, \"checks\": {";
    first = true;
    for (const auto &[name, value] : checks) {
        os << (first ? "" : ", ") << "\"" << rpx::json::escape(name)
           << "\": \"" << rpx::json::escape(value) << "\"";
        first = false;
    }
    os << "}, \"info\": {";
    first = true;
    for (const auto &[name, value] : info) {
        os << (first ? "" : ", ") << "\"" << rpx::json::escape(name)
           << "\": " << num(value);
        first = false;
    }
    os << "}, \"problems\": [";
    for (size_t i = 0; i < problems.size(); ++i)
        os << (i ? ", " : "") << "\"" << rpx::json::escape(problems[i])
           << "\"";
    os << "]}";
    return os.str();
}

void
emitEndToEnd(Result &out, const EndToEnd &e)
{
    out.metric("setup_s", e.setup_s, "s");
    out.metric("frames_per_s", e.frames_per_s, "1/s");
    out.metric("goodput_fps", e.goodput_fps, "1/s");
    std::vector<double> p50, p90;
    size_t samples = 0;
    for (const std::vector<double> &group : e.latency_ms) {
        p50.push_back(percentile(group, 50));
        p90.push_back(percentile(group, 90));
        samples += group.size();
    }
    out.metric("latency_p50_ms", median(p50), "ms");
    out.metric("latency_p90_ms", median(p90), "ms");
    out.metric("dram_bytes_per_frame", e.dram_bytes_per_frame, "B");
    out.metric("energy_uj_per_frame", e.energy_uj_per_frame, "uJ");
    out.metric("rss_peak_mb", peakRssMb(), "MiB");
    out.info["latency_samples"] = static_cast<double>(samples);
    out.info["host_slowdown"] = median(e.slowdown);
    out.info["wall_frames_per_s"] = e.wall_frames_per_s;
}

void
emitLayers(Result &out, const LayerStats &l)
{
    out.metric("sensor.capture_ms", l.sensor_capture_ms, "ms");
    out.metric("isp.process_ms", l.isp_process_ms, "ms");
    out.metric("core.encode_ms", l.encode_ms, "ms");
    out.metric("core.encode_ns_per_px", l.encode_ns_per_px, "ns/px");
    out.metric("core.regions_per_frame", l.regions_per_frame, "count");
    out.metric("core.decode_ms", l.decode_ms, "ms");
    out.metric("core.history_fill_frac", l.history_fill_frac, "frac");
    out.metric("core.kept_frac", l.kept_frac, "frac");
    out.metric("memory.dram_write_txn_per_frame",
               l.dram_write_txn_per_frame, "count");
    out.metric("memory.store_ms", l.store_ms, "ms");
    out.metric("vision.track_ms", l.track_ms, "ms");
    out.metric("vision.ate_rmse_mm", l.ate_rmse_mm, "mm");
    out.metric("policy.update_ms", l.policy_update_ms, "ms");
    out.metric("datasets.render_ms", l.render_ms, "ms");
    out.metric("fleet.serial_fps", l.serial_fps, "1/s");
    out.metric("fleet.parallel_speedup",
               l.serial_fps > 0.0 ? l.untraced_fps / l.serial_fps : 0.0,
               "x");
    out.metric("fleet.service_ms_p50", l.service_ms_p50, "ms");
    out.metric("fleet.wait_ms_p50", l.wait_ms_p50, "ms");
    out.metric("fleet.encode_lease_wait_frac", l.encode_lease_wait_frac,
               "frac");
    out.metric("fleet.decode_lease_wait_frac", l.decode_lease_wait_frac,
               "frac");
    out.metric("fleet.store_batch_mean", l.store_batch_mean, "count");
    out.metric("fleet.submit_lag_ms_p50", l.submit_lag_ms_p50, "ms");
    out.metric("fleet.latency_p99_ms", l.latency_p99_ms, "ms");
    out.metric("guard.goodput_fps", l.goodput_fps, "1/s");
    out.metric("guard.shed_frac", l.shed_frac, "frac");
    out.metric("guard.late_served_frac", l.late_served_frac, "frac");
    out.metric("guard.degradation_level_mean", l.degradation_level_mean,
               "count");
    out.metric("frames.error_frac", l.error_frac, "frac");
    out.metric("trace.untraced_fps", l.untraced_fps, "1/s");
    out.metric("trace.traced_fps", l.traced_fps, "1/s");
    out.metric("host.slowdown", l.host_slowdown, "x");
    out.metric("trace.overhead_frac",
               l.untraced_fps > 0.0 ? 1.0 - l.traced_fps / l.untraced_fps
                                    : 0.0,
               "frac");
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // Harrell-Davis: order statistic i gets the Beta(a, b) density at its
    // rank midpoint (i - 0.5) / n as weight. One order statistic is a
    // noisy percentile when the sample has two modes (hd_foveated's odd
    // frames decode ~30% slower than its even ones, and its median falls
    // between them); the weighted average is steady.
    const double n = static_cast<double>(values.size());
    const double a = p / 100.0 * (n + 1.0);
    const double b = (1.0 - p / 100.0) * (n + 1.0);
    std::vector<double> logw(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
        const double x = (static_cast<double>(i) + 0.5) / n;
        logw[i] = (a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x);
    }
    const double top = *std::max_element(logw.begin(), logw.end());
    double sum = 0.0, weight = 0.0;
    for (size_t i = 0; i < values.size(); ++i) {
        const double w = std::exp(logw[i] - top);
        sum += w * values[i];
        weight += w;
    }
    return sum / weight;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
hex32(u32 v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", v);
    return buf;
}

u32
foldCrcs(const std::vector<u32> &crcs)
{
    std::vector<rpx::u8> bytes;
    bytes.reserve(crcs.size() * 4);
    for (u32 c : crcs)
        for (int b = 0; b < 4; ++b)
            bytes.push_back(static_cast<rpx::u8>(c >> (8 * b)));
    return rpx::crc32(bytes);
}

u32
imageCrc(const rpx::Image &img)
{
    return rpx::crc32(img.data());
}

double
frameEnergyUj(u64 pixels_in, u64 pixels_written, u64 pixels_read)
{
    static const rpx::EnergyModel model;
    rpx::PixelActivity a;
    a.sensed_pixels = pixels_in;
    a.csi_pixels = pixels_in;
    a.dram_pixels_written = pixels_written;
    a.dram_pixels_read = pixels_read;
    return model.energy(a).total() * 1e6;
}

rpx::Image
makeGrayScene(u64 seed, u64 index, i32 w, i32 h)
{
    rpx::Image img(w, h, rpx::PixelFormat::Gray8);
    paintScene(seed, index, w, h, 1, img.data().data());
    return img;
}

rpx::Image
makeRgbScene(u64 seed, u64 index, i32 w, i32 h)
{
    rpx::Image img(w, h, rpx::PixelFormat::Rgb8);
    paintScene(seed, index, w, h, 3, img.data().data());
    return img;
}

std::vector<rpx::RegionLabel>
fovealLabels(i32 w, i32 h, i32 fx, i32 fy, i32 fw, i32 fh)
{
    rpx::RegionLabel fovea{fx, fy, fw, fh, 1, 1, 0};
    rpx::RegionLabel periphery{0, 0, w, h, 4, 2, 0};
    std::vector<rpx::RegionLabel> labels{periphery, fovea};
    rpx::sortRegionsByY(labels);
    return labels;
}

void
SpanRecorder::record(const char *name, Clock::time_point start,
                     Clock::time_point end, i64 frame, u32 lane)
{
    const double ts =
        std::chrono::duration<double, std::micro>(start - origin_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(end - start).count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, ts, dur, frame, lane});
    auto &t = totals_[name];
    t.first += dur / 1e3;
    ++t.second;
}

double
SpanRecorder::totalMs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second.first;
}

u64
SpanRecorder::count(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second.second;
}

void
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write trace file " + path);
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
           << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1"
           << ", \"tid\": " << s.lane << ", \"ts\": " << num(s.ts_us)
           << ", \"dur\": " << num(s.dur_us) << ", \"args\": {\"frame\": "
           << s.frame << "}}";
    }
    os << "\n]}\n";
    if (!os)
        throw std::runtime_error("failed writing trace file " + path);
}

void
FrameLedger::add(const rpx::PipelineFrameResult &r, u64 pixels_in)
{
    crcs.push_back(imageCrc(r.decoded));
    if (r.quarantined)
        ++failed;
    bytes_written += r.traffic.bytes_written;
    bytes_read += r.traffic.bytes_read;
    metadata_bytes += r.traffic.metadata_bytes;
    energy_uj += frameEnergyUj(pixels_in, r.traffic.bytes_written,
                               r.traffic.bytes_read);
    kept += r.kept_fraction;
}

void
FrameLedger::addLayerCounts(rpx::fleet::StreamContext &ctx)
{
    regions += static_cast<double>(ctx.encoder().regionLabels().size());
    history_fills +=
        static_cast<double>(ctx.swDecoder().lastHistoryFills());
}

std::string
FrameLedger::totals() const
{
    return "frames=" + std::to_string(frames()) +
           " bytes_written=" + std::to_string(bytes_written) +
           " bytes_read=" + std::to_string(bytes_read) +
           " metadata_bytes=" + std::to_string(metadata_bytes);
}

rpx::PipelineFrameResult
runStagesTraced(rpx::fleet::StreamContext &ctx, const rpx::Image &scene,
                SpanRecorder &spans, i64 frame)
{
    rpx::fleet::FrameTask task;
    task.stream = &ctx;
    task.scene_ref = &scene;
    {
        ScopedSpan s(spans, "fleet.CaptureStage", frame, 1);
        rpx::fleet::CaptureStage{}.run(task);
    }
    {
        ScopedSpan s(spans, "fleet.EncodeStage", frame, 2);
        rpx::fleet::EncodeStage{}.run(task);
    }
    {
        ScopedSpan s(spans, "fleet.StoreStage", frame, 3);
        rpx::fleet::StoreStage{}.run(task);
    }
    {
        ScopedSpan s(spans, "fleet.DecodeStage", frame, 4);
        rpx::fleet::DecodeStage{}.run(task);
    }
    return std::move(task.result);
}

} // namespace perfbench
