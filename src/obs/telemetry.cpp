#include "obs/telemetry.hpp"

#include <sstream>

#include "common/error.hpp"

namespace rpx::obs {

namespace {

constexpr const char *kSchema = "rpx-frame-telemetry-v1";

const char *
boolName(bool b)
{
    return b ? "true" : "false";
}

} // namespace

void
TelemetryTotals::add(const FrameTelemetry &frame)
{
    ++frames;
    pixels_in += frame.pixels_in;
    pixels_kept += frame.pixels_kept;
    bytes_written += frame.bytes_written;
    bytes_read += frame.bytes_read;
    metadata_bytes += frame.metadata_bytes;
    region_comparisons += frame.region_comparisons;
    compare_cycles += frame.compare_cycles;
    stream_cycles += frame.stream_cycles;
    quarantined_frames += frame.quarantined ? 1 : 0;
    deadline_misses += frame.deadline_missed ? 1 : 0;
    shed_frames += frame.shed ? 1 : 0;
    transient_faults += frame.transient_faults;
    dma_retries += frame.dma_retries;
    dma_dropped_bursts += frame.dma_dropped_bursts;
    energy_total_nj += frame.energy_total_nj;
}

TelemetrySink::TelemetrySink(const Config &config) : config_(config)
{
    if (!config_.journal_path.empty()) {
        journal_.open(config_.journal_path, std::ios::trunc);
        if (!journal_)
            throwRuntime("cannot open telemetry journal: ",
                         config_.journal_path);
    }
}

void
TelemetrySink::record(const FrameTelemetry &frame)
{
    std::lock_guard<std::mutex> lock(mutex_);
    totals_.add(frame);
    per_stream_[frame.stream].add(frame);
    if (config_.keep_frames > 0) {
        ring_.push_back(frame);
        while (ring_.size() > config_.keep_frames)
            ring_.pop_front();
    }
    if (journal_.is_open())
        journal_ << writeFrameJson(frame) << "\n";
}

TelemetryTotals
TelemetrySink::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return totals_;
}

std::map<std::string, TelemetryTotals>
TelemetrySink::perStreamTotals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return per_stream_;
}

TelemetryTotals
TelemetrySink::streamTotals(const std::string &stream) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = per_stream_.find(stream);
    return it == per_stream_.end() ? TelemetryTotals{} : it->second;
}

std::vector<FrameTelemetry>
TelemetrySink::frames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {ring_.begin(), ring_.end()};
}

void
TelemetrySink::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (journal_.is_open())
        journal_.flush();
}

std::string
writeFrameJson(const FrameTelemetry &f)
{
    std::ostringstream os;
    os << "{\"schema\":\"" << kSchema << "\",\"frame\":" << f.index;
    if (!f.stream.empty())
        os << ",\"stream\":\"" << json::escape(f.stream) << "\"";
    os << ",\"lat_us\":{\"sensor\":" << json::number(f.sensor_us)
       << ",\"isp\":" << json::number(f.isp_us)
       << ",\"encode\":" << json::number(f.encode_us)
       << ",\"dram_write\":" << json::number(f.dram_write_us)
       << ",\"decode\":" << json::number(f.decode_us)
       << ",\"total\":" << json::number(f.total_us) << "}"
       << ",\"pixels\":{\"in\":" << f.pixels_in
       << ",\"kept\":" << f.pixels_kept << "}"
       << ",\"bytes\":{\"written\":" << f.bytes_written
       << ",\"read\":" << f.bytes_read
       << ",\"metadata\":" << f.metadata_bytes << "}"
       << ",\"dram\":{\"write_tx\":" << f.dram_write_transactions
       << ",\"read_tx\":" << f.dram_read_transactions
       << ",\"bytes_written\":" << f.dram_bytes_written
       << ",\"bytes_read\":" << f.dram_bytes_read << "}"
       << ",\"cycles\":{\"compare\":" << f.compare_cycles
       << ",\"stream\":" << f.stream_cycles << "}"
       << ",\"comparisons\":" << f.region_comparisons
       << ",\"health\":{\"quarantined\":" << boolName(f.quarantined)
       << ",\"held_last_good\":" << boolName(f.held_last_good)
       << ",\"deadline_missed\":" << boolName(f.deadline_missed);
    // Guard-era fields are emitted only when set, so journals from
    // guard-free runs stay byte-identical to the legacy schema.
    if (f.shed)
        os << ",\"shed\":true";
    os << ",\"csi_dropped_lines\":" << f.csi_dropped_lines
       << ",\"transient_faults\":" << f.transient_faults;
    if (f.dma_retries)
        os << ",\"dma_retries\":" << f.dma_retries;
    if (f.dma_dropped_bursts)
        os << ",\"dma_dropped_bursts\":" << f.dma_dropped_bursts;
    os << ",\"degradation_level\":" << f.degradation_level << "}"
       << ",\"energy_nj\":{\"sense\":" << json::number(f.energy_sense_nj)
       << ",\"csi\":" << json::number(f.energy_csi_nj)
       << ",\"dram\":" << json::number(f.energy_dram_nj)
       << ",\"total\":" << json::number(f.energy_total_nj) << "}"
       << ",\"regions\":[";
    for (size_t i = 0; i < f.regions.size(); ++i) {
        const RegionTelemetry &r = f.regions[i];
        os << (i ? "," : "") << "{\"x\":" << r.x << ",\"y\":" << r.y
           << ",\"w\":" << r.w << ",\"h\":" << r.h
           << ",\"stride\":" << r.stride << ",\"skip\":" << r.skip
           << ",\"active\":" << boolName(r.active)
           << ",\"kept\":" << r.pixels_kept
           << ",\"comparisons\":" << r.comparisons
           << ",\"payload_bytes\":" << r.payload_bytes
           << ",\"energy_nj\":" << json::number(r.energy_nj) << "}";
    }
    os << "]}";
    return os.str();
}

namespace {

u64
u64At(const json::Value &obj, const std::string &key)
{
    return static_cast<u64>(obj.at(key).number());
}

bool
boolAt(const json::Value &obj, const std::string &key)
{
    return obj.at(key).boolean();
}

} // namespace

FrameTelemetry
frameFromJson(const json::Value &v)
{
    const std::string schema = v.stringOr("schema", "");
    if (schema != kSchema)
        throwRuntime("telemetry journal schema mismatch: got '", schema,
                     "', expected '", kSchema, "'");

    FrameTelemetry f;
    f.index = u64At(v, "frame");
    f.stream = v.stringOr("stream", "");

    const json::Value &lat = v.at("lat_us");
    f.sensor_us = lat.at("sensor").number();
    f.isp_us = lat.at("isp").number();
    f.encode_us = lat.at("encode").number();
    f.dram_write_us = lat.at("dram_write").number();
    f.decode_us = lat.at("decode").number();
    f.total_us = lat.at("total").number();

    const json::Value &px = v.at("pixels");
    f.pixels_in = u64At(px, "in");
    f.pixels_kept = u64At(px, "kept");

    const json::Value &bytes = v.at("bytes");
    f.bytes_written = u64At(bytes, "written");
    f.bytes_read = u64At(bytes, "read");
    f.metadata_bytes = u64At(bytes, "metadata");

    const json::Value &dram = v.at("dram");
    f.dram_write_transactions = u64At(dram, "write_tx");
    f.dram_read_transactions = u64At(dram, "read_tx");
    f.dram_bytes_written = u64At(dram, "bytes_written");
    f.dram_bytes_read = u64At(dram, "bytes_read");

    const json::Value &cycles = v.at("cycles");
    f.compare_cycles = u64At(cycles, "compare");
    f.stream_cycles = u64At(cycles, "stream");
    f.region_comparisons = u64At(v, "comparisons");

    const json::Value &health = v.at("health");
    f.quarantined = boolAt(health, "quarantined");
    f.held_last_good = boolAt(health, "held_last_good");
    f.deadline_missed = boolAt(health, "deadline_missed");
    f.csi_dropped_lines = static_cast<u32>(u64At(health,
                                                 "csi_dropped_lines"));
    f.transient_faults = u64At(health, "transient_faults");
    // Optional guard-era fields (absent in legacy journals).
    if (const json::Value *shed = health.find("shed"))
        f.shed = shed->boolean();
    f.dma_retries = static_cast<u64>(health.numberOr("dma_retries", 0.0));
    f.dma_dropped_bursts =
        static_cast<u64>(health.numberOr("dma_dropped_bursts", 0.0));
    f.degradation_level =
        static_cast<int>(health.at("degradation_level").number());

    const json::Value &energy = v.at("energy_nj");
    f.energy_sense_nj = energy.at("sense").number();
    f.energy_csi_nj = energy.at("csi").number();
    f.energy_dram_nj = energy.at("dram").number();
    f.energy_total_nj = energy.at("total").number();

    for (const json::Value &rv : v.at("regions").array()) {
        RegionTelemetry r;
        r.x = static_cast<i32>(rv.at("x").number());
        r.y = static_cast<i32>(rv.at("y").number());
        r.w = static_cast<i32>(rv.at("w").number());
        r.h = static_cast<i32>(rv.at("h").number());
        r.stride = static_cast<i32>(rv.at("stride").number());
        r.skip = static_cast<i32>(rv.at("skip").number());
        r.active = boolAt(rv, "active");
        r.pixels_kept = u64At(rv, "kept");
        r.comparisons = u64At(rv, "comparisons");
        r.payload_bytes = u64At(rv, "payload_bytes");
        r.energy_nj = rv.at("energy_nj").number();
        f.regions.push_back(std::move(r));
    }
    return f;
}

std::vector<FrameTelemetry>
readJournal(const std::string &text)
{
    std::vector<FrameTelemetry> out;
    for (const json::Value &v : json::parseLines(text))
        out.push_back(frameFromJson(v));
    return out;
}

std::vector<FrameTelemetry>
readJournalFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throwRuntime("cannot open telemetry journal: ", path);
    std::ostringstream buf;
    buf << is.rdbuf();
    return readJournal(buf.str());
}

} // namespace rpx::obs
