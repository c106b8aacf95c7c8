/**
 * @file
 * Tests for the rpx::obs subsystem: counter registration and dump
 * determinism, histogram bucket boundaries, scoped stage timers, the
 * Chrome-trace span exporter (parsed back with a minimal JSON reader to
 * prove validity), the JSON/CSV metric snapshots, and end-to-end pipeline
 * instrumentation (one span per stage per frame).
 */

#include <cctype>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "core/decoder.hpp"
#include "core/encoder.hpp"
#include "core/frame_store.hpp"
#include "frame/draw.hpp"
#include "memory/dram.hpp"
#include "obs/metrics_export.hpp"
#include "obs/obs.hpp"
#include "sim/pipeline.hpp"

namespace rpx {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON reader — just enough to prove the
// exporters emit valid JSON and to navigate the parsed structure.

struct Json {
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Json> array;
    std::map<std::string, Json> object;

    const Json *find(const std::string &key) const
    {
        const auto it = object.find(key);
        return it == object.end() ? nullptr : &it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    /** Parse the whole input; returns false on any syntax error. */
    bool parse(Json &out)
    {
        pos_ = 0;
        if (!value(out))
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\t' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool literal(const char *word)
    {
        const size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    bool value(Json &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        const char c = text_[pos_];
        if (c == '{')
            return object(out);
        if (c == '[')
            return array(out);
        if (c == '"') {
            out.type = Json::Type::String;
            return string(out.str);
        }
        if (c == 't') {
            out.type = Json::Type::Bool;
            out.boolean = true;
            return literal("true");
        }
        if (c == 'f') {
            out.type = Json::Type::Bool;
            out.boolean = false;
            return literal("false");
        }
        if (c == 'n') {
            out.type = Json::Type::Null;
            return literal("null");
        }
        return number(out);
    }

    bool string(std::string &out)
    {
        if (text_[pos_] != '"')
            return false;
        ++pos_;
        out.clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                if (pos_ + 1 >= text_.size())
                    return false;
                const char esc = text_[pos_ + 1];
                switch (esc) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 'u':
                    if (pos_ + 5 >= text_.size())
                        return false;
                    out += '?'; // codepoint value irrelevant to the tests
                    pos_ += 4;
                    break;
                  default:
                    return false;
                }
                pos_ += 2;
            } else {
                out += text_[pos_++];
            }
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool number(Json &out)
    {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            return false;
        try {
            out.number = std::stod(text_.substr(start, pos_ - start));
        } catch (...) {
            return false;
        }
        out.type = Json::Type::Number;
        return true;
    }

    bool array(Json &out)
    {
        out.type = Json::Type::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            Json element;
            if (!value(element))
                return false;
            out.array.push_back(std::move(element));
            skipWs();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool object(Json &out)
    {
        out.type = Json::Type::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (pos_ >= text_.size() || !string(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return false;
            ++pos_;
            Json element;
            if (!value(element))
                return false;
            out.object.emplace(std::move(key), std::move(element));
            skipWs();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// PerfRegistry

TEST(PerfRegistry, CounterRegistrationAndIncrement)
{
    obs::PerfRegistry r;
    obs::Counter &c = r.counter("pipeline.encoder.pixels_kept");
    c.add(40);
    c.inc();
    EXPECT_EQ(c.value(), 41u);
    // Get-or-create returns the same instance.
    EXPECT_EQ(&r.counter("pipeline.encoder.pixels_kept"), &c);
    EXPECT_EQ(r.size(), 1u);
}

TEST(PerfRegistry, KindMismatchThrows)
{
    obs::PerfRegistry r;
    r.counter("dram.write_bytes");
    EXPECT_THROW(r.gauge("dram.write_bytes"), std::invalid_argument);
    EXPECT_THROW(r.histogram("dram.write_bytes"), std::invalid_argument);
    r.gauge("pipeline.kept_fraction");
    EXPECT_THROW(r.counter("pipeline.kept_fraction"),
                 std::invalid_argument);
}

TEST(PerfRegistry, DumpIsDeterministicAndNameSorted)
{
    // Register in shuffled order; dumps must come out identical and
    // sorted because snapshots are keyed by name.
    const auto build = [](obs::PerfRegistry &r,
                          const std::vector<std::string> &order) {
        for (const std::string &name : order)
            r.counter(name).add(7);
        r.gauge("zz.gauge").set(1.5);
    };
    obs::PerfRegistry a, b;
    build(a, {"dram.write_bytes", "encoder.frames", "decoder.txns"});
    build(b, {"decoder.txns", "dram.write_bytes", "encoder.frames"});

    std::ostringstream dump_a, dump_b;
    a.dump(dump_a);
    b.dump(dump_b);
    EXPECT_EQ(dump_a.str(), dump_b.str());
    EXPECT_EQ(dump_a.str(),
              "decoder.txns = 7\n"
              "dram.write_bytes = 7\n"
              "encoder.frames = 7\n"
              "zz.gauge = 1.5\n");
}

TEST(PerfRegistry, ConcurrentIncrementsAreLossless)
{
    obs::PerfRegistry r;
    obs::Counter &c = r.counter("contended");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&c] {
            for (int k = 0; k < kPerThread; ++k)
                c.inc();
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(), static_cast<u64>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// Histogram

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds)
{
    obs::Histogram h({10.0, 100.0, 1000.0});
    h.record(0.0);    // <= 10 -> bucket 0
    h.record(10.0);   // == bound -> bucket 0 (inclusive)
    h.record(10.5);   // bucket 1
    h.record(100.0);  // bucket 1
    h.record(100.01); // bucket 2
    h.record(1000.0); // bucket 2
    h.record(5000.0); // overflow bucket
    const std::vector<u64> counts = h.bucketCounts();
    ASSERT_EQ(counts.size(), 4u); // 3 bounds + overflow
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 2u);
    EXPECT_EQ(counts[3], 1u);
    EXPECT_EQ(h.count(), 7u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 5000.0);
}

TEST(Histogram, EmptyHistogramReportsZeros)
{
    obs::Histogram h({1.0});
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, MeanTracksSum)
{
    obs::PerfRegistry r;
    obs::Histogram &h = r.histogram("lat", {100.0});
    h.record(10.0);
    h.record(30.0);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    EXPECT_DOUBLE_EQ(h.sum(), 40.0);
}

// ---------------------------------------------------------------------------
// Scoped timers and trace exporter

TEST(ScopedStageTimer, NullContextIsNoop)
{
    // Must not crash or allocate observable state.
    for (int i = 0; i < 3; ++i) {
        obs::ScopedStageTimer t(nullptr, nullptr, "stage", "cat",
                                obs::TraceLane::Pipeline, i);
    }
}

TEST(ScopedStageTimer, FeedsHistogramAndTrace)
{
    obs::ObsContext ctx;
    ctx.enableTrace();
    obs::Histogram &h = ctx.registry().histogram("stage.latency_us");
    {
        obs::ScopedStageTimer t(&ctx, &h, "encode", "pipeline",
                                obs::TraceLane::Encoder, 3);
    }
    EXPECT_EQ(h.count(), 1u);
    ASSERT_EQ(ctx.trace()->size(), 1u);
    const obs::TraceSpan span = ctx.trace()->spans()[0];
    EXPECT_EQ(span.name, "encode");
    EXPECT_EQ(span.cat, "pipeline");
    EXPECT_EQ(span.frame, 3);
    EXPECT_GE(span.dur_us, 0.0);
}

TEST(TraceRecorder, EmitsValidChromeTraceJson)
{
    obs::TraceRecorder tr;
    tr.record({"encode", "pipeline", 1.0, 2.5,
               static_cast<u32>(obs::TraceLane::Encoder), 0});
    tr.record({"decode \"quoted\"\n", "pipeline", 4.0, 1.0,
               static_cast<u32>(obs::TraceLane::Decoder), 1});
    tr.record({"evaluate", "throughput_sim", 6.0, 3.0,
               static_cast<u32>(obs::TraceLane::Sim), -1});

    std::ostringstream os;
    tr.writeJson(os);

    Json root;
    ASSERT_TRUE(JsonParser(os.str()).parse(root)) << os.str();
    ASSERT_EQ(root.type, Json::Type::Object);
    const Json *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->type, Json::Type::Array);
    ASSERT_EQ(events->array.size(), 3u);

    const Json &first = events->array[0];
    EXPECT_EQ(first.find("name")->str, "encode");
    EXPECT_EQ(first.find("ph")->str, "X");
    EXPECT_DOUBLE_EQ(first.find("ts")->number, 1.0);
    EXPECT_DOUBLE_EQ(first.find("dur")->number, 2.5);
    EXPECT_DOUBLE_EQ(first.find("args")->find("frame")->number, 0.0);

    // The escaped name must round-trip through the parser.
    EXPECT_EQ(events->array[1].find("name")->str, "decode \"quoted\"\n");
    // Non-frame-scoped spans omit args.
    EXPECT_EQ(events->array[2].find("args"), nullptr);
}

/** Spans late in a long run keep sub-microsecond timestamps. */
TEST(TraceRecorder, LateSpanTimestampsRoundTripExactly)
{
    obs::TraceRecorder tr;
    tr.record({"decode", "pipeline", 1403461.25, 0.125,
               static_cast<u32>(obs::TraceLane::Decoder), 3});
    std::ostringstream os;
    tr.writeJson(os);

    const json::Value root = json::parse(os.str());
    const json::Value &span = root.at("traceEvents").array().at(0);
    EXPECT_EQ(span.at("ts").number(), 1403461.25);
    EXPECT_EQ(span.at("dur").number(), 0.125);
}

// ---------------------------------------------------------------------------
// Metric snapshot exporters

TEST(MetricsExport, JsonSnapshotParsesBack)
{
    obs::PerfRegistry r;
    r.counter("dram.write_bytes").add(4096);
    r.gauge("pipeline.kept_fraction").set(0.25);
    obs::Histogram &h = r.histogram("stage.latency_us", {10.0, 100.0});
    h.record(5.0);
    h.record(50.0);

    std::ostringstream os;
    obs::writeMetricsJson(r.snapshot(), os);

    Json root;
    ASSERT_TRUE(JsonParser(os.str()).parse(root)) << os.str();
    const Json *metrics = root.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_EQ(metrics->object.size(), 3u);

    const Json *counter = metrics->find("dram.write_bytes");
    ASSERT_NE(counter, nullptr);
    EXPECT_EQ(counter->find("kind")->str, "counter");
    EXPECT_DOUBLE_EQ(counter->find("value")->number, 4096.0);

    const Json *gauge = metrics->find("pipeline.kept_fraction");
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->find("kind")->str, "gauge");
    EXPECT_DOUBLE_EQ(gauge->find("value")->number, 0.25);

    const Json *hist = metrics->find("stage.latency_us");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->find("kind")->str, "histogram");
    EXPECT_DOUBLE_EQ(hist->find("count")->number, 2.0);
    EXPECT_DOUBLE_EQ(hist->find("sum")->number, 55.0);
    ASSERT_EQ(hist->find("bounds")->array.size(), 2u);
    ASSERT_EQ(hist->find("buckets")->array.size(), 3u);
    EXPECT_DOUBLE_EQ(hist->find("buckets")->array[0].number, 1.0);
    EXPECT_DOUBLE_EQ(hist->find("buckets")->array[1].number, 1.0);
}

// Regression: values past six significant digits used to export with the
// default ostream precision and round (1166874 -> 1.16687e+06 -> 1166870),
// silently breaking journal-vs-registry conservation checks.
TEST(MetricsExport, LargeAndFractionalValuesExportExactly)
{
    obs::PerfRegistry r;
    r.counter("pipeline.bytes_written").add(1166874);
    r.counter("big").add(9007199254740991ull); // 2^53 - 1
    r.gauge("pipeline.energy_total_nj").set(8003931.0);
    r.gauge("frac").set(0.1 + 0.2);

    std::ostringstream os;
    obs::writeMetricsJson(r.snapshot(), os);

    Json root;
    ASSERT_TRUE(JsonParser(os.str()).parse(root)) << os.str();
    const Json *metrics = root.find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->find("pipeline.bytes_written")->find("value")->number,
              1166874.0);
    EXPECT_EQ(metrics->find("big")->find("value")->number,
              9007199254740991.0);
    EXPECT_EQ(
        metrics->find("pipeline.energy_total_nj")->find("value")->number,
        8003931.0);
    EXPECT_EQ(metrics->find("frac")->find("value")->number, 0.1 + 0.2);
}

TEST(MetricsExport, CsvSnapshotHasHeaderAndSortedRows)
{
    obs::PerfRegistry r;
    r.counter("b.counter").add(2);
    r.counter("a.counter").add(1);
    std::ostringstream os;
    obs::writeMetricsCsv(r.snapshot(), os);
    EXPECT_EQ(os.str(),
              "name,kind,value,sum,min,max,p50,p99,p999\n"
              "a.counter,counter,1,0,0,0,0,0,0\n"
              "b.counter,counter,2,0,0,0,0,0,0\n");
}

TEST(MetricsExport, CsvEscapesCommasAndQuotesInNames)
{
    obs::PerfRegistry r;
    r.counter("odd,name").add(1);
    r.counter("has\"quote").add(2);
    std::ostringstream os;
    obs::writeMetricsCsv(r.snapshot(), os);
    // RFC 4180: fields with commas/quotes are quoted, inner quotes doubled.
    EXPECT_NE(os.str().find("\"has\"\"quote\",counter,2"),
              std::string::npos);
    EXPECT_NE(os.str().find("\"odd,name\",counter,1"), std::string::npos);
}

TEST(MetricsExport, CsvHistogramRowCarriesQuantiles)
{
    obs::PerfRegistry r;
    obs::Histogram &h = r.histogram("lat", {1.0, 10.0, 100.0});
    h.record(5.0);
    std::ostringstream os;
    obs::writeMetricsCsv(r.snapshot(), os);
    // Single sample: every quantile is exactly that sample.
    EXPECT_NE(os.str().find("lat,histogram,1,5,5,5,5,5,5"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram quantiles (the edge cases consumers used to hand-roll wrong)

TEST(HistogramQuantile, EmptyHistogramIsZero)
{
    obs::Histogram h({1.0, 10.0});
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.999), 0.0);
}

TEST(HistogramQuantile, SingleSampleReturnsThatSample)
{
    obs::Histogram h(obs::Histogram::defaultLatencyBoundsUs());
    h.record(37.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 37.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 37.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 37.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.999), 37.5);
}

TEST(HistogramQuantile, SmallNHighQuantileClampsToMax)
{
    obs::Histogram h({1.0, 10.0, 100.0, 1000.0});
    h.record(2.0);
    h.record(20.0);
    h.record(200.0);
    // p999 on 3 samples must not extrapolate past the recorded max.
    EXPECT_DOUBLE_EQ(h.quantile(0.999), 200.0);
    EXPECT_GE(h.quantile(0.5), 2.0);
    EXPECT_LE(h.quantile(0.5), 200.0);
    // Quantiles are monotone in q.
    EXPECT_LE(h.quantile(0.25), h.quantile(0.75));
}

TEST(HistogramQuantile, OverflowBucketInterpolatesTowardMax)
{
    obs::Histogram h({1.0});
    h.record(50.0); // overflow bucket
    h.record(60.0);
    const double p99 = h.quantile(0.99);
    EXPECT_GE(p99, 50.0);
    EXPECT_LE(p99, 60.0);
}

TEST(HistogramQuantile, SampleQuantileMatchesHistogram)
{
    obs::PerfRegistry r;
    obs::Histogram &h = r.histogram("lat", {1.0, 10.0, 100.0});
    for (double v : {0.5, 3.0, 7.0, 42.0, 99.0, 250.0})
        h.record(v);
    for (const obs::MetricSample &s : r.snapshot()) {
        ASSERT_EQ(s.kind, obs::MetricSample::Kind::Histogram);
        for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
            EXPECT_DOUBLE_EQ(obs::sampleQuantile(s, q), h.quantile(q));
    }
}

// ---------------------------------------------------------------------------
// End-to-end pipeline instrumentation

TEST(PipelineObs, OneSpanPerStagePerFrameAndCountersPopulated)
{
    obs::ObsContext ctx;
    ctx.enableTrace();

    PipelineConfig pc;
    pc.width = 64;
    pc.height = 48;
    pc.obs = &ctx;
    VisionPipeline pipeline(pc);
    pipeline.runtime().setRegionLabels({{8, 8, 24, 24, 1, 1, 0}});

    Image scene(64, 48);
    Rng rng(1);
    fillValueNoise(scene, rng, 16.0, 20, 220);

    constexpr int kFrames = 3;
    for (int t = 0; t < kFrames; ++t)
        pipeline.processFrame(scene);

    // Every stage must emit exactly one span per frame.
    std::map<std::string, std::map<i64, int>> by_stage_frame;
    for (const obs::TraceSpan &s : ctx.trace()->spans())
        ++by_stage_frame[s.name][s.frame];
    for (const char *stage : {"sensor_readout", "isp", "encode",
                              "dram_write", "decode", "frame"}) {
        ASSERT_TRUE(by_stage_frame.count(stage)) << stage;
        EXPECT_EQ(by_stage_frame[stage].size(),
                  static_cast<size_t>(kFrames))
            << stage;
        for (const auto &[frame, count] : by_stage_frame[stage])
            EXPECT_EQ(count, 1) << stage << " frame " << frame;
    }

    // Counters from every wired component are present and consistent.
    obs::PerfRegistry &r = ctx.registry();
    EXPECT_EQ(r.counter("pipeline.frames").value(),
              static_cast<u64>(kFrames));
    EXPECT_EQ(r.counter("encoder.frames").value(),
              static_cast<u64>(kFrames));
    EXPECT_EQ(r.counter("encoder.pixels_in").value(),
              static_cast<u64>(64 * 48 * kFrames));
    EXPECT_GT(r.counter("encoder.pixels_kept").value(), 0u);
    EXPECT_GT(r.counter("dram.write_bytes").value(), 0u);
    EXPECT_EQ(r.counter("driver.ioctls").value(), 1u);
    EXPECT_GT(r.counter("driver.axi_writes").value(), 0u);

    // Stage latency histograms saw every frame.
    EXPECT_EQ(r.histogram("pipeline.stage.encode.latency_us").count(),
              static_cast<u64>(kFrames));
    EXPECT_EQ(r.histogram("pipeline.frame.latency_us").count(),
              static_cast<u64>(kFrames));

    // The pipeline traffic counters agree with the aggregate summary.
    EXPECT_EQ(r.counter("pipeline.bytes_written").value(),
              pipeline.traffic().bytes_written);
}

TEST(PipelineObs, DetachedPipelineRegistersNothing)
{
    PipelineConfig pc;
    pc.width = 32;
    pc.height = 32;
    VisionPipeline pipeline(pc);
    pipeline.runtime().setRegionLabels({{4, 4, 8, 8, 1, 1, 0}});
    Image scene(32, 32);
    pipeline.processFrame(scene);
    // Nothing to assert on a registry (there is none); the test is that
    // the uninstrumented path still works and stays silent.
    SUCCEED();
}

TEST(DecoderObs, TransactionCountersMirrorStats)
{
    obs::ObsContext ctx;
    DramModel dram;
    dram.attachObs(&ctx);
    RhythmicEncoder enc(32, 32);
    enc.attachObs(&ctx);
    FrameStore store(dram, 32, 32);
    RhythmicDecoder dec(store);
    dec.attachObs(&ctx);

    enc.setRegionLabels({{0, 0, 16, 16, 1, 1, 0}});
    Image frame(32, 32);
    for (i32 y = 0; y < 32; ++y)
        for (i32 x = 0; x < 32; ++x)
            frame.set(x, y, static_cast<u8>(x + y));
    store.store(enc.encodeFrame(frame, 0));

    dec.requestPixels(0, 0, 32);
    dec.requestPixels(0, 4, 64);

    obs::PerfRegistry &r = ctx.registry();
    EXPECT_EQ(r.counter("decoder.transactions").value(),
              dec.stats().transactions);
    EXPECT_EQ(r.counter("decoder.pixels_requested").value(),
              dec.stats().pixels_requested);
    EXPECT_EQ(r.counter("decoder.dram_reads").value(),
              dec.stats().dram_reads);
    EXPECT_EQ(r.counter("encoder.pixels_kept").value(), 16u * 16u);
}

} // namespace
} // namespace rpx
