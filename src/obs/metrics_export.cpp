#include "obs/metrics_export.hpp"

#include <fstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace rpx::obs {

namespace {

const char *
kindName(MetricSample::Kind kind)
{
    switch (kind) {
      case MetricSample::Kind::Counter:
        return "counter";
      case MetricSample::Kind::Gauge:
        return "gauge";
      case MetricSample::Kind::Histogram:
        return "histogram";
    }
    return "unknown";
}

/**
 * RFC-4180 CSV field escaping: names containing commas, quotes, or
 * newlines are quoted with embedded quotes doubled, so metric names like
 * `bench."quoted",stage` survive a round-trip through spreadsheet tools.
 */
std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

void
writeMetricsJson(const std::vector<MetricSample> &samples, std::ostream &os)
{
    os << "{\"metrics\":{";
    bool first = true;
    for (const MetricSample &s : samples) {
        if (!first)
            os << ",";
        first = false;
        os << "\n\"" << json::escape(s.name) << "\":{\"kind\":\""
           << kindName(s.kind) << "\"";
        if (s.kind == MetricSample::Kind::Histogram) {
            os << ",\"count\":" << json::number(s.value)
               << ",\"sum\":" << json::number(s.sum)
               << ",\"min\":" << json::number(s.min)
               << ",\"max\":" << json::number(s.max) << ",\"bounds\":[";
            for (size_t i = 0; i < s.bounds.size(); ++i)
                os << (i ? "," : "") << json::number(s.bounds[i]);
            os << "],\"buckets\":[";
            for (size_t i = 0; i < s.buckets.size(); ++i)
                os << (i ? "," : "") << s.buckets[i];
            os << "],\"p50\":" << json::number(sampleQuantile(s, 0.50))
               << ",\"p99\":" << json::number(sampleQuantile(s, 0.99))
               << ",\"p999\":" << json::number(sampleQuantile(s, 0.999));
        } else {
            os << ",\"value\":" << json::number(s.value);
        }
        os << "}";
    }
    os << "\n}}\n";
}

void
writeMetricsCsv(const std::vector<MetricSample> &samples, std::ostream &os)
{
    os << "name,kind,value,sum,min,max,p50,p99,p999\n";
    for (const MetricSample &s : samples) {
        os << csvEscape(s.name) << "," << kindName(s.kind) << ","
           << json::number(s.value) << "," << json::number(s.sum) << ","
           << json::number(s.min) << "," << json::number(s.max) << ","
           << json::number(sampleQuantile(s, 0.50)) << ","
           << json::number(sampleQuantile(s, 0.99)) << ","
           << json::number(sampleQuantile(s, 0.999)) << "\n";
    }
}

namespace {

template <typename Writer>
void
writeFile(const PerfRegistry &registry, const std::string &path,
          Writer writer)
{
    std::ofstream os(path);
    if (!os)
        throwRuntime("cannot open metrics output file: ", path);
    writer(registry.snapshot(), os);
    if (!os.good())
        throwRuntime("failed writing metrics output file: ", path);
}

} // namespace

void
writeMetricsJsonFile(const PerfRegistry &registry, const std::string &path)
{
    writeFile(registry, path, writeMetricsJson);
}

void
writeMetricsCsvFile(const PerfRegistry &registry, const std::string &path)
{
    writeFile(registry, path, writeMetricsCsv);
}

void
writeMetricsFile(const PerfRegistry &registry, const std::string &path)
{
    const bool csv =
        path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
    if (csv)
        writeMetricsCsvFile(registry, path);
    else
        writeMetricsJsonFile(registry, path);
}

} // namespace rpx::obs
