#include "obs/trace.hpp"

#include <fstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace rpx::obs {

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double
TraceRecorder::nowUs() const
{
    const auto dt = std::chrono::steady_clock::now() - epoch_;
    return std::chrono::duration<double, std::micro>(dt).count();
}

void
TraceRecorder::record(TraceSpan span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

size_t
TraceRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::vector<TraceSpan>
TraceRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
TraceRecorder::writeJson(std::ostream &os) const
{
    const std::vector<TraceSpan> spans = this->spans();
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const TraceSpan &s : spans) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":\"" << json::escape(s.name) << "\",\"cat\":\""
           << json::escape(s.cat) << "\",\"ph\":\"X\",\"ts\":"
           << json::number(s.ts_us) << ",\"dur\":" << json::number(s.dur_us)
           << ",\"pid\":1,\"tid\":" << s.tid;
        if (s.frame >= 0)
            os << ",\"args\":{\"frame\":" << s.frame << "}";
        os << "}";
    }
    os << "\n]}\n";
}

void
TraceRecorder::writeJsonFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        throwRuntime("cannot open trace output file: ", path);
    writeJson(os);
    if (!os.good())
        throwRuntime("failed writing trace output file: ", path);
}

} // namespace rpx::obs
