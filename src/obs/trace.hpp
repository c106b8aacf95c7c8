/**
 * @file
 * Chrome-trace-event span recorder.
 *
 * Records complete ("ph":"X") duration events per pipeline stage and frame
 * and serialises them as the Trace Event Format JSON that chrome://tracing
 * and Perfetto load directly: {"traceEvents":[{"name":..,"cat":..,"ph":"X",
 * "ts":..,"dur":..,"pid":..,"tid":..,"args":{"frame":..}},...]}.
 * Timestamps are microseconds on the recorder's own steady clock.
 */

#ifndef RPX_OBS_TRACE_HPP
#define RPX_OBS_TRACE_HPP

#include <chrono>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rpx::obs {

/** One complete span (Trace Event Format "X" event). */
struct TraceSpan {
    std::string name;  //!< stage name, e.g. "encode"
    std::string cat;   //!< category, e.g. "pipeline"
    double ts_us = 0;  //!< start, microseconds since recorder epoch
    double dur_us = 0; //!< duration in microseconds
    u32 tid = 0;       //!< lane (one per component)
    i64 frame = -1;    //!< frame index, or -1 when not frame-scoped
};

/**
 * Thread-safe append-only span log.
 */
class TraceRecorder
{
  public:
    TraceRecorder();

    /** Microseconds since the recorder was created (its trace epoch). */
    double nowUs() const;

    void record(TraceSpan span);

    size_t size() const;
    std::vector<TraceSpan> spans() const;

    /** Serialise as Chrome Trace Event Format JSON. */
    void writeJson(std::ostream &os) const;
    /** Write to `path`; throws on I/O failure. */
    void writeJsonFile(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<TraceSpan> spans_;
};

} // namespace rpx::obs

#endif // RPX_OBS_TRACE_HPP
