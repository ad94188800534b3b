#ifndef AQE_OBS_EXPORT_H_
#define AQE_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace aqe {

/// Renders a TraceSnapshot as Chrome-trace/Perfetto JSON (the "JSON Array
/// with metadata" flavor: {"displayTimeUnit":...,"traceEvents":[...]}),
/// loadable in chrome://tracing and ui.perfetto.dev. One track per lane
/// (a lane is a scheduler worker, in worker order), spans as complete
/// events, point events as instants, and one flow per query id linking
/// admission wait -> task slices -> completion across tracks.
std::string ChromeTraceJson(const TraceSnapshot& snapshot);

/// Renders the ASCII swimlane chart (threads x time, Fig 14 style) from a
/// TraceSnapshot: morsels print the pipeline digit (digit = interpreted,
/// letter = compiled), compilations print '#'.
std::string RenderTextTrace(const TraceSnapshot& snapshot, int num_lanes,
                            int width = 100);

/// Renders a MetricsSnapshot in Prometheus text exposition format
/// (version 0.0.4): counters and gauges as single samples, histograms as
/// cumulative `_bucket{le="..."}` series plus `_sum`/`_count`. Metric
/// names are sanitized ('.'/'-' -> '_') and prefixed `aqe_`; the stats
/// server serves this at GET /metrics.
std::string PrometheusText(const MetricsSnapshot& snapshot);

/// Appends printf-style `fmt` to `out`, at whatever length it formats to.
/// The JSON and text renderers build their output with it.
void Append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// `s` as the inside of a JSON string: quotes and backslashes escaped,
/// control bytes as \u00XX.
std::string JsonEscape(const std::string& s);

}  // namespace aqe

#endif  // AQE_OBS_EXPORT_H_
