#ifndef AQE_OBS_TRACE_EVENT_H_
#define AQE_OBS_TRACE_EVENT_H_

#include <cstdint>
#include <cstring>

namespace aqe {

/// What a trace event describes. Every value doubles as the event's name in
/// the exporters (TraceEventKindName), so adding a kind means adding a name.
enum class TraceEventKind : uint8_t {
  kNone = 0,
  /// Span: submit -> first task slice (admission queue + scheduler deque).
  /// detail = scheduling class.
  kAdmissionWait,
  /// Span: one query-task slice on a worker (an engine step, a pipeline
  /// setup, or one controller morsel + evaluation). detail = class,
  /// payload = stage index.
  kTaskSlice,
  /// Span: one morsel through the current variant. detail = ExecMode,
  /// payload = tuples.
  kMorsel,
  /// Instant: a pipeline's morsel domain opened. payload = total tuples.
  kPipelineStart,
  /// Instant: a §III-C evaluation chose to compile. detail = target
  /// ExecMode, payload = remaining tuples, d0 = observed rate r0
  /// [tuples/s/thread], d1 = extrapolated duration of staying in the
  /// current mode [s], d2 = extrapolated duration under the chosen mode
  /// [s], payload2 = runtime-call fraction (bit-cast double).
  kModeSwitch,
  /// Span: JIT compile start -> finish (machine-code generation).
  /// detail = target ExecMode, payload = LLVM instruction count.
  kCompile,
  /// Instant: artifact-cache pipeline lookup reused a cached artifact.
  /// payload = 0 for bytecode, 1 for machine code.
  kCacheHit,
  /// Instant: pipeline lookup found nothing usable (translation follows).
  kCacheMiss,
  /// Instant: a compiled artifact was written back. detail = ExecMode.
  kCachePublish,
  /// Span: first task slice -> completion (service time; queue wait
  /// excluded). payload = result rows, d0 = queue wait [s],
  /// d1 = total [s].
  kQueryDone,
  /// Instant: the regression sentinel flagged a completed query as
  /// anomalously slow for its plan fingerprint. payload = fingerprint
  /// cache key, detail = AnomalyCause, d0 = expected (EWMA) service
  /// [ms], d1 = observed service [ms], d2 = queue wait [ms].
  kAnomaly,
  /// Instant: the scan-pruning access-path decision for one pipeline
  /// (src/index/). detail = AccessPathKind, payload = selected (scheduled)
  /// rows, payload2 = table rows, d0 = estimated selectivity
  /// (selected/table), d1 = analysis seconds (0 on a pruning-cache hit),
  /// d2 = posting-list entries read.
  kScanPrune,
};

const char* TraceEventKindName(TraceEventKind kind);

/// One binary trace event: exactly 64 bytes (8 ring words), fixed layout.
/// Meaning of payload/detail/d0..d2 depends on `kind` (see above); query_id
/// 0 means "not attributed to a query" (bench/test harness recordings).
struct TraceEvent {
  int64_t start_nanos = 0;  ///< MonotonicNanos timeline
  int64_t end_nanos = 0;    ///< == start_nanos for instant events
  uint64_t payload = 0;
  uint64_t payload2 = 0;
  double d0 = 0;
  double d1 = 0;
  double d2 = 0;
  uint32_t query_id = 0;
  uint16_t pipeline_id = 0;
  TraceEventKind kind = TraceEventKind::kNone;
  uint8_t detail = 0;  ///< ExecMode or scheduling class, by kind
};

static_assert(sizeof(TraceEvent) == 64, "events must stay 8 ring words");

inline double TraceEventBitsToDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

inline uint64_t TraceEventDoubleToBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace aqe

#endif  // AQE_OBS_TRACE_EVENT_H_
