#ifndef AQE_OBS_QUERY_PROFILE_H_
#define AQE_OBS_QUERY_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/pipeline_report.h"
#include "obs/tracer.h"

namespace aqe {

struct QueryRunResult;  // engine/query_engine.h (avoids a circular include)

/// Everything EXPLAIN ANALYZE knows about one completed query, folded from
/// the engine's trace rings (events keyed by query id) plus the run result.
struct QueryProfile {
  uint32_t query_id = 0;
  std::string plan_name;
  double total_seconds = 0;
  double queue_wait_seconds = 0;  ///< time-in-queue (admission -> first slice)
  double exec_seconds = 0;        ///< result.exec_seconds_total
  /// Exec time spent outside the pipelines (join-table finalize, aggregate
  /// merge, top-k): exec_seconds minus the pipelines' exec-only time. With
  /// it, the per-pipeline per-mode breakdown below sums back to
  /// exec_seconds (morsel-loop bookkeeping is the only unattributed rest).
  double engine_step_seconds = 0;
  /// Time-on-CPU: summed task-slice durations plus helper-morsel time that
  /// ran outside the query's own slices. > exec when workers overlap.
  double on_cpu_seconds = 0;
  /// JIT wall time this query paid itself (kCompile events attributed to
  /// it). 0 on warm runs — the cache absorbed compilation.
  double compile_seconds = 0;
  uint64_t compiles = 0;
  uint64_t cache_hits = 0;  ///< artifacts reused instead of compiled
  /// Continuous-profiler samples attributed to this query (0 when the
  /// sampler never caught it — short queries at low Hz).
  uint64_t cpu_samples = 0;
  /// Peak tracked allocation across the query's lifetime (memory
  /// accounting; 0 when the engine ran without a tracker).
  uint64_t peak_memory_bytes = 0;
  /// True when any trace ring dropped events inside the query's window:
  /// morsel/mode aggregates below may undercount.
  bool lossy = false;
  /// The run's pipeline reports with `modes` folded in.
  std::vector<PipelineReport> pipelines;

  std::string ToJson() const;
};

/// Folds `snapshot`'s events for `query_id` into a QueryProfile. The
/// snapshot must be taken after the query completed (the engine does this
/// before resolving the promise when QueryRunOptions::collect_profile is
/// set); `result` supplies the per-pipeline reports and totals.
QueryProfile BuildQueryProfile(const TraceSnapshot& snapshot,
                               const QueryRunResult& result,
                               uint32_t query_id,
                               const std::string& plan_name);

/// Human-readable profile: per-pipeline per-mode time, throughput, and one
/// predicted-vs-realized verdict line per mode switch. Returns a hint when
/// the result carries no profile (collect_profile was off).
std::string ExplainAnalyze(const QueryRunResult& result);

}  // namespace aqe

#endif  // AQE_OBS_QUERY_PROFILE_H_
