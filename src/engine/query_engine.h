#ifndef AQE_ENGINE_QUERY_ENGINE_H_
#define AQE_ENGINE_QUERY_ENGINE_H_

#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adaptive/controller.h"
#include "cache/artifact_cache.h"
#include "index/access_path.h"
#include "obs/memory_tracker.h"
#include "obs/metrics.h"
#include "obs/pipeline_report.h"
#include "obs/regression.h"
#include "obs/tracer.h"
#include "plan/plan.h"
#include "vm/translator.h"

namespace aqe {

/// Which execution engine runs the pipelines.
enum class EngineKind {
  kCompiled,    ///< generated code: bytecode VM / JIT / adaptive (§III-IV)
  kVolcano,     ///< tuple-at-a-time baseline (PostgreSQL stand-in)
  kVectorized,  ///< column-at-a-time baseline (MonetDB stand-in)
  kNaiveIr,     ///< direct LLVM-IR interpretation (Fig 2's "LLVM IR")
};

const char* EngineKindName(EngineKind kind);

struct QueryRunOptions {
  EngineKind engine = EngineKind::kCompiled;
  /// Mode policy for kCompiled (ignored by the baselines).
  ExecutionStrategy strategy = ExecutionStrategy::kAdaptive;
  CostModelParams cost_model;
  TranslatorOptions translator;
  /// Strictly one thread executes the query's pipelines (no morsel helper
  /// tasks, compilations inline), and no merge or seal is spread over the
  /// workers; the same on every engine. Set it to reproduce the paper's
  /// single-threaded latency figures.
  bool single_threaded = false;
  /// First adaptive cost-model evaluation happens this long after pipeline
  /// start (paper: 1 ms). Tests lower it to force early mode switches.
  double adaptive_first_eval_seconds = 1e-3;
  /// Consult the engine's plan-keyed artifact cache before translating /
  /// compiling, and publish artifacts back (kCompiled only). Benches that
  /// measure cold compilation costs switch it off.
  bool use_artifact_cache = true;
  /// Weighted-fair class of this query (0..kNumTaskClasses-1; out-of-range
  /// values are clamped). Every task the query spawns — stages, morsel
  /// helpers, adaptive compiles — runs in the class's scheduler lane, and
  /// the query waits for admission in the class's FIFO (see
  /// QueryEngine::Submit). Use a high-weight class for latency-sensitive
  /// tenants so their short queries overtake saturating low-class scans.
  int query_class = 0;
  /// Index/zone-map scan pruning (src/index/): evaluate each pipeline's
  /// filter conjuncts against the scanned table's indexes and schedule only
  /// the morsel ranges that can match, on every engine. A cached compiled
  /// query reuses the decision per plan fingerprint.
  bool scan_pruning = true;
};

/// Everything the engine measured about one completed query;
/// ExplainAnalyze (obs/query_profile.h) renders it.
struct QueryRunResult {
  std::vector<std::vector<int64_t>> rows;  ///< final result
  uint32_t query_id = 0;  ///< what the query's trace events carry
  std::string plan_name;
  EngineKind engine = EngineKind::kCompiled;  ///< names a baseline's mode
  /// Whole query wall time: submit to completion, the query's kQueryDone
  /// end on the same clock.
  double total_seconds = 0;
  /// Admission-to-first-slice wait: how long the query sat in the engine's
  /// admission queue plus the scheduler's deque before its first task slice
  /// ran, exactly its kAdmissionWait span. Makes admission order observable
  /// per query (total_seconds - queue_wait_seconds = service time).
  double queue_wait_seconds = 0;
  std::vector<PipelineReport> pipelines;
  double codegen_millis_total = 0;
  double translate_millis_total = 0;
  double compile_millis_total = 0;  ///< machine-code generation
  /// Pure execution: pipeline run time (minus controller-blocking compiles)
  /// plus engine steps. Translation/compilation are reported separately
  /// above — on a warm artifact-cache hit they are ~0 while this stays.
  double exec_seconds_total = 0;
  /// Peak tracked allocation across the query's lifetime (hash tables,
  /// output buffers, binding arenas, cloned programs). Always populated —
  /// memory accounting is on for every engine query.
  uint64_t peak_memory_bytes = 0;
  /// Time on CPU: the query's own task slices plus its morsel helpers'
  /// busy time (> exec when workers overlap).
  double on_cpu_seconds = 0;
  uint64_t cache_hits = 0;  ///< artifacts reused instead of built
};

/// Per-pipeline compilation-cost measurements (Table I / Fig 6 / Fig 15),
/// without executing the query.
struct PipelineCompileCosts {
  std::string name;
  uint64_t instructions = 0;
  double codegen_millis = 0;
  double bytecode_millis = 0;
  double unopt_millis = 0;
  double opt_millis = 0;
  uint32_t register_file_bytes = 0;
  uint64_t bytecode_ops = 0;  ///< fixed-length VM instructions emitted
  uint64_t fused_ops = 0;     ///< LLVM instructions folded by macro fusion
  uint64_t fused_cmp_branches = 0;  ///< compare-and-branch superinstructions
  /// TranslateToBytecode's status; the bytecode fields stay 0 on an error.
  Status bytecode_status;
  uint64_t runtime_calls = 0;  ///< per-tuple opaque runtime calls (loop body)
  /// Runtime-call-density cost-model input (adaptive/cost_model.h):
  /// fraction of per-tuple time the model attributes to runtime calls.
  double runtime_call_fraction = 0;
};

/// Fails a query's future when one of its pipelines cannot be translated to
/// bytecode (TranslateToBytecode's status): its registers do not fit the
/// VM's 16-bit operand fields. The engine serves the next query as usual.
class TranslationFailed : public std::runtime_error {
 public:
  TranslationFailed(const std::string& pipeline, const std::string& message)
      : std::runtime_error(pipeline + ": " + message) {}
};

/// Engine-level construction options (the two-arg constructor covers the
/// common case; this struct is for the optional subsystems).
struct QueryEngineOptions {
  int num_threads = 4;
  /// >= 0 starts the observability HTTP server (obs/stats_server.h) on
  /// 127.0.0.1:<stats_port> serving GET /metrics (Prometheus text),
  /// /trace.json (Chrome trace), /profiles (the last 64 completed queries'
  /// EXPLAIN ANALYZE JSON + anomalies) and /profile (CollapsedStacks()).
  /// 0 binds an ephemeral port — read it back via
  /// QueryEngine::stats_port().
  /// -1 (default): no server, no socket.
  int stats_port = -1;
};

/// The public facade: executes QueryPrograms against a catalog under any
/// engine/mode combination. Owns a TaskScheduler of `num_threads` workers;
/// one engine serves many concurrent queries — every query, morsel and
/// adaptive JIT compilation is a task on the shared scheduler (see
/// src/sched/DESIGN.md).
class QueryEngine {
 public:
  QueryEngine(const Catalog* catalog, int num_threads = 4);
  QueryEngine(const Catalog* catalog, const QueryEngineOptions& options);
  ~QueryEngine();

  int num_threads() const;

  /// Bound port of the stats server, or -1 when it is disabled / failed to
  /// bind. The server is stopped in the engine destructor.
  int stats_port() const;

  /// Enqueues a query for execution and returns a future for its result.
  /// Thread-safe: N clients share one engine. An admission layer caps the
  /// number of queries in flight; excess queries wait in one FIFO per
  /// class, and a freed slot goes to the head of the waiting class the
  /// scheduler has served least (ties to the earlier arrival). Pipelines
  /// execute as resumable state machines that yield at morsel boundaries,
  /// so a long scan never blocks a worker against later-submitted short
  /// queries; a single-threaded query runs each pipeline in one slice.
  /// `program` must stay alive until the future is ready. Destroying the
  /// engine abandons queued queries: their futures throw
  /// std::future_error (broken_promise) — they never hang. A query that
  /// fails alone throws its typed error from the future:
  /// MemoryBudgetExceeded, or TranslationFailed for a pipeline too large
  /// for bytecode.
  std::future<QueryRunResult> Submit(const QueryProgram& program,
                                     const QueryRunOptions& options = {});

  /// Runs a query synchronously: Submit(...).get(). Must not be called
  /// from inside one of this engine's own tasks (it would deadlock waiting
  /// on the worker it occupies).
  QueryRunResult Run(const QueryProgram& program,
                     const QueryRunOptions& options = {});

  /// Caps concurrently executing queries (admission control). Default:
  /// max(2, 2 * num_threads). Thread-safe; affects queries submitted later.
  void set_max_concurrent_queries(int max_queries);

  /// Weighted-fair share of a query class (default 1): the task scheduler
  /// serves the class's slices, and through them admission's freed slots,
  /// in proportion to weight.
  /// `query_class` is CHECKed to be a class (0..kNumTaskClasses-1).
  /// Thread-safe; takes effect immediately.
  void set_class_weight(int query_class, int weight);

  /// Per-class peak-memory budget in bytes (0 = unlimited, the default).
  /// Enforced twice: at Submit, a fingerprint whose cached peak-memory
  /// estimate exceeds the budget is rejected before it queues; at runtime,
  /// a query whose tracked allocation crosses the budget fails at the next
  /// slice boundary. Both paths fail the query's future with a typed
  /// MemoryBudgetExceeded (obs/memory_tracker.h); other classes are
  /// unaffected. Thread-safe; takes effect for queries submitted later.
  void set_class_memory_budget(int query_class, uint64_t bytes);

  /// Where finished queries spent their CPU, as collapsed-stack text
  /// (flamegraph.pl / speedscope input): one "engine;<plan>;... <µs>" line
  /// per stack, summed over queries since the last
  /// ResetObservabilityStats. Each query adds the exact times its
  /// QueryRunResult holds: per pipeline, morsel busy time per mode (per
  /// engine on a baseline), compiles per target mode, codegen +
  /// translation; per plan, its engine steps. Also served at
  /// GET /profile when the stats server is on. Thread-safe.
  std::string CollapsedStacks() const;

  /// One consistent snapshot of every engine metric, by name: counters and
  /// per-class latency histograms from the metrics registry
  /// (admission.queue_wait_us.classN, engine.exec_latency_us.classN,
  /// jit.compile_us, exec.morsels, ...), folded together with the
  /// scheduler's slice counters, the artifact-cache counters, the
  /// translator's cumulative fusion counters, the VM's per-opcode dispatch
  /// counts (vm.op.*, populated while opcode profiling is on) and the trace
  /// rings' recorded/dropped totals. Thread-safe; see src/obs/DESIGN.md.
  MetricsSnapshot ObservabilitySnapshot() const;

  /// Chrome-trace/Perfetto JSON of the engine's per-worker trace rings:
  /// one track per worker, spans for admission waits / task slices /
  /// morsels / compiles, instants for mode-switch decisions and cache
  /// events, one flow per query. Load in chrome://tracing or
  /// ui.perfetto.dev. Thread-safe (concurrent queries keep recording).
  std::string ExportChromeTrace() const;

  /// ASCII swimlane dump of the trace rings (threads × time, Fig 14
  /// style). Thread-safe.
  std::string RenderTrace(int width = 100) const;

  /// Zeroes every resettable statistic: metric counters and histograms,
  /// trace rings, the flamegraph, artifact-cache counters (residency
  /// untouched), VM per-opcode counts and translator counters. Phase-delta
  /// hygiene for benches; gauges and the scheduler's lifetime slice
  /// counters persist.
  void ResetObservabilityStats();

  /// Routes interpreted execution through the counting dispatch loop so
  /// ObservabilitySnapshot() reports per-opcode counters (vm.op.*). Off by
  /// default. Process-wide, like the counters themselves.
  void set_vm_opcode_profiling(bool enabled);

  /// The engine's always-on tracer (tests and custom exporters; prefer
  /// ExportChromeTrace / RenderTrace).
  const EngineTracer& tracer() const;

  /// Counters and resident footprint of the plan-keyed artifact cache
  /// (hits/misses/evictions; see src/cache/DESIGN.md). Thread-safe.
  ArtifactCacheStats artifact_cache_stats() const;

  /// Read-only view of the artifact cache for introspection: Peek entries
  /// by ArtifactCacheKey (cache/fingerprint.h) to inspect per-pipeline
  /// artifacts.
  const ArtifactCache& artifact_cache() const;

  /// LRU byte budget of the artifact cache (default 256 MiB). Shrinking it
  /// evicts immediately; queries mid-flight keep their artifacts alive via
  /// shared ownership. Thread-safe.
  void set_artifact_cache_byte_budget(uint64_t bytes);

  /// Evicts every artifact-cache entry (ops flush; also how tests force
  /// the eviction->anomaly path deterministically). In-flight queries keep
  /// their artifacts alive via shared ownership. Thread-safe.
  void ClearArtifactCache();

  /// Regression-sentinel sensitivity: a completed query is anomalous when
  /// its service time exceeds `factor` x the fingerprint's EWMA (and
  /// deviates beyond the MAD guard). Default 4.0. Thread-safe.
  void set_anomaly_deviation_factor(double factor);

  /// The regression sentinel's recent anomaly ring (newest last), for
  /// tests and the /profiles endpoint. Thread-safe.
  std::vector<AnomalyRecord> RecentAnomalies() const;

  /// Measures code generation / bytecode translation / machine-code
  /// compilation costs for every pipeline of `program`. `measure_jit`
  /// can be disabled when only translation times matter (huge generated
  /// queries, Fig 15, where optimized compilation takes minutes).
  std::vector<PipelineCompileCosts> MeasureCompileCosts(
      const QueryProgram& program, bool measure_unopt = true,
      bool measure_opt = true,
      const TranslatorOptions& translator_options = {});

 private:
  friend struct QueryEngineTestPeer;  // engine/query_engine_test_peer.h
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace aqe

#endif  // AQE_ENGINE_QUERY_ENGINE_H_
