#include "engine/query_engine.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "cache/fingerprint.h"
#include "codegen/query_compiler.h"
#include "common/status.h"
#include "common/timer.h"
#include "engine/query_engine_test_peer.h"
#include "exec/morsel.h"
#include "index/table_index.h"
#include "jit/jit_compiler.h"
#include "jit/naive_interpreter.h"
#include "obs/export.h"
#include "obs/query_profile.h"
#include "obs/stats_server.h"
#include "runtime/runtime_registry.h"
#include "sched/scheduler.h"
#include "sched/task.h"
#include "vm/interpreter.h"
#include "volcano/volcano.h"
#include "vectorized/vectorized.h"

namespace aqe {
namespace {

/// Bytes the catalog holds resident: column data (rows x value width), the
/// string dictionaries and the secondary indexes. Fixed after load, so the
/// engine measures it once.
struct CatalogFootprint {
  uint64_t column_bytes = 0;
  uint64_t dictionary_bytes = 0;
  uint64_t index_bytes = 0;
};

CatalogFootprint MeasureCatalog(const Catalog& catalog) {
  CatalogFootprint footprint;
  catalog.ForEachTable([&footprint](const Table& table) {
    for (int c = 0; c < table.num_columns(); ++c) {
      const Column& column = table.column(c);
      footprint.column_bytes +=
          column.size() * static_cast<uint64_t>(DataTypeSize(column.type()));
      if (table.has_dictionary(c)) {
        footprint.dictionary_bytes += table.dictionary(c).approx_bytes();
      }
    }
    if (table.indexes() != nullptr) {
      footprint.index_bytes += table.indexes()->approx_bytes;
    }
  });
  return footprint;
}

void NeverCalledWorker(void*, uint64_t, uint64_t, const void*) {
  AQE_UNREACHABLE("placeholder worker variant must never run");
}

/// Engine-step workers, run as morsels by a PipelineRun: `state` is the
/// aggregation set (units are its partitions) or the join table (units are
/// its nodes).
void MergeWorker(void* state, uint64_t begin, uint64_t end, const void*) {
  auto* set = static_cast<AggHashTableSet*>(state);
  for (uint64_t p = begin; p < end; ++p) {
    set->MergePartition(static_cast<int>(p));
  }
}

void SealWorker(void* state, uint64_t begin, uint64_t end, const void*) {
  static_cast<JoinHashTable*>(state)->LinkNodes(begin, end);
}

/// Below these sizes a merge or a seal runs inline on the query's thread.
/// Spreading one is not free: each of its morsels is a slice, so on busy
/// workers the query waits behind their queues once per morsel, and a
/// concurrent link's atomic exchange costs about twice a plain store. At
/// 150 Ki groups or nodes (Q18's merge and Q9's seal at SF 0.1) that cost
/// 4 clients ~6% of their throughput for a wall-time gain under 1 ms. At
/// 450 Ki (SF 0.3) on 4 workers, spreading cuts a merge of Q18's shape
/// from ~16 to ~6 ms, and spreading Q9's orders seal cuts Q9's steps from
/// ~6.9 to ~5.0 ms. Merge work counts the spilled entries left to fold (see
/// AggHashTableSet::BeginMerge), seal work the nodes linked.
constexpr uint64_t kParallelMergeGroups = 1 << 18;
constexpr uint64_t kParallelSealNodes = 1 << 18;

}  // namespace

/// The engine's observability state: the always-on tracer, the metrics
/// registry, and pre-resolved metric handles so query/morsel hot paths
/// never touch the registry's mutex. One per engine, alive for its whole
/// lifetime (declared before the scheduler, so tasks finishing during
/// shutdown still record safely).
struct EngineObs {
  EngineTracer tracer;
  MetricsRegistry metrics;
  std::atomic<uint32_t> next_query_id{1};

  // Declaration order matters: handles resolve against `metrics` above.
  Counter* queries_submitted = metrics.GetCounter("engine.queries_submitted");
  Counter* queries_completed = metrics.GetCounter("engine.queries_completed");
  Counter* morsels = metrics.GetCounter("exec.morsels");
  /// Engine steps (aggregation merges, join seals) spread over the workers.
  Counter* spread_steps = metrics.GetCounter("exec.spread_steps");
  Counter* mode_switches = metrics.GetCounter("adaptive.mode_switches");
  Counter* compiles = metrics.GetCounter("jit.compiles");
  Counter* anomalies = metrics.GetCounter("engine.anomalies");
  /// Per-cause anomaly counters, indexed by AnomalyCause.
  Counter* anomalies_by_cause[kNumAnomalyCauses] = {
      metrics.GetCounter("engine.anomalies.unknown"),
      metrics.GetCounter("engine.anomalies.cache_evicted"),
      metrics.GetCounter("engine.anomalies.mode_regressed"),
      metrics.GetCounter("engine.anomalies.queue_wait"),
      metrics.GetCounter("engine.anomalies.memory_blowup"),
  };
  /// Memory-budget enforcement outcomes, split by where the query failed.
  Counter* budget_rej_admission =
      metrics.GetCounter("mem.budget_rejections.admission");
  Counter* budget_rej_runtime =
      metrics.GetCounter("mem.budget_rejections.runtime");
  Histogram* compile_us = metrics.GetHistogram("jit.compile_us");
  // Scan pruning (src/index/): registry counters, so metrics.Reset()
  // covers them (phase-delta hygiene) and BuildSnapshot picks them up with
  // every other registry metric.
  Counter* pruned_pipelines = metrics.GetCounter("index.pruned_pipelines");
  Counter* rows_pruned = metrics.GetCounter("index.rows_pruned");
  Counter* rows_selected = metrics.GetCounter("index.rows_selected");
  Counter* zone_blocks_pruned = metrics.GetCounter("index.zone_blocks_pruned");
  Counter* posting_entries = metrics.GetCounter("index.posting_entries");
  Counter* prune_cache_hits = metrics.GetCounter("index.prune_cache_hits");
  Counter* prune_cache_misses =
      metrics.GetCounter("index.prune_cache_misses");
  Histogram* queue_wait_us[kNumTaskClasses];
  Histogram* exec_latency_us[kNumTaskClasses];
  /// Completed queries' tracked peak bytes, per admission class — the
  /// distribution class budgets are set against.
  Histogram* mem_peak_by_class[kNumTaskClasses];

  /// Per-fingerprint latency sentinel (obs/regression.h); fed by every
  /// completed cached query, read by snapshots and the stats server.
  RegressionTracker sentinel;

  /// The last kRecentProfiles completed queries' results, without their
  /// rows, for the stats server's /profiles endpoint, and every finished
  /// query's CPU time by plan, for /profile.
  static constexpr size_t kRecentProfiles = 64;
  mutable std::mutex profiles_mu;
  std::deque<QueryRunResult> recent_profiles;
  Flamegraph flamegraph;

  /// Serializes ResetObservabilityStats against snapshot assembly: a
  /// snapshot taken concurrently with a reset sees either every resettable
  /// source pre-reset or every one post-reset, never a mix. `stats_epoch`
  /// counts resets and is exported as the `obs.epoch` gauge so readers can
  /// detect that a phase boundary moved under them.
  mutable std::mutex stats_mu;
  std::atomic<uint64_t> stats_epoch{0};

  /// Live per-query memory trackers, for the mem.current_bytes gauge.
  /// weak_ptr: a finished query's tracker drops out on its own; Submit
  /// prunes expired slots opportunistically.
  mutable std::mutex trackers_mu;
  std::vector<std::weak_ptr<QueryMemoryTracker>> live_trackers;
  /// Engine-lifetime high-water across all queries' tracked peaks.
  std::atomic<uint64_t> engine_peak_bytes{0};

  EngineObs() {
    char name[64];
    for (int c = 0; c < kNumTaskClasses; ++c) {
      std::snprintf(name, sizeof(name), "admission.queue_wait_us.class%d", c);
      queue_wait_us[c] = metrics.GetHistogram(name);
      std::snprintf(name, sizeof(name), "engine.exec_latency_us.class%d", c);
      exec_latency_us[c] = metrics.GetHistogram(name);
      std::snprintf(name, sizeof(name), "mem.query_peak_bytes.class%d", c);
      mem_peak_by_class[c] = metrics.GetHistogram(name);
    }
  }

  /// Folds a finished query's result into every registry metric whose
  /// number it holds (morsels, compiles, mode switches, the index.*
  /// counters), into the flamegraph and, when it completed, into the
  /// completion metrics and /profiles. Both completion paths call it before
  /// the promise resolves. A failed query (its memory budget, a pipeline
  /// it could not translate) passes `completed` false: it adds only the
  /// pipelines it finished.
  /// `consulted_cache`: the query used the artifact cache, so each pruning
  /// analysis is a prune-cache hit or miss.
  void FoldResult(const QueryRunResult& result, int query_class,
                  bool consulted_cache, bool completed) {
    uint64_t morsel_count = 0;
    for (const PipelineReport& report : result.pipelines) {
      for (const ModeSliceProfile& mode : report.modes) {
        morsel_count += mode.morsels;
      }
      for (const auto& compile : report.compiles) {
        compile_us->Record(static_cast<uint64_t>(compile.second * 1e6));
      }
      compiles->Add(report.compiles.size());
      mode_switches->Add(report.mode_switches.size());
      const PruningStats& pruning = report.pruning;
      if (!pruning.analyzed) continue;
      if (report.pruning_cache_hit) {
        prune_cache_hits->Add();
      } else if (consulted_cache) {
        prune_cache_misses->Add();
      }
      rows_selected->Add(pruning.selected_rows);
      posting_entries->Add(pruning.posting_entries);
      // Any other path than a full scan ran a restricted domain.
      if (pruning.primary_path != AccessPathKind::kFullScan) {
        pruned_pipelines->Add();
        rows_pruned->Add(pruning.table_rows - pruning.selected_rows);
        zone_blocks_pruned->Add(pruning.zone_blocks_pruned);
      }
    }
    morsels->Add(morsel_count);
    if (completed) {
      exec_latency_us[query_class]->Record(
          std::max(0.0, result.total_seconds - result.queue_wait_seconds) *
          1e6);
      const uint64_t peak_bytes = result.peak_memory_bytes;
      mem_peak_by_class[query_class]->Record(peak_bytes);
      uint64_t prev = engine_peak_bytes.load(std::memory_order_relaxed);
      while (prev < peak_bytes &&
             !engine_peak_bytes.compare_exchange_weak(
                 prev, peak_bytes, std::memory_order_relaxed)) {
      }
      queries_completed->Add();
    }
    std::lock_guard<std::mutex> lock(profiles_mu);
    flamegraph.Add(result);
    if (!completed) return;
    recent_profiles.push_back(result);
    if (recent_profiles.size() > kRecentProfiles) recent_profiles.pop_front();
  }

  std::string CollapsedStacks() const {
    std::lock_guard<std::mutex> lock(profiles_mu);
    return flamegraph.CollapsedStacks();
  }
};

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kCompiled: return "compiled";
    case EngineKind::kVolcano: return "volcano";
    case EngineKind::kVectorized: return "vectorized";
    case EngineKind::kNaiveIr: return "naive-ir";
  }
  AQE_UNREACHABLE("bad EngineKind");
}

struct QueryEngine::Impl {
  const Catalog* catalog;
  /// Measured at construction, exported as the catalog.* gauges, so a
  /// reader can split the process's resident set into catalog and queries.
  const CatalogFootprint catalog_footprint;

  // Plan-keyed artifact cache (fingerprint -> bytecode + machine code).
  // Declared before the scheduler so publish tasks that run during
  // shutdown still find it alive.
  ArtifactCache cache;

  // Trace rings + metrics registry. Same lifetime rule as the cache: tasks
  // record events until the scheduler's workers join.
  EngineObs obs;

  // Admission: at most `max_active` queries execute at once, so a burst
  // cannot pile unbounded task state onto the scheduler. Excess queries
  // wait in one FIFO per class (see DrainWaiting). Class shares are the
  // scheduler's alone: its weights, per-slice charge and clamps.
  struct Waiter {
    std::unique_ptr<Task> job;
    uint64_t seq;  ///< arrival order across classes
  };
  std::mutex admission_mutex;
  std::deque<Waiter> waiting[kNumTaskClasses];
  uint64_t next_seq = 0;
  int active = 0;
  int max_active;

  /// Per-class peak-memory budgets (0 = unlimited). Checked at Submit
  /// against the fingerprint's cached peak estimate and installed as each
  /// admitted query's tracker soft limit.
  std::atomic<uint64_t> class_budget[kNumTaskClasses] = {};

  // Declared last on purpose: its destructor joins the workers, and a
  // finishing query task touches the admission fields above — they must
  // outlive the workers.
  TaskScheduler sched;

  // Declared after `sched` on purpose: the server thread's handlers walk
  // the tracer and metrics, so it must stop before anything else tears
  // down — destruction runs in reverse declaration order. Null unless
  // QueryEngineOptions::stats_port asked for it (and the bind succeeded).
  std::unique_ptr<StatsServer> stats_server;

  // Thread count clamped to the scheduler's worker range: callers pass
  // hardware_concurrency() on big machines.
  Impl(const Catalog* catalog, int num_threads)
      : catalog(catalog),
        catalog_footprint(MeasureCatalog(*catalog)),
        max_active(std::max(2, 2 * num_threads)),
        sched(std::min(std::max(1, num_threads), TaskScheduler::kMaxWorkers)) {}

  Impl(const Catalog* catalog, const QueryEngineOptions& options)
      : Impl(catalog, options.num_threads) {
    if (options.stats_port >= 0) {
      StatsServer::Handlers handlers;
      handlers.metrics_text = [this] { return PrometheusText(BuildSnapshot()); };
      handlers.trace_json = [this] {
        return ChromeTraceJson(obs.tracer.Snapshot());
      };
      handlers.profiles_json = [this] { return ProfilesJson(); };
      handlers.profile_text = [this] { return obs.CollapsedStacks(); };
      stats_server =
          std::make_unique<StatsServer>(options.stats_port, std::move(handlers));
      if (!stats_server->ok()) stats_server.reset();
    }
  }

  MetricsSnapshot BuildSnapshot() const;
  std::string ProfilesJson() const;

  void Admit(std::unique_ptr<Task> job) {
    const int cls = job->scheduling_class();
    DrainWaiting([&] { waiting[cls].push_back({std::move(job), next_seq++}); });
  }

  /// Called by a finishing query task: hands its slot to a waiting query.
  void OnQueryFinished() { DrainWaiting([this] { --active; }); }

  /// A raised cap releases already-waiting queries immediately.
  void SetMaxActive(int max_queries) {
    DrainWaiting([&] { max_active = max_queries; });
  }

  /// Applies `change` under admission_mutex, gives each free slot to the
  /// head of the waiting class with the lowest class_vtime (ties to the
  /// earlier arrival), and submits those queries outside the lock.
  template <typename Change>
  void DrainWaiting(Change change) {
    std::vector<std::unique_ptr<Task>> ready;
    {
      std::lock_guard<std::mutex> lock(admission_mutex);
      change();
      const auto order = [this](int c) {
        return std::make_pair(sched.class_vtime(c), waiting[c].front().seq);
      };
      while (active < max_active) {
        int cls = -1;
        for (int c = 0; c < kNumTaskClasses; ++c) {
          if (!waiting[c].empty() && (cls < 0 || order(c) < order(cls))) {
            cls = c;
          }
        }
        if (cls < 0) break;  // nothing waiting
        ready.push_back(std::move(waiting[cls].front().job));
        waiting[cls].pop_front();
        ++active;
      }
    }
    for (auto& task : ready) sched.Submit(std::move(task));
  }
};

namespace {

/// One query in flight: a task that executes one bounded slice at a time —
/// an engine step, a pipeline-setup (bind + cache lookup + translation), or
/// one controller morsel of the embedded resumable PipelineRun — and yields
/// between slices, so concurrent queries sharing a worker interleave at
/// morsel granularity even inside a pipeline. All state lives in this
/// object, not on any thread: a yielded query can resume on whichever
/// worker picks it up (steals included), mid-pipeline.
class QueryJob : public Task {
 public:
  QueryJob(const Catalog* catalog, TaskScheduler* sched, ArtifactCache* cache,
           EngineObs* obs, uint32_t query_id, const QueryProgram& program,
           const QueryRunOptions& options, std::function<void()> on_finished)
      : sched_(sched),
        cache_(cache),
        obs_(obs),
        query_id_(query_id),
        submit_nanos_(MonotonicNanos()),
        program_(&program),
        options_(options),
        // Every engine query is memory-accounted: every runtime structure
        // the context creates charges the tracker.
        memory_(std::make_shared<QueryMemoryTracker>()),
        ctx_(program.MakeContext(catalog, memory_.get())),
        on_finished_(std::move(on_finished)) {
    result_.query_id = query_id;
    result_.plan_name = program.name();
    result_.engine = options.engine;
    if (options_.engine == EngineKind::kCompiled &&
        options_.use_artifact_cache && !program.pipelines().empty()) {
      // Fingerprint on the submitting thread: cheap (a hash walk over the
      // plan), and it makes the entry visible before any stage runs.
      fingerprint_ = FingerprintProgram(program);
      bool created_entry = false;
      entry_ = cache_->Intern(
          ArtifactCacheKey(fingerprint_, options_.translator),
          program.pipelines().size(), program.name(), &created_entry);
      // The plan's record (RegressionTracker::Lookup) outlives its cache
      // entry, so a plan with a record whose entry had to be created again
      // was evicted. A plan with no record has a peak estimate of 0: it is
      // admitted, and the runtime soft limit catches it instead.
      if (const std::optional<PlanStats> stats =
              obs_->sentinel.Lookup(entry_->key)) {
        estimated_peak_bytes_ = static_cast<uint64_t>(stats->ewma_peak_bytes);
        evicted_ = created_entry;
      }
    }
  }

  std::future<QueryRunResult> GetFuture() { return promise_.get_future(); }

  /// Cache-estimated peak footprint (the fingerprint's peak-memory EWMA;
  /// 0 when the plan has no completed runs). What admission checks against
  /// the class byte budget.
  uint64_t estimated_peak_bytes() const { return estimated_peak_bytes_; }
  std::shared_ptr<QueryMemoryTracker> tracker() const { return memory_; }

  /// Installs the class budget as the tracker's soft limit (0 = none);
  /// runtime growth past it fails the query at the next slice boundary.
  void set_memory_budget(uint64_t bytes) { memory_->set_soft_limit(bytes); }

  /// Admission-time rejection: fails the future with the typed error
  /// without ever admitting the job (the caller drops it; on_finished_
  /// must not run — no admission slot was taken).
  void FailAdmission(uint64_t budget_bytes) {
    promise_.set_exception(std::make_exception_ptr(MemoryBudgetExceeded(
        scheduling_class(), budget_bytes, estimated_peak_bytes_,
        /*at_admission=*/true)));
  }

  /// One bounded slice, bracketed by trace events. Client threads never
  /// touch the single-producer rings, so the admission wait is recorded
  /// retroactively by whichever worker runs the first slice (the span
  /// still starts at submit time).
  Status Run(int worker) override {
    slice_start_nanos_ = MonotonicNanos();
    if (!started_) {
      started_ = true;
      first_slice_nanos_ = slice_start_nanos_;
      result_.queue_wait_seconds = SecondsSinceSubmit(slice_start_nanos_);
      const int cls = scheduling_class();
      obs_->queue_wait_us[cls]->Record(result_.queue_wait_seconds * 1e6);
      TraceEvent ev;
      ev.start_nanos = submit_nanos_;
      ev.end_nanos = slice_start_nanos_;
      ev.query_id = query_id_;
      ev.kind = TraceEventKind::kAdmissionWait;
      ev.detail = static_cast<uint8_t>(cls);
      obs_->tracer.Record(worker, ev);
    }
    const Status status = RunSlice(worker);
    // The last slice (kDone) recorded itself before resolving the promise.
    if (status == Status::kYield) {
      RecordSliceEnd(worker, MonotonicNanos(), /*query_done=*/false);
    }
    return status;
  }

 private:
  /// The query's one run in flight, a pipeline on any engine or a spread
  /// merge or seal, with what must survive suspension: the worker's `state`
  /// and what keeps its `extra` alive, the handle compile tasks flip and
  /// the report the run fills. Destroyed only after the run quiesced
  /// (invariant 3 in adaptive/controller.h): `run` is declared last.
  struct ActiveRun {
    ActiveRun(WorkerFn fn, const void* extra) : handle(fn, extra) {}

    bool is_pipeline = false;  ///< else a merge or seal
    std::vector<uint64_t> binding_values;  ///< compiled, naive-IR `state`
    InterpretedPipeline interpreted;       ///< volcano, vectorized `state`
    /// Bytecode, cache-seeded machine code, naive-IR's module.
    std::vector<std::shared_ptr<const void>> keepalive;
    uint64_t charged_bytes = 0;  ///< binding array + private bytecode
    FunctionHandle handle;
    PipelineReport report;
    std::unique_ptr<PipelineRun> run;
  };

  /// The query's one clock: every duration in its result is a difference
  /// of MonotonicNanos reads from the submit, as its trace spans are.
  double SecondsSinceSubmit(int64_t nanos) const {
    return static_cast<double>(nanos - submit_nanos_) / 1e9;
  }

  /// Records the slice that began at slice_start_nanos_ and ends at
  /// `end_nanos` and, on the query's last slice, kQueryDone. Both
  /// completion paths call this before resolving the promise, so a client
  /// whose future is ready finds the query's finish in the very next trace
  /// snapshot.
  void RecordSliceEnd(int worker, int64_t end_nanos, bool query_done) {
    TraceEvent ev;
    ev.start_nanos = slice_start_nanos_;
    ev.end_nanos = end_nanos;
    ev.payload = stage_index_;
    ev.query_id = query_id_;
    ev.kind = TraceEventKind::kTaskSlice;
    ev.detail = static_cast<uint8_t>(scheduling_class());
    obs_->tracer.Record(worker, ev);
    result_.on_cpu_seconds +=
        static_cast<double>(ev.end_nanos - ev.start_nanos) / 1e9;
    if (!query_done) return;
    TraceEvent done = ev;  // same end, query and class
    done.start_nanos = first_slice_nanos_;
    done.payload = result_.rows.size();
    done.d0 = result_.queue_wait_seconds;
    done.d1 = result_.total_seconds;
    done.kind = TraceEventKind::kQueryDone;
    obs_->tracer.Record(worker, done);
  }

  /// Fails the future with the query's typed error at a slice boundary,
  /// where unwinding is safe, and releases the admission slot: a pipeline
  /// that could not be translated (failure_), or runtime budget
  /// enforcement, when the tracker latched over-budget (Charge never throws
  /// under VM/JIT frames). Returns true when the query was failed. An
  /// active PipelineRun is destroyed through its abandoned-run path (drain
  /// the domain, wait out in-flight helpers), so no task touches freed
  /// state.
  bool FinishIfFailed(int worker) {
    if (failure_ == nullptr && !memory_->over_budget()) return false;
    const int64_t now = MonotonicNanos();
    if (failure_ == nullptr) {
      obs_->budget_rej_runtime->Add();
      failure_ = std::make_exception_ptr(MemoryBudgetExceeded(
          scheduling_class(), memory_->soft_limit(), memory_->current_bytes(),
          /*at_admission=*/false));
      // The run never completes (RecordServiceTime is skipped on this
      // path), but the plan's record still learns its footprint, so the
      // next submission of this plan is rejected at admission instead of
      // executing to the failure point again.
      if (entry_ != nullptr) {
        const double service_ms = std::max(
            0.0,
            (SecondsSinceSubmit(now) - result_.queue_wait_seconds) * 1e3);
        obs_->sentinel.ObserveBudgetFailure(entry_->key, service_ms,
                                            memory_->peak_bytes());
      }
    }
    if (active_ != nullptr) {
      // The abandoned run's partial report goes with it.
      memory_->Release(active_->charged_bytes);
      active_.reset();
    }
    obs_->FoldResult(result_, scheduling_class(), entry_ != nullptr,
                     /*completed=*/false);
    RecordSliceEnd(worker, now, /*query_done=*/true);
    promise_.set_exception(failure_);
    on_finished_();
    return true;
  }

  /// The pre-instrumentation slice body: one engine step, pipeline setup,
  /// or controller checkpoint of the active run (a pipeline, or a parallel
  /// merge or seal).
  Status RunSlice(int worker) {
    if (FinishIfFailed(worker)) return Status::kDone;
    if (active_ != nullptr) {
      // Mid-run: one controller checkpoint per slice.
      if (active_->run->Step(worker) != Status::kDone) return Status::kYield;
      FinishRun();
    }
    // The size check comes first: a QueryProgram with no stages at all
    // must still produce an (empty) result.
    if (stage_index_ < program_->stages().size()) {
      if (!AdvanceStage(worker)) return Status::kYield;  // work in flight
      if (++stage_index_ < program_->stages().size()) return Status::kYield;
    }
    // The last stage may have grown past the budget inside its own slice.
    if (FinishIfFailed(worker)) return Status::kDone;
    result_.rows = std::move(ctx_->result);
    const int64_t done_nanos = MonotonicNanos();
    result_.total_seconds = SecondsSinceSubmit(done_nanos);
    result_.peak_memory_bytes = memory_->peak_bytes();
    RecordServiceTime(worker);
    // Completion metrics and events land before the promise resolves, so
    // a client that saw its future ready observes them in the very next
    // snapshot.
    RecordSliceEnd(worker, done_nanos, /*query_done=*/true);
    // /profiles keeps the result without its rows.
    std::vector<std::vector<int64_t>> rows = std::move(result_.rows);
    obs_->FoldResult(result_, scheduling_class(), entry_ != nullptr,
                     /*completed=*/true);
    result_.rows = std::move(rows);
    promise_.set_value(std::move(result_));
    on_finished_();
    return Status::kDone;
  }

  void RecordServiceTime(int worker);
  bool AdvanceStage(int worker);
  bool SpreadsSteps() const;
  bool StartSealRun(const PipelineSpec& spec);
  bool MergeAggregation(const PipelineSpec& spec);
  void StartSpreadStep(WorkerFn worker, void* state, uint64_t units,
                       uint64_t morsel_units);
  void StartPipeline(const QueryProgram::Stage& stage,
                     const PipelineSpec& spec, int worker);
  std::shared_ptr<const ScanDomain> PlanScan(
      const PipelineSpec& spec, const Table& source,
      const ArtifactRequest& request, const CachedArtifacts& cached,
      PipelineReport* report, int worker);
  std::unique_ptr<ActiveRun> PrepareCompiledRun(
      const PipelineSpec& spec, PipelineBindings bindings,
      ArtifactRequest request, CachedArtifacts cached, PipelineReport* report,
      PipelineTask* task, int worker);
  void StartRun(std::unique_ptr<ActiveRun> run, PipelineTask task);
  void FinishRun();

  TaskScheduler* sched_;
  ArtifactCache* cache_;
  EngineObs* obs_;
  uint32_t query_id_;
  int64_t submit_nanos_;
  int64_t first_slice_nanos_ = 0;
  int64_t slice_start_nanos_ = 0;
  const QueryProgram* program_;
  QueryRunOptions options_;
  /// Per-query memory accounting, charged by every runtime structure ctx_
  /// holds and by the run itself. Declared before ctx_ so it is destroyed
  /// after the context: charged structures hold raw tracker pointers and
  /// call Release() from their destructors.
  std::shared_ptr<QueryMemoryTracker> memory_;
  std::unique_ptr<QueryContext> ctx_;
  PlanFingerprint fingerprint_;
  std::shared_ptr<CacheEntry> entry_;  ///< null when the cache is bypassed
  /// Submit re-created the entry of a plan that has a record: evicted.
  bool evicted_ = false;
  QueryRunResult result_;
  size_t stage_index_ = 0;
  bool started_ = false;
  uint64_t estimated_peak_bytes_ = 0;
  std::promise<QueryRunResult> promise_;
  /// The typed error the next slice fails the query with, once set.
  std::exception_ptr failure_;
  std::function<void()> on_finished_;
  /// The current pipeline stage has run its pipeline; what is left is
  /// merging the aggregation it fills.
  bool stage_ran_ = false;
  /// Declared after ctx_: destroyed first, so a run abandoned at shutdown
  /// quiesces while the context its bindings point into is still alive.
  std::unique_ptr<ActiveRun> active_;
};

/// Folds this run's service time (queue wait excluded) and peak into the
/// plan's record, whose peak the next submit's budget check reads. The
/// sentinel flags the run (counter + kAnomaly trace event on this worker's
/// lane) when it deviates from the record.
void QueryJob::RecordServiceTime(int worker) {
  if (entry_ == nullptr) return;

  RegressionTracker::Observation sample;
  sample.fingerprint = entry_->key;
  sample.query_id = query_id_;
  sample.service_ms = std::max(
      0.0, (result_.total_seconds - result_.queue_wait_seconds) * 1e3);
  sample.queue_wait_ms = result_.queue_wait_seconds * 1e3;
  sample.peak_bytes = result_.peak_memory_bytes;
  for (const PipelineReport& report : result_.pipelines) {
    sample.final_mode = std::max(sample.final_mode, report.final_mode);
  }
  sample.cache_miss = evicted_;
  sample.plan_name = program_->name();
  AnomalyRecord anomaly;
  if (obs_->sentinel.Observe(std::move(sample), &anomaly)) {
    obs_->anomalies->Add();
    obs_->anomalies_by_cause[static_cast<int>(anomaly.cause)]->Add();
    TraceEvent ev;
    ev.start_nanos = anomaly.nanos;
    ev.end_nanos = anomaly.nanos;
    ev.payload = anomaly.fingerprint;
    ev.d0 = anomaly.expected_ms;
    ev.d1 = anomaly.observed_ms;
    ev.d2 = anomaly.queue_wait_ms;
    ev.query_id = query_id_;
    ev.kind = TraceEventKind::kAnomaly;
    ev.detail = static_cast<uint8_t>(anomaly.cause);
    obs_->tracer.Record(worker, ev);
  }
}

/// Advances the current stage as far as it goes on this slice. Returns true
/// when the stage is complete, false when it left a run in flight (a
/// pipeline, or a parallel merge or seal), after which the next slice calls
/// it again.
bool QueryJob::AdvanceStage(int worker) {
  const QueryProgram::Stage& stage = program_->stages()[stage_index_];
  if (stage.pipeline < 0) {
    Timer timer;
    RunStep(program_->steps()[static_cast<size_t>(stage.step)], ctx_.get());
    result_.exec_seconds_total += timer.ElapsedSeconds();
    return true;
  }
  const PipelineSpec& spec =
      program_->pipelines()[static_cast<size_t>(stage.pipeline)];
  if (!stage_ran_) {
    if (StartSealRun(spec)) return false;
    StartPipeline(stage, spec, worker);
    stage_ran_ = true;
    return false;
  }
  if (MergeAggregation(spec)) return false;
  stage_ran_ = false;
  return true;
}

/// Whether a large seal or merge is spread over the workers: never for a
/// single-threaded query.
bool QueryJob::SpreadsSteps() const {
  return !options_.single_threaded && sched_->num_workers() >= 2;
}

/// Starts a parallel seal of the first large join table `spec` probes that
/// is not sealed yet, and returns true; false when none is left. Smaller
/// tables, and every table when steps are not spread, are sealed by
/// BindPipeline on the query's thread.
bool QueryJob::StartSealRun(const PipelineSpec& spec) {
  if (!SpreadsSteps()) return false;
  for (const PipelineOp& op : spec.ops) {
    const auto* probe = std::get_if<OpProbe>(&op);
    if (probe == nullptr) continue;
    JoinHashTable* ht = ctx_->join_tables[static_cast<size_t>(probe->ht)].get();
    if (ht->sealed() || ht->size() < kParallelSealNodes) continue;
    Timer timer;
    const uint64_t nodes = ht->BeginSeal();
    result_.exec_seconds_total += timer.ElapsedSeconds();
    StartSpreadStep(&SealWorker, ht, nodes, /*morsel_units=*/0);
    return true;
  }
  return false;
}

/// Merges the aggregation set `spec` fills, if it fills one. A large merge
/// starts as a parallel run over the partitions (returns true); anything
/// else merges inline, partition by partition.
bool QueryJob::MergeAggregation(const PipelineSpec& spec) {
  const auto* sink = std::get_if<SinkAgg>(&spec.sink);
  if (sink == nullptr) return false;
  AggHashTableSet* set = ctx_->agg_sets[static_cast<size_t>(sink->agg)].get();
  Timer timer;
  const uint64_t groups = set->BeginMerge();
  if (SpreadsSteps() && groups >= kParallelMergeGroups) {
    StartSpreadStep(&MergeWorker, set, kAggPartitions, /*morsel_units=*/1);
    result_.exec_seconds_total += timer.ElapsedSeconds();
    return true;
  }
  for (int p = 0; groups > 0 && p < kAggPartitions; ++p) {
    set->MergePartition(p);
  }
  result_.exec_seconds_total += timer.ElapsedSeconds();
  return false;
}

/// Starts an engine step spread over the workers: a run whose handle holds
/// a native worker (MergeWorker, SealWorker) over `units`, and whose
/// PipelineObs is empty, so it records no trace events.
void QueryJob::StartSpreadStep(WorkerFn worker, void* state, uint64_t units,
                               uint64_t morsel_units) {
  obs_->spread_steps->Add();
  PipelineTask task;
  task.state = state;
  task.domain = ScanDomain::Make({{0, units}}, units);
  task.morsel_tuples = morsel_units;
  StartRun(std::make_unique<ActiveRun>(worker, nullptr), std::move(task));
}

/// Starts one pipeline the same way on every engine: bind, the artifact-
/// cache lookup (when the query has an entry), the scan's domain, a handle
/// over the engine's worker, a PipelineTask, a PipelineRun. The engine picks
/// only the worker and what keeps it alive.
void QueryJob::StartPipeline(const QueryProgram::Stage& stage,
                             const PipelineSpec& spec, int worker) {
  const auto p = static_cast<size_t>(stage.pipeline);
  PipelineReport report;
  report.name = spec.name;
  report.pipeline_index = static_cast<uint32_t>(stage.pipeline);
  const Table& source = *program_->ResolveTable(spec.source_table, *ctx_);

  // Binding seals the join tables this pipeline probes, linking what their
  // builds inserted: join-table finalize, so it counts as an engine step.
  Timer bind_timer;
  PipelineBindings bindings = BindPipeline(*program_, spec, *ctx_);
  result_.exec_seconds_total += bind_timer.ElapsedSeconds();

  // --- artifact-cache lookup: what it returns stays alive by shared_ptr ---
  ArtifactRequest request;
  request.pipeline = p;
  request.strategy = options_.strategy;
  request.pruning = options_.scan_pruning && source.indexes() != nullptr;
  CachedArtifacts cached;
  if (entry_ != nullptr) {
    const auto [cb, ce] = fingerprint_.pipeline_constants[p];
    request.constants.assign(fingerprint_.constants.begin() + cb,
                             fingerprint_.constants.begin() + ce);
    request.pruning_key = fingerprint_.pruning_key;
    cached = cache_->Lookup(*entry_, request);
  }

  PipelineTask task;
  task.pipeline_id = stage.pipeline;
  task.domain = PlanScan(spec, source, request, cached, &report, worker);

  std::unique_ptr<ActiveRun> run;
  if (options_.engine == EngineKind::kCompiled) {
    run = PrepareCompiledRun(spec, std::move(bindings), std::move(request),
                             std::move(cached), &report, &task, worker);
  } else if (options_.engine == EngineKind::kNaiveIr) {
    // Fig 2's "LLVM IR" mode: interpret the generated IR objects.
    GeneratedPipeline generated =
        GeneratePipeline(spec, bindings, LiteralForm::kImmediate);
    report.instructions = generated.instructions;
    report.codegen_millis = generated.codegen_millis;
    result_.codegen_millis_total += generated.codegen_millis;
    run = std::make_unique<ActiveRun>(
        &NaiveIrWorker, generated.mod->module().getFunction("worker"));
    run->keepalive.push_back(std::move(generated.mod));
    run->binding_values = bindings.Pack();
    task.state = run->binding_values.data();
  } else {
    run = std::make_unique<ActiveRun>(options_.engine == EngineKind::kVolcano
                                          ? &VolcanoWorker
                                          : &VectorizedWorker,
                                      nullptr);
    run->interpreted = {&spec, &source, ctx_.get()};
    task.state = &run->interpreted;
  }
  if (run == nullptr) return;  // failure_ fails the query next slice
  run->is_pipeline = true;
  run->report = std::move(report);
  StartRun(std::move(run), std::move(task));
}

/// The rows `spec`'s scan schedules, decided the same way on every engine
/// (src/index/DESIGN.md §2): the cached pruning decision, or a fresh
/// analysis (published back when the query has a cache entry), or the full
/// range when `request` does not prune or the analysis keeps every row.
/// Fills the report's pruning stats and tuples — the scheduled-row count
/// every downstream consumer reasons over (§III-C extrapolation, EXPLAIN
/// ANALYZE) — and records the kScanPrune event.
std::shared_ptr<const ScanDomain> QueryJob::PlanScan(
    const PipelineSpec& spec, const Table& source,
    const ArtifactRequest& request, const CachedArtifacts& cached,
    PipelineReport* report, int worker) {
  // The pipeline's total work, known at pipeline start (§III-A).
  report->tuples = source.num_rows();
  std::shared_ptr<const ScanDomain> domain;
  if (request.pruning) {
    if (cached.pruning.has_value()) {
      domain = cached.pruning->domain;
      report->pruning = cached.pruning->stats;
      report->pruning.analysis_seconds = 0;  // no analysis this run
      report->pruning_cache_hit = true;
    } else {
      ScanPruning pruning = AnalyzeScanPruning(spec, source);
      report->pruning = pruning.stats;
      domain = std::move(pruning.domain);
      if (entry_ != nullptr) {
        cache_->PublishPruning(*entry_, request, {domain, report->pruning});
      }
    }
    if (report->pruning.analyzed) {
      if (domain != nullptr) report->tuples = report->pruning.selected_rows;
      TraceEvent ev;
      ev.start_nanos = MonotonicNanos();
      ev.end_nanos = ev.start_nanos;
      ev.payload = report->pruning.selected_rows;
      ev.payload2 = report->pruning.table_rows;
      ev.d0 = report->pruning.selected_fraction();
      ev.d1 = report->pruning.analysis_seconds;
      ev.d2 = static_cast<double>(report->pruning.posting_entries);
      ev.query_id = query_id_;
      ev.pipeline_id = static_cast<uint16_t>(request.pipeline);
      ev.kind = TraceEventKind::kScanPrune;
      ev.detail = static_cast<uint8_t>(report->pruning.primary_path);
      obs_->tracer.Record(worker, ev);
    }
  }
  if (domain == nullptr) {
    domain = ScanDomain::Make({{0, report->tuples}}, report->tuples);
  }
  return domain;
}

/// Sets up one compiled pipeline's run from the artifact-cache lookup's
/// result: (on miss) codegen + translation, handle seeding, the compile
/// hook. Everything the run touches across suspensions moves into the
/// returned ActiveRun; the pipeline's fields of `task` and `report` are
/// filled in place. Returns null when translation failed, with failure_
/// set for the next slice.
std::unique_ptr<QueryJob::ActiveRun> QueryJob::PrepareCompiledRun(
    const PipelineSpec& spec, PipelineBindings bindings,
    ArtifactRequest request, CachedArtifacts cached, PipelineReport* report,
    PipelineTask* task, int worker) {
  const QueryRunOptions& options = options_;
  const RuntimeRegistry& registry = RuntimeRegistry::Global();

  // Cache lookup outcomes below emit instant events on this worker's lane.
  const auto cache_instant = [&](TraceEventKind kind, uint64_t payload) {
    TraceEvent ev;
    ev.start_nanos = MonotonicNanos();
    ev.end_nanos = ev.start_nanos;
    ev.payload = payload;
    ev.query_id = query_id_;
    ev.pipeline_id = static_cast<uint16_t>(request.pipeline);
    ev.kind = kind;
    obs_->tracer.Record(worker, ev);
    if (kind == TraceEventKind::kCacheHit) ++result_.cache_hits;
  };

  // The worker reads every runtime address out of this packed binding
  // array (its `state` argument); it must outlive the pipeline run.
  std::vector<uint64_t> binding_values = bindings.Pack();

  const bool needs_bytecode =
      options.strategy == ExecutionStrategy::kBytecode ||
      options.strategy == ExecutionStrategy::kAdaptive;

  std::shared_ptr<const BcProgram> bytecode = cached.bytecode;
  if (bytecode != nullptr) {
    report->artifact_cache_hit = true;
    cache_instant(TraceEventKind::kCacheHit, /*payload=*/0);
  }

  // --- code generation / translation (cache misses only) ------------------
  uint64_t instructions = cached.instructions;
  double call_fraction = cached.runtime_call_fraction;
  GeneratedPipeline generated;  // .mod stays null when cached artifacts hit
  const bool need_translation = needs_bytecode && bytecode == nullptr;
  if (need_translation || (!needs_bytecode && cached.seed_code == nullptr)) {
    generated = GeneratePipeline(
        spec, bindings,
        need_translation ? LiteralForm::kBound : LiteralForm::kImmediate);
    instructions = generated.instructions;
    call_fraction = RuntimeCallFraction(
        generated.loop_instructions, generated.loop_calls,
        options_.cost_model);
    report->codegen_millis = generated.codegen_millis;
    result_.codegen_millis_total += generated.codegen_millis;
  }
  report->instructions = instructions;

  if (need_translation) {
    Timer timer;
    aqe::Status status;  // Task::Status shadows it here
    auto fresh = std::make_shared<BcProgram>(TranslateToBytecode(
        *generated.mod->module().getFunction("worker"), registry,
        options.translator, &status));
    report->translate_millis = timer.ElapsedMillis();
    result_.translate_millis_total += report->translate_millis;
    if (!status.ok()) {
      failure_ = std::make_exception_ptr(
          TranslationFailed(spec.name, status.message()));
      return nullptr;
    }

    if (entry_ != nullptr) {
      cache_instant(TraceEventKind::kCacheMiss, /*payload=*/0);
      if (cache_->PublishBytecode(*entry_, request, fresh, instructions,
                                  call_fraction)) {
        cache_instant(TraceEventKind::kCachePublish, /*payload=*/0);
      }
    }
    bytecode = std::move(fresh);
  }
  if (bytecode != nullptr) {
    report->register_file_bytes = bytecode->register_file_size;
  }

  auto run = std::make_unique<ActiveRun>(
      bytecode != nullptr ? &VmExecuteWorker : &NeverCalledWorker,
      static_cast<const void*>(bytecode.get()));
  run->binding_values = std::move(binding_values);
  // Per-run allocations the context's trackers can't see: the packed
  // binding array and the bytecode this run translated. A cache-resident
  // program is the cache's footprint, not this query's.
  run->charged_bytes = run->binding_values.size() * sizeof(uint64_t);
  if (need_translation) run->charged_bytes += BcProgramBytes(*bytecode);
  memory_->Charge(run->charged_bytes);
  run->keepalive.push_back(std::move(bytecode));
  if (cached.seed_code != nullptr) {
    run->handle.SetCompiled(cached.seed_code->fn, cached.seed_mode);
    run->keepalive.push_back(std::move(cached.seed_code));
    cache_instant(TraceEventKind::kCacheHit, /*payload=*/1);
    report->artifact_cache_hit = true;
  }

  task->state = run->binding_values.data();
  task->function_instructions = instructions;
  task->runtime_call_fraction = call_fraction;
  task->obs = {&obs_->tracer, query_id_};
  task->compile = [&spec, bindings = std::move(bindings),
                   request = std::move(request), cache = cache_,
                   entry = entry_, tracer = &obs_->tracer,
                   query_id = query_id_,
                   cost_model = options_.cost_model](ExecMode mode) {
    // Regenerate IR (codegen is ~100x cheaper than machine-code
    // generation, Fig 1) so each job owns its LLVMContext. The controller
    // calls this hook while the plan, and so `spec`, is alive; the job it
    // returns owns everything it reads, so it may finish after the query.
    GeneratedPipeline fresh =
        GeneratePipeline(spec, bindings, LiteralForm::kImmediate);
    const double call_fraction = RuntimeCallFraction(
        fresh.loop_instructions, fresh.loop_calls, cost_model);
    return CompileJob([mod = std::shared_ptr<IrModule>(std::move(fresh.mod)),
                       mode, request, cache, entry, tracer, query_id,
                       instructions = fresh.instructions,
                       call_fraction]() -> CompiledCode {
      aqe::Status status;  // Task::Status shadows it here
      auto compiled =
          JitCompile(std::move(*mod),
                     mode == ExecMode::kOptimized ? JitMode::kOptimized
                                                  : JitMode::kUnoptimized,
                     RuntimeRegistry::Global(), &status);
      if (!status.ok()) return {};  // the pipeline keeps its tier
      auto* fn = reinterpret_cast<WorkerFn>(compiled->Lookup("worker"));
      if (fn == nullptr) return {};
      auto code = std::make_shared<CachedCode>();
      code->code_bytes = compiled->code_bytes();
      code->module = std::move(compiled);
      code->fn = fn;
      if (entry != nullptr) {
        // The entry and code are held by shared_ptr, so a publish racing
        // engine shutdown or LRU eviction touches only live memory.
        cache->PublishCode(*entry, request, mode, code, instructions,
                           call_fraction);
        TraceEvent ev;
        ev.start_nanos = MonotonicNanos();
        ev.end_nanos = ev.start_nanos;
        ev.payload = 1;  // machine code (bytecode publishes happen inline)
        ev.query_id = query_id;
        ev.pipeline_id = static_cast<uint16_t>(request.pipeline);
        ev.kind = TraceEventKind::kCachePublish;
        ev.detail = static_cast<uint8_t>(mode);
        tracer->Record(TaskScheduler::CurrentWorker(), ev);
      }
      return {fn, std::move(code)};
    });
  };

  return run;
}

/// Hands `run` its PipelineRun and makes it the query's active run; the
/// next slices step it one controller checkpoint at a time. Only a
/// compiled pipeline has modes to choose between.
void QueryJob::StartRun(std::unique_ptr<ActiveRun> run, PipelineTask task) {
  task.handle = &run->handle;
  task.report = &run->report;
  task.scheduling_class = scheduling_class();
  const bool compiled =
      run->is_pipeline && options_.engine == EngineKind::kCompiled;
  run->run = std::make_unique<PipelineRun>(
      sched_, compiled ? options_.strategy : ExecutionStrategy::kBytecode,
      options_.cost_model, task, options_.single_threaded,
      options_.adaptive_first_eval_seconds);
  active_ = std::move(run);
}

/// Post-run accounting, after the active run filled its report and
/// reported kDone. A pipeline's report joins the result; a spread step's
/// time counts as engine steps.
void QueryJob::FinishRun() {
  memory_->Release(active_->charged_bytes);
  PipelineReport& report = active_->report;
  result_.exec_seconds_total += report.exec_only_seconds;
  result_.on_cpu_seconds += report.helper_busy_seconds;
  for (const auto& [mode, seconds] : report.compiles) {
    result_.compile_millis_total += seconds * 1e3;
  }
  if (active_->is_pipeline) result_.pipelines.push_back(std::move(report));
  active_.reset();
}

}  // namespace

QueryEngine::QueryEngine(const Catalog* catalog, int num_threads)
    : impl_(std::make_unique<Impl>(catalog, num_threads)) {}

QueryEngine::QueryEngine(const Catalog* catalog,
                         const QueryEngineOptions& options)
    : impl_(std::make_unique<Impl>(catalog, options)) {}

QueryEngine::~QueryEngine() = default;

int QueryEngine::stats_port() const {
  return impl_->stats_server != nullptr ? impl_->stats_server->port() : -1;
}

int QueryEngine::num_threads() const { return impl_->sched.num_workers(); }

void QueryEngine::set_max_concurrent_queries(int max_queries) {
  AQE_CHECK(max_queries >= 1);
  impl_->SetMaxActive(max_queries);
}

void QueryEngine::set_class_weight(int query_class, int weight) {
  // The scheduler's weight is the only class share; admission reads it
  // back through the class's virtual time.
  impl_->sched.set_class_weight(query_class, weight);
}

void QueryEngine::set_class_memory_budget(int query_class, uint64_t bytes) {
  AQE_CHECK(query_class >= 0 && query_class < kNumTaskClasses);
  impl_->class_budget[query_class].store(bytes, std::memory_order_relaxed);
}

std::string QueryEngine::CollapsedStacks() const {
  return impl_->obs.CollapsedStacks();
}

std::future<QueryRunResult> QueryEngine::Submit(
    const QueryProgram& program, const QueryRunOptions& options) {
  Impl* impl = impl_.get();
  const uint32_t query_id =
      impl->obs.next_query_id.fetch_add(1, std::memory_order_relaxed);
  impl->obs.queries_submitted->Add();
  auto job = std::make_unique<QueryJob>(
      impl->catalog, &impl->sched, &impl->cache, &impl->obs, query_id,
      program, options, [impl] { impl->OnQueryFinished(); });
  std::future<QueryRunResult> future = job->GetFuture();
  job->set_scheduling_class(options.query_class);
  const int cls = job->scheduling_class();
  // Per-class memory budget, checked before the query ever queues: a
  // fingerprint whose cached peak estimate exceeds the budget fails with
  // the typed error here — it never takes an admission slot, so other
  // classes (and this class's in-budget plans) are unaffected.
  const uint64_t budget = impl->class_budget[cls].load(std::memory_order_relaxed);
  if (budget > 0 && job->estimated_peak_bytes() > budget) {
    impl->obs.budget_rej_admission->Add();
    job->FailAdmission(budget);
    return future;
  }
  job->set_memory_budget(budget);
  {
    // Register the tracker for the mem.current_bytes gauge; prune expired
    // slots of finished queries while the lock is held anyway.
    std::lock_guard<std::mutex> lock(impl->obs.trackers_mu);
    auto& live = impl->obs.live_trackers;
    live.erase(std::remove_if(live.begin(), live.end(),
                              [](const std::weak_ptr<QueryMemoryTracker>& w) {
                                return w.expired();
                              }),
               live.end());
    live.push_back(job->tracker());
  }
  impl_->Admit(std::move(job));
  return future;
}

ArtifactCacheStats QueryEngine::artifact_cache_stats() const {
  return impl_->cache.stats();
}

const ArtifactCache& QueryEngine::artifact_cache() const {
  return impl_->cache;
}

void QueryEngine::set_artifact_cache_byte_budget(uint64_t bytes) {
  impl_->cache.set_byte_budget(bytes);
}

void QueryEngine::ClearArtifactCache() { impl_->cache.Clear(); }

RegressionTracker& QueryEngineTestPeer::sentinel(QueryEngine& engine) {
  return engine.impl_->obs.sentinel;
}

void QueryEngine::set_anomaly_deviation_factor(double factor) {
  impl_->obs.sentinel.set_deviation_factor(factor);
}

std::vector<AnomalyRecord> QueryEngine::RecentAnomalies() const {
  return impl_->obs.sentinel.RecentAnomalies();
}

MetricsSnapshot QueryEngine::ObservabilitySnapshot() const {
  return impl_->BuildSnapshot();
}

MetricsSnapshot QueryEngine::Impl::BuildSnapshot() const {
  // Serialized against ResetObservabilityStats: a concurrent reset either
  // happened entirely before this snapshot or entirely after it.
  std::lock_guard<std::mutex> epoch_lock(obs.stats_mu);
  MetricsSnapshot snap = obs.metrics.Snapshot();
  char name[64];

  // Scheduler: lifetime slice counters and per-class weighted-fair shares.
  snap.counters.emplace_back("sched.executed_slices",
                             sched.executed_slices());
  for (int c = 0; c < kNumTaskClasses; ++c) {
    std::snprintf(name, sizeof(name), "sched.class_slices.class%d", c);
    snap.counters.emplace_back(name, sched.class_slices(c));
    std::snprintf(name, sizeof(name), "sched.class_weight.class%d", c);
    snap.gauges.emplace_back(name, sched.class_weight(c));
  }

  // Artifact cache: monotonic counters plus residency gauges.
  const ArtifactCacheStats cs = cache.stats();
  snap.counters.emplace_back("cache.entry_hits", cs.entry_hits);
  snap.counters.emplace_back("cache.entry_misses", cs.entry_misses);
  snap.counters.emplace_back("cache.bytecode_hits", cs.bytecode_hits);
  snap.counters.emplace_back("cache.bytecode_misses", cs.bytecode_misses);
  snap.counters.emplace_back("cache.code_hits", cs.code_hits);
  snap.counters.emplace_back("cache.publishes", cs.publishes);
  snap.counters.emplace_back("cache.evictions", cs.evictions);
  snap.counters.emplace_back("cache.cost_feedback_updates",
                             obs.sentinel.observed_runs());
  snap.gauges.emplace_back("cache.bytes", static_cast<int64_t>(cs.bytes));
  snap.gauges.emplace_back("cache.entries", static_cast<int64_t>(cs.entries));

  // Translator: cumulative fusion counters (§IV-F effectiveness).
  const TranslatorCounters tc = TranslatorCountersSnapshot();
  snap.counters.emplace_back("translator.programs", tc.programs);
  snap.counters.emplace_back("translator.bytecode_ops", tc.bytecode_ops);
  snap.counters.emplace_back("translator.fused_instructions",
                             tc.fused_instructions);
  snap.counters.emplace_back("translator.fused_cmp_branches",
                             tc.fused_cmp_branches);
  snap.counters.emplace_back("translator.fused_load_cmp_branches",
                             tc.fused_load_cmp_branches);

  // VM: per-opcode dispatch counts (populated while
  // set_vm_opcode_profiling is on).
  for (const VmOpcodeCount& oc : VmProfileCounts()) {
    std::string op_name = "vm.op.";
    op_name += oc.opcode;
    snap.counters.emplace_back(std::move(op_name), oc.count);
  }

  // Trace rings: how much the exporters can still see — the totals plus a
  // per-lane breakdown, so a single overflowing worker is identifiable.
  // `dropped` splits into deliberate bulk-event decimation under ring
  // pressure (`dropped.sampled`) vs genuine loss of lossless-class events
  // (`dropped.lost` — what obs_test holds at 0 on a sized run).
  snap.counters.emplace_back("trace.recorded", obs.tracer.total_recorded());
  snap.counters.emplace_back("trace.dropped", obs.tracer.total_dropped());
  snap.counters.emplace_back("trace.dropped.sampled",
                             obs.tracer.total_dropped_sampled());
  snap.counters.emplace_back("trace.dropped.lost",
                             obs.tracer.total_dropped_lost());
  for (const EngineTracer::LaneStats& ls : obs.tracer.lane_stats()) {
    std::snprintf(name, sizeof(name), "obs.ring.dropped.lane%d", ls.lane);
    snap.counters.emplace_back(name, ls.dropped);
  }

  // Memory accounting: the catalog's resident column data, dictionaries
  // and indexes, live tracked bytes across in-flight queries and the
  // engine-lifetime peak.
  snap.gauges.emplace_back(
      "catalog.column_bytes",
      static_cast<int64_t>(catalog_footprint.column_bytes));
  snap.gauges.emplace_back(
      "catalog.dictionary_bytes",
      static_cast<int64_t>(catalog_footprint.dictionary_bytes));
  snap.gauges.emplace_back(
      "catalog.index_bytes",
      static_cast<int64_t>(catalog_footprint.index_bytes));
  uint64_t mem_current = 0;
  {
    std::lock_guard<std::mutex> lock(obs.trackers_mu);
    for (const std::weak_ptr<QueryMemoryTracker>& w : obs.live_trackers) {
      if (std::shared_ptr<QueryMemoryTracker> t = w.lock()) {
        mem_current += t->current_bytes();
      }
    }
  }
  snap.gauges.emplace_back("mem.current_bytes",
                           static_cast<int64_t>(mem_current));
  snap.gauges.emplace_back(
      "mem.peak_bytes",
      static_cast<int64_t>(obs.engine_peak_bytes.load()));

  // Reset epoch last (tests key on it closing the gauge list; it moves
  // when a concurrent ResetObservabilityStats landed between snapshots).
  snap.gauges.emplace_back("obs.epoch",
                           static_cast<int64_t>(obs.stats_epoch.load()));
  return snap;
}

std::string QueryEngine::Impl::ProfilesJson() const {
  std::string out = "{\"profiles\":[";
  {
    std::lock_guard<std::mutex> lock(obs.profiles_mu);
    bool first = true;
    for (const QueryRunResult& result : obs.recent_profiles) {
      if (!first) out += ',';
      out += ExplainAnalyzeJson(result);
      first = false;
    }
  }
  out += "],\"anomalies\":[";
  bool first = true;
  for (const AnomalyRecord& a : obs.sentinel.RecentAnomalies()) {
    Append(out,
           "%s{\"fingerprint\":\"%016llx\",\"query\":%u,"
           "\"cause\":\"%s\",\"expected_ms\":%.3f,"
           "\"observed_ms\":%.3f,\"queue_wait_ms\":%.3f,\"plan\":\"%s\"}",
           first ? "" : ",", static_cast<unsigned long long>(a.fingerprint),
           a.query_id, AnomalyCauseName(a.cause), a.expected_ms,
           a.observed_ms, a.queue_wait_ms, JsonEscape(a.plan_name).c_str());
    first = false;
  }
  out += "]}";
  return out;
}

std::string QueryEngine::ExportChromeTrace() const {
  return ChromeTraceJson(impl_->obs.tracer.Snapshot());
}

std::string QueryEngine::RenderTrace(int width) const {
  return RenderTextTrace(impl_->obs.tracer.Snapshot(),
                         impl_->sched.num_workers(), width);
}

void QueryEngine::ResetObservabilityStats() {
  // One epoch: every resettable source zeroes under the same lock
  // BuildSnapshot holds, so a concurrent snapshot never sees half a reset.
  std::lock_guard<std::mutex> epoch_lock(impl_->obs.stats_mu);
  impl_->obs.stats_epoch.fetch_add(1, std::memory_order_relaxed);
  impl_->obs.metrics.Reset();
  impl_->obs.tracer.Reset();
  impl_->obs.sentinel.ResetAnomalies();
  {
    std::lock_guard<std::mutex> lock(impl_->obs.profiles_mu);
    impl_->obs.flamegraph.Clear();
  }
  impl_->cache.ResetStats();
  VmResetProfileCounts();
  ResetTranslatorCounters();
}

void QueryEngine::set_vm_opcode_profiling(bool enabled) {
  VmSetProfileCounting(enabled);
}

const EngineTracer& QueryEngine::tracer() const { return impl_->obs.tracer; }

QueryRunResult QueryEngine::Run(const QueryProgram& program,
                                const QueryRunOptions& options) {
  AQE_CHECK_MSG(TaskScheduler::CurrentScheduler() != &impl_->sched,
                "QueryEngine::Run from one of this engine's own tasks would "
                "deadlock; use Submit");
  return Submit(program, options).get();
}

std::vector<PipelineCompileCosts> QueryEngine::MeasureCompileCosts(
    const QueryProgram& program, bool measure_jit,
    const TranslatorOptions& translator_options) {
  std::vector<PipelineCompileCosts> costs;
  // Code generation reads only the bindings (addresses, column types,
  // literals), so every pipeline binds on one fresh context and nothing
  // runs: the join tables a pipeline probes are sealed empty.
  std::unique_ptr<QueryContext> ctx = program.MakeContext(impl_->catalog);
  const RuntimeRegistry& registry = RuntimeRegistry::Global();

  for (const PipelineSpec& spec : program.pipelines()) {
    PipelineBindings bindings = BindPipeline(program, spec, *ctx);
    PipelineCompileCosts cost;
    cost.name = spec.name;

    GeneratedPipeline generated =
        GeneratePipeline(spec, bindings, LiteralForm::kBound);
    cost.instructions = generated.instructions;
    cost.codegen_millis = generated.codegen_millis;
    cost.runtime_calls = generated.loop_calls;
    cost.runtime_call_fraction = RuntimeCallFraction(
        generated.loop_instructions, generated.loop_calls, CostModelParams{});

    {
      Timer timer;
      BcProgram bytecode = TranslateToBytecode(
          *generated.mod->module().getFunction("worker"), registry,
          translator_options, &cost.bytecode_status);
      cost.bytecode_millis = timer.ElapsedMillis();
      if (cost.bytecode_status.ok()) {
        cost.register_file_bytes = bytecode.register_file_size;
      }
      cost.bytecode_ops = bytecode.code.size();
      cost.fused_ops = bytecode.fused_instructions;
      cost.fused_cmp_branches = bytecode.fused_cmp_branches;
    }
    const auto jit_millis = [&](JitMode mode) {
      GeneratedPipeline fresh =
          GeneratePipeline(spec, bindings, LiteralForm::kImmediate);
      Timer timer;
      Status status;
      auto compiled =
          JitCompile(std::move(*fresh.mod), mode, registry, &status);
      AQE_CHECK_MSG(status.ok(), status.message().c_str());
      return timer.ElapsedMillis();
    };
    if (measure_jit) {
      cost.unopt_millis = jit_millis(JitMode::kUnoptimized);
      cost.opt_millis = jit_millis(JitMode::kOptimized);
    }
    costs.push_back(std::move(cost));
  }
  return costs;
}

}  // namespace aqe
