#include "engine/query_engine.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "cache/fingerprint.h"
#include "codegen/query_compiler.h"
#include "common/status.h"
#include "common/timer.h"
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

/// WorkerFn trampoline dispatching a morsel into the bytecode VM; `extra`
/// is the BcProgram (§IV-E interoperability).
void VmWorkerTrampoline(void* state, uint64_t begin, uint64_t end,
                        const void* extra) {
  const auto* program = static_cast<const BcProgram*>(extra);
  uint64_t args[4] = {reinterpret_cast<uint64_t>(state), begin, end,
                      reinterpret_cast<uint64_t>(extra)};
  VmExecute(*program, args, 4);
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
/// ~6.9 to ~5.0 ms. Merge work counts the groups folded (see
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
  Counter* anomalies_by_cause[5] = {
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

  void RecordQueryPeak(uint64_t peak_bytes, int query_class) {
    mem_peak_by_class[query_class]->Record(static_cast<double>(peak_bytes));
    uint64_t prev = engine_peak_bytes.load(std::memory_order_relaxed);
    while (prev < peak_bytes &&
           !engine_peak_bytes.compare_exchange_weak(
               prev, peak_bytes, std::memory_order_relaxed)) {
    }
  }

  /// Folds a finished query into the flamegraph and, when it completed,
  /// keeps it for /profiles. A query failed by its memory budget passes
  /// `completed` false: its CPU time still counts, its profile does not.
  void AddProfile(const QueryRunResult& result, bool completed) {
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

  PipelineObs MakePipelineObs(uint32_t query_id) {
    PipelineObs obs;
    obs.tracer = &tracer;
    obs.morsels = morsels;
    obs.mode_switch_decisions = mode_switches;
    obs.compiles = compiles;
    obs.compile_us = compile_us;
    obs.query_id = query_id;
    return obs;
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

  // Admission layer: at most `max_active` queries execute concurrently;
  // excess queries wait in one FIFO queue per class and are released
  // weighted-fair as running queries finish, so a burst cannot pile
  // unbounded task state onto the scheduler and every class gets its share
  // of slots. Each class keeps a virtual admission clock: releasing a
  // query advances its class's clock by estimated_cost / weight, and the
  // most-behind non-empty class is always served next — weighted fair
  // queueing over service time, not query count, so a class of cheap
  // cached queries admits many per heavy cold query. Within a class,
  // release is FIFO except for a bounded cache-aware overtake (see
  // PickFromClassLocked).
  struct WaitingQuery {
    std::unique_ptr<Task> job;
    double cost_ms = 0;        ///< cache-estimated service time
    bool fully_cached = false; ///< every pipeline artifact is resident
    int bypassed = 0;          ///< times a cached waiter overtook this one
  };
  /// A fully-cached waiter may overtake from at most this many queue
  /// positions back, and a cold query at the head may be bypassed at most
  /// this many times — both bounds keep a cold query's extra wait finite
  /// even under a sustained stream of cached arrivals.
  static constexpr size_t kMaxCacheOvertake = 8;

  std::mutex admission_mutex;
  std::deque<WaitingQuery> waiting[kNumTaskClasses];
  double admit_vtime[kNumTaskClasses] = {};
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

  void Admit(std::unique_ptr<Task> job, int cls, double cost_ms,
             bool fully_cached) {
    std::vector<std::unique_ptr<Task>> ready;
    {
      std::lock_guard<std::mutex> lock(admission_mutex);
      std::deque<WaitingQuery>& queue = waiting[static_cast<size_t>(cls)];
      if (queue.empty()) {
        // The clocks only mean anything while some class is backlogged: a
        // class served without contention still gets charged, and that
        // banked *debt* would lock it out when another class later becomes
        // backlogged. With no waiters anywhere, restart all clocks.
        bool any_waiting = false;
        for (int c = 0; c < kNumTaskClasses; ++c) {
          if (!waiting[c].empty()) {
            any_waiting = true;
            break;
          }
        }
        if (!any_waiting) {
          for (int c = 0; c < kNumTaskClasses; ++c) admit_vtime[c] = 0;
        }
        // An idle class's clock stood still; clamp it forward so it cannot
        // return with banked credit and starve the others.
        double min_active_vtime = -1;
        for (int c = 0; c < kNumTaskClasses; ++c) {
          if (c == cls || waiting[c].empty()) continue;
          if (min_active_vtime < 0 || admit_vtime[c] < min_active_vtime) {
            min_active_vtime = admit_vtime[c];
          }
        }
        if (min_active_vtime > admit_vtime[cls]) {
          admit_vtime[cls] = min_active_vtime;
        }
      }
      queue.push_back({std::move(job), cost_ms, fully_cached, 0});
      DrainWaitingLocked(&ready);
    }
    for (auto& task : ready) sched.Submit(std::move(task));
  }

  /// Called by a finishing query task: hands its admission slot to the
  /// most-behind class's next waiting query, if any.
  void OnQueryFinished() {
    std::vector<std::unique_ptr<Task>> ready;
    {
      std::lock_guard<std::mutex> lock(admission_mutex);
      --active;
      DrainWaitingLocked(&ready);
    }
    for (auto& task : ready) sched.Submit(std::move(task));
  }

  void SetMaxActive(int max_queries) {
    std::vector<std::unique_ptr<Task>> ready;
    {
      std::lock_guard<std::mutex> lock(admission_mutex);
      max_active = max_queries;
      // A raised cap releases already-waiting queries immediately.
      DrainWaitingLocked(&ready);
    }
    for (auto& task : ready) sched.Submit(std::move(task));
  }

  /// Pops the next query of class `cls`: the oldest waiter, unless it is
  /// cold and a fully-cached one sits within the first kMaxCacheOvertake
  /// positions behind it — that one overtakes (it will finish in a
  /// fraction of the time). A head that has already been bypassed
  /// kMaxCacheOvertake times is released unconditionally, so a sustained
  /// stream of cached arrivals cannot starve a cold query.
  WaitingQuery PickFromClassLocked(int cls) {
    std::deque<WaitingQuery>& queue = waiting[static_cast<size_t>(cls)];
    size_t pick = 0;
    if (!queue.front().fully_cached &&
        queue.front().bypassed < static_cast<int>(kMaxCacheOvertake)) {
      const size_t horizon = std::min(queue.size(), kMaxCacheOvertake + 1);
      for (size_t i = 1; i < horizon; ++i) {
        if (queue[i].fully_cached) {
          pick = i;
          ++queue.front().bypassed;
          break;
        }
      }
    }
    WaitingQuery picked = std::move(queue[pick]);
    queue.erase(queue.begin() + static_cast<ptrdiff_t>(pick));
    return picked;
  }

  /// Moves waiting queries into `ready` (weighted-fair across classes)
  /// while slots exist. Caller holds admission_mutex and submits outside
  /// the lock.
  void DrainWaitingLocked(std::vector<std::unique_ptr<Task>>* ready) {
    while (active < max_active) {
      int cls = -1;
      for (int c = 0; c < kNumTaskClasses; ++c) {
        if (waiting[c].empty()) continue;
        if (cls < 0 || admit_vtime[c] < admit_vtime[cls]) cls = c;
      }
      if (cls < 0) return;  // nothing waiting
      WaitingQuery picked = PickFromClassLocked(cls);
      admit_vtime[cls] +=
          picked.cost_ms / static_cast<double>(sched.class_weight(cls));
      ++active;
      ready->push_back(std::move(picked.job));
    }
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
    bool created_entry = false;
    if (options_.engine == EngineKind::kCompiled &&
        options_.use_artifact_cache && !program.pipelines().empty()) {
      // Fingerprint on the submitting thread: cheap (a hash walk over the
      // plan), and it makes the entry visible before any stage runs.
      fingerprint_ = FingerprintProgram(program);
      entry_ = cache_->Intern(
          ArtifactCacheKey(fingerprint_, options_.translator),
          program.pipelines().size(), program.name(), &created_entry);
    }
    EstimateCost(created_entry);
  }

  std::future<QueryRunResult> GetFuture() { return promise_.get_future(); }

  /// Cache-estimated service time and residency, for cache-aware
  /// admission. Computed on the submitting thread from the interned entry.
  double estimated_cost_ms() const { return estimated_cost_ms_; }
  bool fully_cached() const { return fully_cached_; }

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
      result_.queue_wait_seconds = total_timer_.ElapsedSeconds();
      const int cls = scheduling_class();
      obs_->queue_wait_us[cls]->Record(result_.queue_wait_seconds * 1e6);
      TraceEvent ev;
      ev.start_nanos = submit_nanos_;
      ev.end_nanos = slice_start_nanos_;
      ev.d0 = estimated_cost_ms_;
      ev.query_id = query_id_;
      ev.kind = TraceEventKind::kAdmissionWait;
      ev.detail = static_cast<uint8_t>(cls);
      obs_->tracer.Record(worker, ev);
    }
    const Status status = RunSlice(worker);
    // The last slice (kDone) recorded itself before resolving the promise.
    if (status == Status::kYield) RecordSliceEnd(worker, /*query_done=*/false);
    return status;
  }

 private:
  /// Per-pipeline state that must survive suspension: the worker reads
  /// every runtime address out of the packed binding array, the handle is
  /// flipped by compile tasks, and the PipelineRun checkpoints the
  /// controller between morsels. Destroyed only after the run quiesced
  /// (PipelineRun's drain phase / destructor, invariant 3 in
  /// adaptive/controller.h) — `run` is declared last so it goes first.
  struct ActivePipeline {
    ActivePipeline(WorkerFn fn, const void* extra) : handle(fn, extra) {}

    ArtifactRequest request;  ///< what the run asks of the plan's entry
    PipelineReport report;
    PipelineBindings bindings;
    std::vector<uint64_t> binding_values;
    std::shared_ptr<const BcProgram> bytecode;
    std::shared_ptr<CachedCode> seed_code;  ///< eviction-safe seeded code
    FunctionHandle handle;
    std::unique_ptr<PipelineRun> run;
  };

  /// Records the slice that began at slice_start_nanos_ and, on the
  /// query's last slice, kQueryDone. Both completion paths call this before
  /// resolving the promise, so a client whose future is ready finds the
  /// query's finish in the very next trace snapshot.
  void RecordSliceEnd(int worker, bool query_done) {
    TraceEvent ev;
    ev.start_nanos = slice_start_nanos_;
    ev.end_nanos = MonotonicNanos();
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

  /// Runtime budget enforcement: when the tracker latched over-budget
  /// (Charge never throws under VM/JIT frames; the flag is checked here,
  /// at slice boundaries, where unwinding is safe), fail the future with
  /// the typed error and release the admission slot. Returns true when the
  /// query was failed. An active PipelineRun is destroyed through its
  /// abandoned-run path (drain the domain, wait out in-flight helpers),
  /// so no task touches freed state.
  bool FailIfOverBudget(int worker) {
    // Slice boundaries are the tracker's quiesce points: fold the
    // thread-slot residues so the budget latch and the peak high-water see
    // every byte charged since the last boundary, however small.
    memory_->FoldResidues();
    if (!memory_->over_budget()) return false;
    obs_->budget_rej_runtime->Add();
    const uint64_t budget = memory_->soft_limit();
    const uint64_t current = memory_->current_bytes();
    // The run never completes (RecordServiceTime is skipped on this path),
    // but the plan's record still learns its footprint, so the next
    // submission of this plan is rejected at admission instead of executing
    // to the failure point again.
    if (entry_ != nullptr) {
      const double service_ms = std::max(
          0.0,
          (total_timer_.ElapsedSeconds() - result_.queue_wait_seconds) * 1e3);
      obs_->sentinel.ObserveBudgetFailure(entry_->key, service_ms,
                                          memory_->peak_bytes());
    }
    step_run_.reset();
    active_.reset();
    memory_->Release(active_charged_bytes_);
    active_charged_bytes_ = 0;
    obs_->AddProfile(result_, /*completed=*/false);
    RecordSliceEnd(worker, /*query_done=*/true);
    promise_.set_exception(std::make_exception_ptr(MemoryBudgetExceeded(
        scheduling_class(), budget, current, /*at_admission=*/false)));
    on_finished_();
    return true;
  }

  /// The pre-instrumentation slice body: one engine step, pipeline setup,
  /// controller checkpoint of the embedded PipelineRun, or checkpoint of a
  /// parallel merge or seal.
  Status RunSlice(int worker) {
    if (FailIfOverBudget(worker)) return Status::kDone;
    if (step_run_ != nullptr) {
      if (step_run_->run->Step(worker) != Status::kDone) return Status::kYield;
      FinishStepRun();
    } else if (active_ != nullptr) {
      // Mid-pipeline: one controller checkpoint per slice.
      if (active_->run->Step(worker) != Status::kDone) return Status::kYield;
      FinishCompiledPipeline();
      active_.reset();
    }
    // The size check comes first: a QueryProgram with no stages at all
    // must still produce an (empty) result.
    if (stage_index_ < program_->stages().size()) {
      if (!AdvanceStage(worker)) return Status::kYield;  // work in flight
      if (++stage_index_ < program_->stages().size()) return Status::kYield;
    }
    // The last stage may have grown past the budget inside its own slice.
    if (FailIfOverBudget(worker)) return Status::kDone;
    result_.rows = std::move(ctx_->result);
    result_.total_seconds = total_timer_.ElapsedSeconds();
    result_.peak_memory_bytes = memory_->peak_bytes();
    obs_->RecordQueryPeak(result_.peak_memory_bytes, scheduling_class());
    RecordServiceTime(worker);
    // Completion metrics and events land before the promise resolves, so
    // a client that saw its future ready observes them in the very next
    // snapshot.
    obs_->exec_latency_us[scheduling_class()]->Record(
        std::max(0.0, result_.total_seconds - result_.queue_wait_seconds) *
        1e6);
    obs_->queries_completed->Add();
    RecordSliceEnd(worker, /*query_done=*/true);
    // /profiles keeps the result without its rows.
    std::vector<std::vector<int64_t>> rows = std::move(result_.rows);
    obs_->AddProfile(result_, /*completed=*/true);
    result_.rows = std::move(rows);
    promise_.set_value(std::move(result_));
    on_finished_();
    return Status::kDone;
  }

  void EstimateCost(bool created_entry);
  void RecordServiceTime(int worker);
  bool AdvanceStage(int worker);
  bool SpreadsSteps() const;
  bool StartSealRun(const PipelineSpec& spec);
  bool MergeAggregation(const PipelineSpec& spec);
  void StartStepRun(WorkerFn worker, void* state, uint64_t units,
                    uint64_t morsel_units);
  void FinishStepRun();
  void RunPipeline(const QueryProgram::Stage& stage, const PipelineSpec& spec,
                   int worker);
  void StartCompiledPipeline(const QueryProgram::Stage& stage,
                             const PipelineSpec& spec,
                             PipelineBindings bindings,
                             PipelineReport report, int worker);
  void FinishCompiledPipeline();

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
  /// Keeps compiled code alive until the query finishes; pushed from
  /// compile tasks on any worker. Shared with the cache, so LRU eviction
  /// mid-query cannot free code this query still executes.
  std::vector<std::shared_ptr<CachedCode>> keepalive_;
  std::mutex keepalive_mutex_;
  QueryRunResult result_;
  size_t stage_index_ = 0;
  bool started_ = false;
  double estimated_cost_ms_ = 0;
  uint64_t estimated_peak_bytes_ = 0;
  /// Tracker bytes charged for the active pipeline's binding array and
  /// private bytecode; released when the pipeline finishes or is abandoned.
  uint64_t active_charged_bytes_ = 0;
  bool fully_cached_ = false;
  Timer total_timer_;  ///< from Submit — total_seconds includes queue wait
  std::promise<QueryRunResult> promise_;
  std::function<void()> on_finished_;
  /// The current pipeline stage has run its pipeline; what is left is
  /// merging the aggregation it fills.
  bool stage_ran_ = false;
  /// A parallel merge or seal: an engine step spread over the workers as a
  /// PipelineRun whose handle holds a native worker (MergeWorker,
  /// SealWorker) and whose PipelineObs is empty, so it records no trace
  /// events and no PipelineReport; its time counts as engine steps.
  struct StepRun {
    explicit StepRun(WorkerFn fn) : handle(fn, nullptr) {}
    FunctionHandle handle;
    std::unique_ptr<PipelineRun> run;
  };
  /// Declared after ctx_: destroyed first, so a run abandoned at shutdown
  /// quiesces while the context its bindings point into is still alive.
  std::unique_ptr<ActivePipeline> active_;
  std::unique_ptr<StepRun> step_run_;
};

/// Cache-aware admission estimate. Service time and peak footprint come
/// from the plan's record (RegressionTracker::Lookup), which outlives the
/// plan's cache entry; a plan with no record is charged a flat pessimistic
/// cold default and a peak of 0 — admitted optimistically and caught by the
/// runtime soft limit instead. Residency is separate: only a fully-cached
/// query may overtake cold waiters. A plan with a record whose entry had to
/// be created again was evicted in between.
void QueryJob::EstimateCost(bool created_entry) {
  constexpr double kColdCostMs = 10.0;
  estimated_cost_ms_ = kColdCostMs;
  if (entry_ == nullptr) return;
  fully_cached_ = entry_->FullyCached();
  if (const std::optional<PlanStats> stats =
          obs_->sentinel.Lookup(entry_->key)) {
    estimated_cost_ms_ = std::max(0.05, stats->ewma_ms);
    estimated_peak_bytes_ = static_cast<uint64_t>(stats->ewma_peak_bytes);
    evicted_ = created_entry;
  }
}

/// Folds this run's service time (queue wait excluded) and peak into the
/// plan's record, which the next submit's admission estimate reads. The
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
  if (obs_->sentinel.Observe(sample, &anomaly)) {
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
/// when the stage is complete, false when it left work in flight: a
/// compiled pipeline (active_) or a parallel merge or seal (step_run_),
/// after which the next slice calls it again.
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
    RunPipeline(stage, spec, worker);
    stage_ran_ = true;
    if (active_ != nullptr) return false;
  }
  if (MergeAggregation(spec)) return false;
  stage_ran_ = false;
  return true;
}

/// Whether a large seal or merge is spread over the workers: only on the
/// compiled engine (the baselines run their pipelines on the query's
/// thread) and never for a single-threaded run.
bool QueryJob::SpreadsSteps() const {
  return options_.engine == EngineKind::kCompiled &&
         !options_.single_threaded && sched_->num_workers() >= 2;
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
    StartStepRun(&SealWorker, ht, nodes, /*morsel_units=*/0);
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
    StartStepRun(&MergeWorker, set, kAggPartitions, /*morsel_units=*/1);
    result_.exec_seconds_total += timer.ElapsedSeconds();
    return true;
  }
  for (int p = 0; groups > 0 && p < kAggPartitions; ++p) {
    set->MergePartition(p);
  }
  result_.exec_seconds_total += timer.ElapsedSeconds();
  return false;
}

void QueryJob::StartStepRun(WorkerFn worker, void* state, uint64_t units,
                            uint64_t morsel_units) {
  obs_->spread_steps->Add();
  auto step = std::make_unique<StepRun>(worker);
  PipelineTask task;
  task.handle = &step->handle;
  task.state = state;
  task.domain = ScanDomain::Make({{0, units}}, units);
  task.morsel_tuples = morsel_units;
  task.scheduling_class = scheduling_class();
  step->run = std::make_unique<PipelineRun>(
      sched_, ExecutionStrategy::kBytecode, options_.cost_model, task,
      /*single_threaded=*/false, /*first_eval_delay_seconds=*/0);
  step_run_ = std::move(step);
}

void QueryJob::FinishStepRun() {
  const PipelineRunStats stats = step_run_->run->TakeStats();
  result_.exec_seconds_total += stats.total_seconds;
  result_.on_cpu_seconds += stats.helper_busy_seconds;
  step_run_.reset();
}

/// Binds and runs (baselines) or starts (compiled engine) one pipeline.
void QueryJob::RunPipeline(const QueryProgram::Stage& stage,
                           const PipelineSpec& spec, int worker) {
  const QueryProgram& program = *program_;
  const QueryRunOptions& options = options_;
  const RuntimeRegistry& registry = RuntimeRegistry::Global();

  PipelineReport report;
  report.name = spec.name;
  report.pipeline_index = static_cast<uint32_t>(stage.pipeline);
  // The pipeline's total work, known at pipeline start (§III-A).
  report.tuples = program.ResolveTable(spec.source_table, *ctx_)->num_rows();

  // Binding seals the join tables this pipeline probes, linking what their
  // builds inserted: join-table finalize, so it counts as an engine step.
  Timer bind_timer;
  PipelineBindings bindings = BindPipeline(program, spec, *ctx_);
  result_.exec_seconds_total += bind_timer.ElapsedSeconds();

  if (options.engine == EngineKind::kCompiled) {
    StartCompiledPipeline(stage, spec, std::move(bindings), std::move(report),
                          worker);
    return;
  }
  // The baselines run the whole pipeline on the query's thread.
  Timer timer;
  if (options.engine == EngineKind::kVolcano) {
    RunPipelineVolcano(program, spec, ctx_.get());
  } else if (options.engine == EngineKind::kVectorized) {
    RunPipelineVectorized(program, spec, ctx_.get());
  } else {
    // Fig 2's "LLVM IR" mode: interpret the IR objects directly,
    // single-threaded, morsel by morsel.
    std::vector<uint64_t> binding_values = bindings.Pack();
    GeneratedPipeline generated =
        GeneratePipeline(spec, bindings, LiteralForm::kImmediate);
    report.instructions = generated.instructions;
    report.codegen_millis = generated.codegen_millis;
    result_.codegen_millis_total += generated.codegen_millis;
    const llvm::Function* fn = generated.mod->module().getFunction("worker");
    timer.Reset();
    MorselQueue queue(ScanDomain::Make({{0, report.tuples}}, report.tuples),
                      0, report.tuples);
    MorselBatch morsel;
    while (queue.Next(&morsel)) {
      const MorselRange& range = morsel.ranges[0];  // one-range domain
      uint64_t args[4] = {reinterpret_cast<uint64_t>(binding_values.data()),
                          range.begin, range.end, 0};
      NaiveIrInterpret(*fn, args, 4, registry);
    }
  }
  report.exec_seconds = timer.ElapsedSeconds();
  report.exec_only_seconds = report.exec_seconds;
  result_.exec_seconds_total += report.exec_only_seconds;
  result_.pipelines.push_back(std::move(report));
}

/// Sets up one compiled pipeline and hands it to a resumable PipelineRun:
/// bind, artifact-cache lookup, (on miss) codegen + translation, handle
/// seeding. Everything the run touches across suspensions moves into the
/// ActivePipeline member; the caller's Run() loop then steps the pipeline
/// one morsel per slice.
void QueryJob::StartCompiledPipeline(const QueryProgram::Stage& stage,
                                     const PipelineSpec& spec,
                                     PipelineBindings bindings,
                                     PipelineReport report, int worker) {
  const QueryRunOptions& options = options_;
  const RuntimeRegistry& registry = RuntimeRegistry::Global();
  const auto p = static_cast<size_t>(stage.pipeline);

  // Cache lookup outcomes below emit instant events on this worker's lane.
  const auto cache_instant = [&](TraceEventKind kind, uint64_t payload) {
    TraceEvent ev;
    ev.start_nanos = MonotonicNanos();
    ev.end_nanos = ev.start_nanos;
    ev.payload = payload;
    ev.query_id = query_id_;
    ev.pipeline_id = static_cast<uint16_t>(p);
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
  const Table* source = program_->ResolveTable(spec.source_table, *ctx_);
  const bool prunes = options.scan_pruning && source != nullptr &&
                      source->indexes() != nullptr;

  // --- artifact-cache lookup: what it returns stays alive by shared_ptr ---
  ArtifactRequest request;
  CachedArtifacts cached;
  if (entry_ != nullptr) {
    const auto [cb, ce] = fingerprint_.pipeline_constants[p];
    request.pipeline = p;
    request.constants.assign(fingerprint_.constants.begin() + cb,
                             fingerprint_.constants.begin() + ce);
    request.pruning_key = fingerprint_.pruning_key;
    request.strategy = options.strategy;
    request.dispatch = options.vm_dispatch;
    request.pruning = prunes;
    cached = cache_->Lookup(*entry_, request);
  }
  std::shared_ptr<const BcProgram> bytecode = cached.bytecode;
  if (bytecode != nullptr) {
    report.artifact_cache_hit = true;
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
    report.codegen_millis = generated.codegen_millis;
    result_.codegen_millis_total += generated.codegen_millis;
  }
  report.instructions = instructions;

  if (need_translation) {
    Timer timer;
    auto fresh = std::make_shared<BcProgram>(TranslateToBytecode(
        *generated.mod->module().getFunction("worker"), registry,
        options.translator));
    fresh->dispatch = options.vm_dispatch;
    report.translate_millis = timer.ElapsedMillis();
    result_.translate_millis_total += report.translate_millis;

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
    report.register_file_bytes = bytecode->register_file_size;
  }

  // --- scan pruning: the index access-path decision (src/index/) ----------
  // The resulting domain restricts which morsels the PipelineRun ever
  // schedules. The decision is cached per constants and pruning key, so
  // warm runs skip the analysis entirely.
  std::shared_ptr<const ScanDomain> scan_domain;
  if (prunes) {
    const bool reused = cached.pruning.has_value();
    if (reused) {
      scan_domain = cached.pruning->domain;
      report.pruning = cached.pruning->stats;
      report.pruning.analysis_seconds = 0;  // no analysis this run
      report.pruning_cache_hit = true;
    } else {
      ScanPruning pruning = AnalyzeScanPruning(spec, *source);
      report.pruning = pruning.stats;
      scan_domain = std::move(pruning.domain);
      if (entry_ != nullptr) {
        cache_->PublishPruning(*entry_, request, {scan_domain, report.pruning});
      }
    }
    if (report.pruning.analyzed) {
      if (entry_ != nullptr) {
        (reused ? obs_->prune_cache_hits : obs_->prune_cache_misses)->Add();
      }
      obs_->rows_selected->Add(report.pruning.selected_rows);
      obs_->posting_entries->Add(report.pruning.posting_entries);
      if (scan_domain != nullptr) {
        obs_->pruned_pipelines->Add();
        obs_->rows_pruned->Add(report.pruning.table_rows -
                               report.pruning.selected_rows);
        obs_->zone_blocks_pruned->Add(report.pruning.zone_blocks_pruned);
        // The scheduled-row count every downstream consumer reasons over
        // (§III-C extrapolation, EXPLAIN ANALYZE).
        report.tuples = report.pruning.selected_rows;
      }
      TraceEvent ev;
      ev.start_nanos = MonotonicNanos();
      ev.end_nanos = ev.start_nanos;
      ev.payload = report.pruning.selected_rows;
      ev.payload2 = report.pruning.table_rows;
      ev.d0 = report.pruning.selected_fraction();
      ev.d1 = report.pruning.analysis_seconds;
      ev.d2 = static_cast<double>(report.pruning.posting_entries);
      ev.query_id = query_id_;
      ev.pipeline_id = static_cast<uint16_t>(p);
      ev.kind = TraceEventKind::kScanPrune;
      ev.detail = static_cast<uint8_t>(report.pruning.primary_path);
      obs_->tracer.Record(worker, ev);
    }
  }

  auto ap = std::make_unique<ActivePipeline>(
      bytecode != nullptr ? &VmWorkerTrampoline : &NeverCalledWorker,
      static_cast<const void*>(bytecode.get()));
  ap->request = std::move(request);
  ap->bindings = std::move(bindings);
  ap->binding_values = std::move(binding_values);
  ap->bytecode = std::move(bytecode);
  // Per-run allocations the context's trackers can't see: the packed
  // binding array and any private bytecode this run holds (a dispatch
  // clone or a fresh translation). A shared cache-resident
  // program is the cache's footprint, not this query's.
  uint64_t run_bytes = ap->binding_values.size() * sizeof(uint64_t);
  if (ap->bytecode != nullptr && !cached.bytecode_shared) {
    run_bytes += BcProgramBytes(*ap->bytecode);
  }
  memory_->Charge(run_bytes);
  active_charged_bytes_ = run_bytes;
  if (cached.seed_code != nullptr) {
    ap->handle.SetCompiled(cached.seed_code->fn, cached.seed_mode);
    ap->seed_code = std::move(cached.seed_code);
    cache_instant(TraceEventKind::kCacheHit, /*payload=*/1);
    report.artifact_cache_hit = true;
  }
  report.initial_mode = ap->handle.mode();
  ap->report = std::move(report);

  PipelineTask task;
  task.handle = &ap->handle;
  task.state = ap->binding_values.data();
  // Pruned scans hand the run a restricted domain (report.tuples is
  // already its selected count); the rest scan every row.
  task.domain = scan_domain != nullptr
                    ? scan_domain
                    : ScanDomain::Make({{0, ap->report.tuples}},
                                       ap->report.tuples);
  task.function_instructions = instructions;
  task.runtime_call_fraction = call_fraction;
  task.pipeline_id = stage.pipeline;
  task.scheduling_class = scheduling_class();
  task.obs = obs_->MakePipelineObs(query_id_);
  ActivePipeline* raw_ap = ap.get();
  task.compile = [this, raw_ap, &spec](ExecMode mode) -> WorkerFn {
    // Regenerate IR (codegen is ~100x cheaper than machine-code
    // generation, Fig 1) so each compilation owns its LLVMContext —
    // required because adaptive compilation runs on a worker thread.
    // `spec` lives in the (caller-owned) program, `raw_ap` in this job;
    // both outlive the run (PipelineRun invariant 3).
    GeneratedPipeline fresh =
        GeneratePipeline(spec, raw_ap->bindings, LiteralForm::kImmediate);
    aqe::Status status;  // Task::Status shadows it here
    auto compiled =
        JitCompile(std::move(*fresh.mod),
                   mode == ExecMode::kOptimized ? JitMode::kOptimized
                                                : JitMode::kUnoptimized,
                   RuntimeRegistry::Global(), &status);
    AQE_CHECK_MSG(status.ok(), status.message().c_str());
    auto* fn = reinterpret_cast<WorkerFn>(compiled->Lookup("worker"));
    AQE_CHECK(fn != nullptr);
    auto code = std::make_shared<CachedCode>();
    code->code_bytes = compiled->code_bytes();
    code->module = std::move(compiled);
    code->fn = fn;
    {
      std::lock_guard<std::mutex> lock(keepalive_mutex_);
      keepalive_.push_back(code);
    }
    if (entry_ != nullptr) {
      // The publish runs off the critical path, as a low-priority task. It
      // holds the entry and code by shared_ptr, so a publish racing engine
      // shutdown or LRU eviction touches only live memory.
      const double call_fraction = RuntimeCallFraction(
          fresh.loop_instructions, fresh.loop_calls, options_.cost_model);
      sched_->Submit(
          MakeClosureTask([cache = cache_, entry = entry_,
                           request = raw_ap->request, mode, code,
                           instructions = fresh.instructions, call_fraction,
                           tracer = &obs_->tracer,
                           query_id = query_id_](int worker) {
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
            tracer->Record(worker, ev);
          }),
          TaskPriority::kLow);
    }
    return fn;
  };

  ap->run = std::make_unique<PipelineRun>(
      sched_, options.strategy, options.cost_model, task,
      options.single_threaded, options.adaptive_first_eval_seconds);
  active_ = std::move(ap);
}

/// Post-run accounting, after the embedded PipelineRun reported kDone.
void QueryJob::FinishCompiledPipeline() {
  memory_->Release(active_charged_bytes_);
  active_charged_bytes_ = 0;
  ActivePipeline& ap = *active_;
  PipelineReport report = std::move(ap.report);
  PipelineRunStats stats = ap.run->TakeStats();
  report.exec_seconds = stats.total_seconds;
  report.exec_only_seconds =
      stats.total_seconds - stats.blocking_compile_seconds;
  result_.exec_seconds_total += report.exec_only_seconds;
  report.final_mode = stats.final_mode;
  report.compiles = stats.compiles;
  report.mode_switches = std::move(stats.mode_switches);
  report.modes = std::move(stats.modes);
  result_.on_cpu_seconds += stats.helper_busy_seconds;
  for (const auto& [mode, seconds] : stats.compiles) {
    result_.compile_millis_total += seconds * 1e3;
  }

  result_.pipelines.push_back(std::move(report));
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
  // One weight drives both layers: admission release order and the
  // scheduler's per-class slice shares.
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
  const double cost_ms = job->estimated_cost_ms();
  const bool cached = job->fully_cached();
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
  impl_->Admit(std::move(job), cls, cost_ms, cached);
  return future;
}

ArtifactCacheStats QueryEngine::artifact_cache_stats() const {
  ArtifactCacheStats stats = impl_->cache.stats();
  stats.cost_feedback_updates = impl_->obs.sentinel.observed_runs();
  return stats;
}

const ArtifactCache& QueryEngine::artifact_cache() const {
  return impl_->cache;
}

void QueryEngine::set_artifact_cache_byte_budget(uint64_t bytes) {
  impl_->cache.set_byte_budget(bytes);
}

void QueryEngine::ClearArtifactCache() { impl_->cache.Clear(); }

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

  // VM: per-opcode dispatch counts (populated while opcode profiling is
  // on — set_vm_opcode_profiling or AQE_VM_PROFILE).
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

  // Regression sentinel.
  snap.counters.emplace_back("engine.anomalies_total",
                             obs.sentinel.anomaly_count());

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
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"fingerprint\":\"%016llx\",\"query\":%u,"
                  "\"cause\":\"%s\",\"expected_ms\":%.3f,"
                  "\"observed_ms\":%.3f,\"queue_wait_ms\":%.3f,\"plan\":\"",
                  first ? "" : ",",
                  static_cast<unsigned long long>(a.fingerprint), a.query_id,
                  AnomalyCauseName(a.cause), a.expected_ms, a.observed_ms,
                  a.queue_wait_ms);
    out += buf;
    for (char c : a.plan_name) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    out += "\"}";
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
    const QueryProgram& program, bool measure_unopt, bool measure_opt,
    const TranslatorOptions& translator_options,
    const CostModelParams& cost_model) {
  std::vector<PipelineCompileCosts> costs;
  std::unique_ptr<QueryContext> ctx = program.MakeContext(impl_->catalog);
  const RuntimeRegistry& registry = RuntimeRegistry::Global();

  for (const QueryProgram::Stage& stage : program.stages()) {
    if (stage.pipeline < 0) {
      RunStep(program.steps()[static_cast<size_t>(stage.step)], ctx.get());
      continue;
    }
    const PipelineSpec& spec =
        program.pipelines()[static_cast<size_t>(stage.pipeline)];
    PipelineBindings bindings = BindPipeline(program, spec, *ctx);
    PipelineCompileCosts cost;
    cost.name = spec.name;

    GeneratedPipeline generated =
        GeneratePipeline(spec, bindings, LiteralForm::kBound);
    cost.instructions = generated.instructions;
    cost.codegen_millis = generated.codegen_millis;
    cost.runtime_calls = generated.loop_calls;
    cost.runtime_call_fraction = RuntimeCallFraction(
        generated.loop_instructions, generated.loop_calls, cost_model);

    {
      Timer timer;
      BcProgram bytecode = TranslateToBytecode(
          *generated.mod->module().getFunction("worker"), registry,
          translator_options);
      cost.bytecode_millis = timer.ElapsedMillis();
      cost.register_file_bytes = bytecode.register_file_size;
      cost.bytecode_ops = bytecode.code.size();
      cost.fused_ops = bytecode.fused_instructions;
      cost.fused_cmp_branches = bytecode.fused_cmp_branches;
    }
    if (measure_unopt) {
      GeneratedPipeline fresh =
          GeneratePipeline(spec, bindings, LiteralForm::kImmediate);
      Timer timer;
      Status status;
      auto compiled = JitCompile(std::move(*fresh.mod), JitMode::kUnoptimized,
                                 registry, &status);
      AQE_CHECK_MSG(status.ok(), status.message().c_str());
      cost.unopt_millis = timer.ElapsedMillis();
    }
    if (measure_opt) {
      GeneratedPipeline fresh =
          GeneratePipeline(spec, bindings, LiteralForm::kImmediate);
      Timer timer;
      Status status;
      auto compiled = JitCompile(std::move(*fresh.mod), JitMode::kOptimized,
                                 registry, &status);
      AQE_CHECK_MSG(status.ok(), status.message().c_str());
      cost.opt_millis = timer.ElapsedMillis();
    }
    costs.push_back(std::move(cost));

    // Execute the pipeline (interpreted) so later pipelines probe the hash
    // tables this one builds, and the steps read its merged aggregation.
    RunPipelineVolcano(program, spec, ctx.get());
    if (const auto* sink = std::get_if<SinkAgg>(&spec.sink)) {
      ctx->agg_sets[static_cast<size_t>(sink->agg)]->Merge();
    }
  }
  return costs;
}

}  // namespace aqe
