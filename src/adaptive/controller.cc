#include "adaptive/controller.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "exec/morsel.h"
#include "runtime/thread_index.h"
#include "sched/task.h"

namespace aqe {

/// Compile-handshake phases (PipelineExecState::compile_state):
/// kIdle -> kQueued (evaluator decides) -> kRunning (a thread claims the
/// job) -> kIdle (done), or kFailed for good when the job produced no code.
/// The controller aborts a still-kQueued job when the domain drains; a
/// kRunning one finishes on its own and finds installs closed.
enum CompilePhase : int { kCompIdle, kCompQueued, kCompRunning, kCompFailed };

/// Shared state of one pipeline execution on the task scheduler. Held via
/// shared_ptr by the controller (PipelineRun) and every helper/compile
/// task, so a task that runs after the pipeline finished touches only this
/// struct: `state` is dereferenced only after a successful morsel claim,
/// which the controller's drain phase (or the PipelineRun destructor)
/// waits out, and `handle` also by an install, under `mu` while `drained`
/// is unset.
struct PipelineExecState {
  /// Per-participant slot, cache-line isolated and written only by its
  /// owner: the participant's cumulative work per ExecMode, each morsel
  /// counted under the mode it started in. The controller reads r0
  /// (§III-C) from the current mode's counters, and the drain sums them
  /// into the report's exact per-mode counts.
  struct alignas(64) SlotRate {
    struct ModeWork {
      std::atomic<uint64_t> morsels{0};
      std::atomic<uint64_t> tuples{0};
      std::atomic<uint64_t> busy_nanos{0};
    } modes[kNumExecModes];
  };

  PipelineExecState(std::shared_ptr<const ScanDomain> domain, int participants,
                    uint64_t morsel_tuples)
      : shards(morsel_tuples == 0
                   ? ShardedMorselQueue(std::move(domain), participants)
                   : ShardedMorselQueue(std::move(domain), participants,
                                        morsel_tuples, morsel_tuples)),
        rates(participants) {}

  ShardedMorselQueue shards;
  std::vector<SlotRate> rates;
  std::atomic<int> active_helpers{0};

  FunctionHandle* handle = nullptr;
  void* state = nullptr;
  int pipeline_id = 0;
  uint64_t function_instructions = 0;
  PipelineObs obs;

  std::atomic<int> compile_state{kCompIdle};
  ExecMode compile_target = ExecMode::kUnoptimized;
  CompileJob job;  ///< the queued compile; its claimer takes it

  std::mutex mu;
  /// The morsel domain ran dry: nothing installs after this. Guarded by mu.
  bool drained = false;
  std::vector<std::pair<ExecMode, double>> compiles;  ///< guarded by mu
  /// MonotonicNanos at which each of `compiles` was installed; guarded by mu.
  std::vector<int64_t> install_nanos;
  /// What keeps each installed compile's code alive; guarded by mu.
  std::vector<std::shared_ptr<const void>> keepalive;

  /// No helper morsel in flight: the drain condition.
  bool Quiescent() const {
    return active_helpers.load(std::memory_order_seq_cst) == 0;
  }
};

namespace {

/// After this many controller morsels with a compile job still kQueued,
/// the controller hands the job to its own worker as that worker's next
/// task — occupying one thread exactly like the paper's dedicated path —
/// so a saturated scheduler cannot delay a mode switch indefinitely.
constexpr int kInlineCompileAfterMorsels = 2;

/// One of this pipeline's trace events; `mode` is the event's detail.
TraceEvent PipelineEvent(const PipelineExecState& st, TraceEventKind kind,
                         int64_t start, int64_t end, uint64_t payload,
                         ExecMode mode) {
  TraceEvent e;
  e.kind = kind;
  e.start_nanos = start;
  e.end_nanos = end;
  e.payload = payload;
  e.query_id = st.obs.query_id;
  e.pipeline_id = static_cast<uint16_t>(st.pipeline_id);
  e.detail = static_cast<uint8_t>(mode);
  return e;
}

/// Runs one claimed batch through the current variant, with work and
/// trace bookkeeping. `slot` is the rate slot, `thread` the trace lane.
/// The batch (one range on an unpruned scan, up to kMaxRanges fragments of
/// a pruned domain) counts as one morsel and records one trace event, so
/// the bookkeeping cost stays per-claim, not per-fragment; the recorded
/// rate honestly includes the inter-fragment dispatch overhead. A batch
/// that straddles an install counts toward the mode it started in, so it
/// never enters the new mode's rate.
void ExecuteMorsel(PipelineExecState& st, const MorselBatch& batch, int slot,
                   int thread) {
  ExecMode mode = st.handle->mode();
  int64_t t0 = MonotonicNanos();
  for (int i = 0; i < batch.count; ++i) {
    st.handle->Call(st.state, batch.ranges[i].begin, batch.ranges[i].end);
  }
  int64_t t1 = MonotonicNanos();
  auto& work =
      st.rates[static_cast<size_t>(slot)].modes[static_cast<int>(mode)];
  work.morsels.fetch_add(1, std::memory_order_relaxed);
  work.tuples.fetch_add(batch.rows, std::memory_order_relaxed);
  work.busy_nanos.fetch_add(static_cast<uint64_t>(t1 - t0),
                            std::memory_order_relaxed);
  if (st.obs.enabled()) {
    st.obs.tracer->Record(thread, PipelineEvent(st, TraceEventKind::kMorsel,
                                                t0, t1, batch.rows, mode));
  }
}

/// Claims and runs the queued compile job, then installs its code into the
/// handle unless the domain drained meanwhile. A job that produced no code
/// leaves kFailed: the pipeline keeps its tier and is decided no more.
/// Callable from any scheduler worker; the controller passes
/// `blocking_seconds` when it compiles inline.
void TryRunCompileJob(PipelineExecState& st,
                      double* blocking_seconds = nullptr) {
  int expected = kCompQueued;
  if (!st.compile_state.compare_exchange_strong(expected, kCompRunning,
                                                std::memory_order_acq_rel)) {
    return;
  }
  const ExecMode target = st.compile_target;
  const CompileJob job = std::move(st.job);
  Timer compile_timer;
  const int64_t t0 = MonotonicNanos();
  CompiledCode code = job();
  const double seconds = compile_timer.ElapsedSeconds();
  if (blocking_seconds != nullptr) *blocking_seconds += seconds;
  if (code.fn == nullptr) {
    st.compile_state.store(kCompFailed, std::memory_order_release);
    return;
  }
  if (st.obs.enabled()) {
    st.obs.tracer->Record(
        runtime_internal::GetThreadIndex(),
        PipelineEvent(st, TraceEventKind::kCompile, t0, MonotonicNanos(),
                      st.function_instructions, target));
  }
  {
    std::lock_guard<std::mutex> lock(st.mu);
    if (!st.drained) {
      st.handle->SetCompiled(code.fn, target);
      st.compiles.emplace_back(target, seconds);
      st.install_nanos.push_back(MonotonicNanos());
      st.keepalive.push_back(std::move(code.keepalive));
    }
  }
  st.compile_state.store(kCompIdle, std::memory_order_release);
}

/// The domain ran dry: aborts a compile job nobody claimed (it would be
/// wasted work) and closes installs, so a running job drops its code.
void CloseCompiles(PipelineExecState& st) {
  int expected = kCompQueued;
  if (st.compile_state.compare_exchange_strong(expected, kCompIdle,
                                               std::memory_order_acq_rel)) {
    st.job = nullptr;
  }
  std::lock_guard<std::mutex> lock(st.mu);
  st.drained = true;
}

/// Processes one morsel per slice from its preferred shard (stealing when
/// dry), yielding between morsels so concurrent queries on the same worker
/// interleave at morsel granularity.
class MorselHelperTask : public Task {
 public:
  MorselHelperTask(std::shared_ptr<PipelineExecState> st, int slot)
      : st_(std::move(st)), slot_(slot) {}

  Status Run(int worker) override {
    PipelineExecState& st = *st_;
    // active_helpers is raised *before* the claim: the controller treats
    // "domain drained && active_helpers == 0" as completion, so a helper
    // between claim and call can never be missed.
    st.active_helpers.fetch_add(1, std::memory_order_seq_cst);
    MorselBatch morsel;
    const bool claimed = st.shards.Next(slot_, &morsel);
    if (claimed) ExecuteMorsel(st, morsel, slot_, worker);
    st.active_helpers.fetch_sub(1, std::memory_order_seq_cst);
    return claimed ? Status::kYield : Status::kDone;
  }

 private:
  std::shared_ptr<PipelineExecState> st_;
  const int slot_;
};

/// Carrier for an adaptive compile decision.
class CompileJobTask : public Task {
 public:
  CompileJobTask(std::shared_ptr<PipelineExecState> st, int cls)
      : st_(std::move(st)) {
    set_scheduling_class(cls);
  }

  Status Run(int) override {
    TryRunCompileJob(*st_);
    return Status::kDone;
  }

 private:
  std::shared_ptr<PipelineExecState> st_;
};

}  // namespace

const char* ExecutionStrategyName(ExecutionStrategy strategy) {
  switch (strategy) {
    case ExecutionStrategy::kBytecode: return "bytecode";
    case ExecutionStrategy::kUnoptimized: return "unoptimized";
    case ExecutionStrategy::kOptimized: return "optimized";
    case ExecutionStrategy::kAdaptive: return "adaptive";
  }
  AQE_UNREACHABLE("bad ExecutionStrategy");
}

// --- PipelineRun: the resumable controller --------------------------------

PipelineRun::PipelineRun(TaskScheduler* scheduler, ExecutionStrategy strategy,
                         CostModelParams params, const PipelineTask& task,
                         bool single_threaded, double first_eval_delay_seconds)
    : sched_(scheduler),
      strategy_(strategy),
      params_(params),
      task_(task),
      single_threaded_(single_threaded),
      first_eval_delay_seconds_(first_eval_delay_seconds),
      adaptive_(strategy == ExecutionStrategy::kAdaptive) {
  AQE_CHECK(sched_ != nullptr);
  AQE_CHECK(task_.handle != nullptr && task_.domain != nullptr &&
            task_.report != nullptr);
}

PipelineRun::~PipelineRun() {
  if (st_ == nullptr || phase_ == Phase::kDone) return;
  // Abandoned mid-run (a query failed over budget, or the scheduler's
  // destructor destroying a suspended query task): close the morsel domain
  // and installs, and wait out in-flight morsels so the owner may free
  // handle/state/bindings right after us (invariant 3). With the workers
  // joined nothing claims anew, so this returns immediately.
  MorselBatch discard;
  while (st_->shards.Next(controller_slot_, &discard)) {
  }
  CloseCompiles(*st_);
  while (!st_->Quiescent()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void PipelineRun::Start(int worker) {
  AQE_CHECK_MSG(TaskScheduler::CurrentScheduler() == sched_ &&
                    TaskScheduler::CurrentWorker() == worker,
                "a PipelineRun is stepped only by a task of its own "
                "scheduler, passing the worker index its Run received");
  start_nanos_ = MonotonicNanos();
  task_.report->initial_mode = task_.handle->mode();
  // The controller's identity — fixed now, at the first step (invariant 2).
  const int workers = sched_->num_workers();
  participants_ = single_threaded_ ? 1 : workers;
  controller_slot_ = single_threaded_ ? 0 : worker;

  st_ = std::make_shared<PipelineExecState>(task_.domain, participants_,
                                            task_.morsel_tuples);
  st_->handle = task_.handle;
  st_->state = task_.state;
  st_->pipeline_id = task_.pipeline_id;
  st_->function_instructions = task_.function_instructions;
  st_->obs = task_.obs;

  if (st_->obs.enabled()) {
    st_->obs.tracer->Record(
        worker,
        PipelineEvent(*st_, TraceEventKind::kPipelineStart, start_nanos_,
                      start_nanos_, st_->shards.total(), ExecMode::kBytecode));
  }

  // Static compile-up-front strategies (single-threaded compilation before
  // any morsel runs — exactly the §III critique). Skipped when the handle
  // was seeded with cached machine code already in the requested mode.
  const ExecMode up_front = strategy_ == ExecutionStrategy::kUnoptimized
                                ? ExecMode::kUnoptimized
                                : ExecMode::kOptimized;
  if ((strategy_ == ExecutionStrategy::kUnoptimized ||
       strategy_ == ExecutionStrategy::kOptimized) &&
      task_.handle->mode() != up_front) {
    QueueCompile(up_front);
    TryRunCompileJob(*st_, &blocking_compile_seconds_);
    AQE_CHECK_MSG(task_.handle->mode() == up_front, "static compile failed");
  }

  if (!single_threaded_) {
    for (int v = 0; v < workers; ++v) {
      if (v == worker) continue;  // the controller drains its own shard
      auto helper = std::make_unique<MorselHelperTask>(st_, v);
      helper->set_scheduling_class(task_.scheduling_class);
      sched_->SubmitTo(v, std::move(helper));
    }
  }
  phase_ = Phase::kMorsels;
}

Task::Status PipelineRun::Step(int worker) {
  switch (phase_) {
    case Phase::kStart:
      if (single_threaded_) return RunSingleThreaded(worker);
      Start(worker);
      return Task::Status::kYield;
    case Phase::kMorsels:
      return StepMorsel(worker);
    case Phase::kDrain:
      return StepDrain();
    case Phase::kDone:
      return Task::Status::kDone;
  }
  AQE_UNREACHABLE("bad PipelineRun phase");
}

Task::Status PipelineRun::RunSingleThreaded(int worker) {
  // Invariant 4: strictly one thread touches the pipeline, in one slice —
  // no helpers, no yields, compiles inline.
  Start(worker);
  while (StepMorsel(worker) == Task::Status::kYield) {
  }
  return Task::Status::kDone;
}

Task::Status PipelineRun::StepMorsel(int worker) {
  MorselBatch morsel;
  if (!st_->shards.Next(controller_slot_, &morsel)) {
    // Domain drained. A running compile is not waited for: in-flight
    // helper morsels are the only thing the drain waits out.
    CloseCompiles(*st_);
    phase_ = Phase::kDrain;
    return StepDrain();
  }
  // The checkpoint: exactly one controller morsel (plus the §III-C
  // re-evaluation) per slice, then hand the worker back to the scheduler.
  ExecuteMorsel(*st_, morsel, controller_slot_, worker);
  if (adaptive_) Evaluate(worker);
  return Task::Status::kYield;
}

Task::Status PipelineRun::StepDrain() {
  // Helpers mid-morsel finish within a morsel: check again next slice.
  if (!st_->Quiescent()) return Task::Status::kYield;
  PipelineReport& report = *task_.report;
  std::vector<int64_t> install_nanos;
  {
    std::lock_guard<std::mutex> lock(st_->mu);
    report.compiles = std::move(st_->compiles);
    install_nanos = std::move(st_->install_nanos);
  }
  const int64_t end_nanos = MonotonicNanos();
  report.exec_seconds = static_cast<double>(end_nanos - start_nanos_) / 1e9;
  report.exec_only_seconds = report.exec_seconds - blocking_compile_seconds_;
  report.final_mode = task_.handle->mode();

  // A mode's wall time is how long the handle held it: from the start (or
  // its install) to the next install (or now). The holds partition
  // exec_seconds; a blocking compile counts toward the mode it replaces.
  int64_t held_nanos[kNumExecModes] = {};
  int mode = static_cast<int>(report.initial_mode);
  int64_t since = start_nanos_;
  for (size_t i = 0; i < install_nanos.size(); ++i) {
    held_nanos[mode] += install_nanos[i] - since;
    mode = static_cast<int>(report.compiles[i].first);
    since = install_nanos[i];
  }
  held_nanos[mode] += end_nanos - since;
  // The slots are quiescent: sum their per-mode work.
  uint64_t helper_busy_nanos = 0;
  for (int m = 0; m < kNumExecModes; ++m) {
    ModeSliceProfile slice;
    slice.mode = static_cast<ExecMode>(m);
    uint64_t busy_nanos = 0;
    for (size_t s = 0; s < st_->rates.size(); ++s) {
      const auto& work = st_->rates[s].modes[m];
      slice.morsels += work.morsels.load(std::memory_order_relaxed);
      slice.tuples += work.tuples.load(std::memory_order_relaxed);
      const uint64_t nanos = work.busy_nanos.load(std::memory_order_relaxed);
      busy_nanos += nanos;
      if (static_cast<int>(s) != controller_slot_) helper_busy_nanos += nanos;
    }
    if (held_nanos[m] == 0 && slice.morsels == 0) continue;  // never held
    slice.busy_seconds = static_cast<double>(busy_nanos) / 1e9;
    slice.wall_seconds = static_cast<double>(held_nanos[m]) / 1e9;
    report.modes.push_back(slice);
  }
  report.helper_busy_seconds = static_cast<double>(helper_busy_nanos) / 1e9;
  for (ModeSwitchRecord& rec : report.mode_switches) {
    rec.realized_seconds =
        static_cast<double>(end_nanos - rec.decision_nanos) / 1e9;
  }
  phase_ = Phase::kDone;
  return Task::Status::kDone;
}

/// §III-C: the extrapolation is performed by a single thread — the
/// controller — re-evaluated after every one of its morsels.
void PipelineRun::Evaluate(int worker) {
  // The phase first: once a job left kRunning, its install is visible.
  const int phase = st_->compile_state.load(std::memory_order_acquire);
  if (phase == kCompQueued &&
      ++morsels_since_queued_ == kInlineCompileAfterMorsels) {
    // No other worker claimed the job: this worker pops it next, once the
    // controller yields.
    sched_->SubmitTo(worker, std::make_unique<CompileJobTask>(
                                 st_, task_.scheduling_class));
  }
  const ExecMode mode = task_.handle->mode();
  if (phase != kCompIdle || mode == ExecMode::kOptimized) return;
  if (static_cast<double>(MonotonicNanos() - start_nanos_) <
      first_eval_delay_seconds_ * 1e9) {
    return;
  }
  // Fig 7's r0: the average per-participant rate in the handle's mode,
  // over the morsels that started in it (§III-C's rate reset).
  double rate_sum = 0;
  int rate_count = 0;
  for (const auto& slot : st_->rates) {
    const auto& work = slot.modes[static_cast<int>(mode)];
    const uint64_t nanos = work.busy_nanos.load(std::memory_order_relaxed);
    const uint64_t tuples = work.tuples.load(std::memory_order_relaxed);
    if (nanos == 0 || tuples == 0) continue;
    rate_sum +=
        static_cast<double>(tuples) / (static_cast<double>(nanos) / 1e9);
    ++rate_count;
  }
  if (rate_count == 0) return;
  double r0 = rate_sum / rate_count;
  const uint64_t remaining = st_->shards.remaining();
  ExtrapolationBreakdown breakdown;
  Decision decision = ExtrapolatePipelineDurations(
      r0, remaining, participants_, task_.function_instructions, mode,
      params_, task_.runtime_call_fraction, &breakdown);
  if (decision == Decision::kDoNothing) return;
  const ExecMode target = decision == Decision::kCompileUnoptimized
                              ? ExecMode::kUnoptimized
                              : ExecMode::kOptimized;
  const int64_t decision_nanos = MonotonicNanos();
  {
    // Prediction-vs-realized bookkeeping: keep the decision in the report
    // (only the controller writes it), realized filled at drain.
    ModeSwitchRecord rec;
    rec.target = target;
    rec.decision_nanos = decision_nanos;
    rec.r0 = r0;
    rec.remaining_tuples = remaining;
    rec.t_current_seconds = breakdown.t_current;
    rec.t_chosen_seconds = breakdown.chosen_seconds(decision);
    task_.report->mode_switches.push_back(rec);
  }
  if (st_->obs.enabled()) {
    // The §III-C decision with its cost-model inputs: what the controller
    // observed (r0) and what it extrapolated for staying vs. switching.
    TraceEvent e =
        PipelineEvent(*st_, TraceEventKind::kModeSwitch, decision_nanos,
                      decision_nanos, remaining, target);
    e.payload2 = TraceEventDoubleToBits(task_.runtime_call_fraction);
    e.d0 = r0;
    e.d1 = breakdown.t_current;
    e.d2 = breakdown.chosen_seconds(decision);
    st_->obs.tracer->Record(worker, e);
  }
  morsels_since_queued_ = 0;
  QueueCompile(target);
  if (participants_ == 1) {
    // No other thread can ever pick the job up: compile inline now.
    TryRunCompileJob(*st_, &blocking_compile_seconds_);
  } else {
    sched_->Submit(
        std::make_unique<CompileJobTask>(st_, task_.scheduling_class),
        TaskPriority::kLow);
  }
}

/// Prepares the compile on the controller, while the plan is alive, and
/// queues the job, which owns its inputs.
void PipelineRun::QueueCompile(ExecMode target) {
  AQE_CHECK_MSG(task_.compile != nullptr, "pipeline has no compile hook");
  st_->job = task_.compile(target);
  st_->compile_target = target;
  st_->compile_state.store(kCompQueued, std::memory_order_release);
}

}  // namespace aqe
