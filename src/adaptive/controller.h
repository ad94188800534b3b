#ifndef AQE_ADAPTIVE_CONTROLLER_H_
#define AQE_ADAPTIVE_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "adaptive/cost_model.h"
#include "exec/function_handle.h"
#include "exec/morsel.h"
#include "obs/observability.h"
#include "obs/pipeline_report.h"
#include "sched/scheduler.h"
#include "sched/task.h"

namespace aqe {

/// How a query/pipeline is executed (§V's four contenders).
enum class ExecutionStrategy {
  kBytecode,     ///< pure interpretation
  kUnoptimized,  ///< compile unoptimized up front, then run
  kOptimized,    ///< compile optimized up front, then run
  kAdaptive,     ///< start interpreting, switch on runtime feedback (§III)
};

const char* ExecutionStrategyName(ExecutionStrategy strategy);

/// What a compile job produced: the machine code and what keeps it alive.
/// A null `fn` is a failed compile.
struct CompiledCode {
  WorkerFn fn = nullptr;
  std::shared_ptr<const void> keepalive;
};

/// One compile that owns every input it reads (the IR module, and whatever
/// it publishes its code with), so it may run on any worker, even after its
/// pipeline drained and its query finished.
using CompileJob = std::function<CompiledCode()>;

/// One pipeline's execution request.
struct PipelineTask {
  FunctionHandle* handle = nullptr;  ///< starts in bytecode mode
  void* state = nullptr;
  /// The rows the run schedules, known at pipeline start (§III-A); never
  /// null. An unpruned scan of n rows is ScanDomain::Make({{0, n}}, n); an
  /// index/zone-map pruned one (src/index/) holds only the surviving
  /// ranges, so the §III-C extrapolation reasons over the rows that will
  /// actually run.
  std::shared_ptr<const ScanDomain> domain;
  /// Fixed morsel size, for engine-step runs whose units are indivisible
  /// (one aggregation partition per morsel); 0 = the growing schedule.
  uint64_t morsel_tuples = 0;
  uint64_t function_instructions = 0; ///< LLVM instruction count (cost model)
  /// Fraction of per-tuple time spent in opaque runtime calls
  /// (RuntimeCallFraction over the worker's loop-body IR): discounts the
  /// compiled speedups in every §III-C evaluation, so call-heavy pipelines
  /// (LIKE via aqe_like_match) stay interpreted longer.
  double runtime_call_fraction = 0;
  /// Prepares a compile of the pipeline's worker function in the given
  /// mode: runs on the controller, while the plan is alive, and returns the
  /// job that compiles it. Called at most once per mode.
  std::function<CompileJob(ExecMode)> compile;
  int pipeline_id = 0;
  /// Weighted-fair scheduling class the pipeline's helper and compile tasks
  /// inherit (the submitting query's class; see sched/task.h).
  int scheduling_class = 0;
  /// Engine observability: ring-buffer trace events (morsels, mode-switch
  /// decisions with their cost-model inputs, compiles); a default-empty
  /// PipelineObs records nothing.
  PipelineObs obs;
  /// What the run ran, written by the controller: its initial mode when it
  /// starts, its mode switches as it decides them, and the rest when it
  /// drains (see PipelineReport). Never null; owned by the caller and
  /// valid until done() or destruction. The caller fills the fields the
  /// run does not (name, tuples, codegen, pruning).
  PipelineReport* report = nullptr;
};

/// Shared state of one pipeline execution on the task scheduler (defined in
/// controller.cc; held via shared_ptr by the controller and every helper /
/// compile task).
struct PipelineExecState;

/// One pipeline execution as a *resumable state machine*: the adaptive
/// controller's run loop, checkpointed at morsel boundaries. Each Step()
/// call runs one bounded slice — one controller morsel (plus the §III-C
/// cost-model evaluation), one up-front compile, or one drain check — and
/// returns Task::Status::kYield until the pipeline completes, exactly like
/// the morsel helper tasks it spawns. Only a task of the run's scheduler
/// steps it, from its Run(worker): as in the paper, every thread that takes
/// part in a pipeline is a morsel worker. A query task embedding a
/// PipelineRun therefore never blocks its worker for a whole pipeline: the
/// scheduler interleaves other queries' slices between the controller's
/// morsels, and the run may resume on a *different* worker after a steal.
///
/// The §III-C policy for kAdaptive: every participant (the controller —
/// the task that steps the run — plus one morsel helper task per other
/// worker) counts its work per morsel, under the mode the morsel started
/// in; the controller alone, from 1 ms in and after each of its morsels,
/// runs the Fig 7 extrapolation on the participants' rates in the handle's
/// current mode. When compiling wins, the controller prepares a CompileJob
/// and submits a task that runs it to its own worker, which pops it next,
/// once the controller yields, while every other participant keeps running
/// morsels; its code flips the FunctionHandle unless the run has drained.
/// The next evaluation reads the new mode's counters, which is the paper's
/// rate reset. With one participant the controller runs it.
///
/// ===================== Suspension invariants =====================
///
/// 1. All mode-switch state survives suspension. The per-mode work
///    counters r0 is read from (per mode, so a switch needs no reset),
///    the compile handshake word (its phase and target mode),
///    the recorded compiles and the calibrated cost-model parameters live
///    in PipelineExecState / PipelineRun members, never on a worker's
///    stack — a resumed controller continues the §III-C evaluation exactly
///    where it left off, and the mode-switch sequence is identical to a
///    single-threaded run's (differential-tested in tests/sched_test.cc
///    and tests/fairness_test.cc).
///
/// 2. The controller's identity is fixed at the *first* Step. Its rate
///    slot and preferred shard are the first-step worker's index, and the
///    participants are the scheduler's workers (1 when single-threaded),
///    chosen once and stored; migration to another worker after a yield
///    changes only which thread executes — the migrated controller keeps
///    draining its own shard and rate slot, which no helper task ever
///    uses, so slots never collide. Per-thread runtime partitions
///    (aggregation tables, output buffers) are always indexed by the
///    *executing* thread, which is correct under migration because a
///    buffer's consumer reads every thread's rows, and an aggregation's
///    partition merge folds partition p of every thread table.
///
/// 3. Raw pipeline pointers outlive the run; no compile borrows them.
///    Helper tasks dereference `task.handle` and `task.state` only after a
///    successful morsel claim. A compile job owns what it reads, and its
///    install touches `task.handle` only under PipelineExecState::mu while
///    the run has not drained. The drain phase (and the destructor, for a
///    run abandoned mid-run) closes the morsel domain and installs, and
///    waits until no morsel claim is in flight (`active_helpers == 0`), so
///    the owner may free the handle, binding array and captured state the
///    moment the run is done or destroyed, however long a compile runs.
///    Straggler tasks touch only the shared_ptr-owned PipelineExecState.
///
/// 4. `single_threaded` pins the pledge, not the wall clock: the whole
///    pipeline (morsels and compiles) executes inside one Step on the
///    stepping worker — no helper tasks, no yields, compiles inline — so
///    differential references and the paper's single-threaded latency
///    figures see strictly one thread touch the pipeline.
class PipelineRun {
 public:
  /// `task`'s raw pointers (handle, state, compile captures) must stay
  /// valid until done() or destruction (invariant 3).
  /// `first_eval_delay_seconds`: the first adaptive evaluation happens
  /// this long after pipeline start (paper: 1 ms, "to increase the
  /// accuracy of the estimates").
  PipelineRun(TaskScheduler* scheduler, ExecutionStrategy strategy,
              CostModelParams params, const PipelineTask& task,
              bool single_threaded, double first_eval_delay_seconds);
  ~PipelineRun();

  PipelineRun(const PipelineRun&) = delete;
  PipelineRun& operator=(const PipelineRun&) = delete;

  /// Runs one bounded slice. `worker` is the index the calling
  /// Task::Run(worker) received from the run's scheduler; the first step
  /// aborts on any other caller. kYield: step again (from any worker's
  /// task slice); kDone: the pipeline finished and its report is filled.
  Task::Status Step(int worker);

  bool done() const { return phase_ == Phase::kDone; }

 private:
  enum class Phase { kStart, kMorsels, kDrain, kDone };

  void Start(int worker);
  Task::Status StepMorsel(int worker);
  Task::Status StepDrain();
  Task::Status RunSingleThreaded(int worker);  // one slice (inv. 4)
  void Evaluate(int worker);
  void QueueCompile(ExecMode target);

  TaskScheduler* sched_;
  ExecutionStrategy strategy_;
  CostModelParams params_;
  PipelineTask task_;
  bool single_threaded_;
  double first_eval_delay_seconds_;

  Phase phase_ = Phase::kStart;
  std::shared_ptr<PipelineExecState> st_;
  int participants_ = 1;
  int controller_slot_ = 0;
  int64_t start_nanos_ = 0;
  /// Compile time that occupied the controller thread: the up-front static
  /// compiles and, with one participant, adaptive compiles. Compile tasks
  /// overlap execution and are not counted. The report's exec_only_seconds
  /// is exec_seconds minus this.
  double blocking_compile_seconds_ = 0;
  bool adaptive_ = false;
};

}  // namespace aqe

#endif  // AQE_ADAPTIVE_CONTROLLER_H_
