#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/calibrate.h"
#include "adaptive/controller.h"
#include "adaptive/cost_model.h"
#include "common/timer.h"
#include "exec/function_handle.h"
#include "exec/morsel.h"
#include "obs/export.h"
#include "obs/tracer.h"
#include "sched/scheduler.h"
#include "tests/pipeline_test_util.h"

namespace aqe {
namespace {

// --- MorselQueue ----------------------------------------------------------
//
// An unpruned scan of n rows is the one-range domain [0, n): every batch
// claimed from it is one range, on the schedule below.

MorselQueue DenseQueue(uint64_t n, uint64_t initial_size = 1024,
                       uint64_t max_size = 16384, uint64_t grow_every = 8) {
  return MorselQueue(ScanDomain::Make({{0, n}}, n), 0, n, initial_size,
                     max_size, grow_every);
}

/// Claims one batch and returns its single range in `m`.
bool NextRange(MorselQueue* queue, MorselRange* m) {
  MorselBatch batch;
  if (!queue->Next(&batch)) return false;
  EXPECT_EQ(batch.count, 1);
  *m = batch.ranges[0];
  return true;
}

TEST(MorselQueueTest, CoversDomainExactlyOnce) {
  MorselQueue queue = DenseQueue(100000, 1024);
  std::vector<bool> seen(100000, false);
  MorselRange m;
  while (NextRange(&queue, &m)) {
    for (uint64_t i = m.begin; i < m.end; ++i) {
      ASSERT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
  for (bool s : seen) ASSERT_TRUE(s);
  EXPECT_EQ(queue.remaining(), 0u);
}

TEST(MorselQueueTest, GrowingMorselSizes) {
  MorselQueue queue = DenseQueue(1 << 20, 1024, 16384, 4);
  MorselRange m;
  ASSERT_TRUE(NextRange(&queue, &m));
  EXPECT_EQ(m.end - m.begin, 1024u);
  uint64_t max_seen = 0;
  while (NextRange(&queue, &m)) max_seen = std::max(max_seen, m.end - m.begin);
  EXPECT_EQ(max_seen, 16384u);
}

TEST(MorselQueueTest, ConcurrentWorkStealingNoOverlap) {
  MorselQueue queue = DenseQueue(1 << 18, 512);
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&queue, &total] {
      MorselRange m;
      while (NextRange(&queue, &m)) total += m.end - m.begin;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total.load(), uint64_t{1} << 18);
}

TEST(MorselQueueTest, EmptyDomain) {
  MorselQueue queue = DenseQueue(0);
  MorselRange m;
  EXPECT_FALSE(NextRange(&queue, &m));
}

// Dynamic morsel-size growth boundaries: the size doubles after every
// `grow_every` morsels of each size, is a pure function of the cursor
// position, clamps at `max_size`, and the final morsel may be partial.

TEST(MorselQueueTest, GrowthBoundarySchedule) {
  // initial 4, grow_every 2, max 16: sizes 4,4,8,8,16,16,16,...
  MorselQueue queue = DenseQueue(100, 4, 16, 2);
  EXPECT_EQ(queue.SizeAt(0), 4u);
  EXPECT_EQ(queue.SizeAt(7), 4u);   // still inside the first 2 morsels
  EXPECT_EQ(queue.SizeAt(8), 8u);   // first boundary: 2 * 4
  EXPECT_EQ(queue.SizeAt(23), 8u);  // 8 + 2*8 = 24 is the next boundary
  EXPECT_EQ(queue.SizeAt(24), 16u);
  EXPECT_EQ(queue.SizeAt(1000), 16u);  // clamped forever after

  std::vector<uint64_t> sizes;
  MorselRange m;
  while (NextRange(&queue, &m)) sizes.push_back(m.end - m.begin);
  // Positions 0,4 | 8,16 | 24,40,56,72,88 — the tail morsel is partial.
  EXPECT_EQ(sizes, (std::vector<uint64_t>{4, 4, 8, 8, 16, 16, 16, 16, 12}));
}

TEST(MorselQueueTest, ClampsAtMaxSizeEvenWhenNotPowerOfTwoMultiple) {
  // max_size 24 is not initial * 2^k: growth must clamp to exactly 24.
  MorselQueue queue = DenseQueue(1000, 10, 24, 1);
  std::vector<uint64_t> sizes;
  MorselRange m;
  while (NextRange(&queue, &m)) sizes.push_back(m.end - m.begin);
  // 10, then 20, then clamp: min(40, 24) = 24 for the rest.
  EXPECT_EQ(sizes[0], 10u);
  EXPECT_EQ(sizes[1], 20u);
  for (size_t i = 2; i + 1 < sizes.size(); ++i) EXPECT_EQ(sizes[i], 24u);
  EXPECT_LE(sizes.back(), 24u);
}

TEST(MorselQueueTest, LastMorselIsPartial) {
  MorselQueue queue = DenseQueue(2500, 1024);
  MorselRange m;
  uint64_t last = 0, covered = 0;
  while (NextRange(&queue, &m)) {
    last = m.end - m.begin;
    covered += m.end - m.begin;
    EXPECT_LE(m.end, 2500u);
  }
  EXPECT_EQ(covered, 2500u);
  EXPECT_EQ(last, 2500u % 1024);  // 452-row partial tail
}

// --- FunctionHandle ----------------------------------------------------------

struct HandleProbe {
  std::atomic<int> interpreted{0};
  std::atomic<int> compiled{0};
};

void FakeInterpreter(void* state, uint64_t, uint64_t, const void* extra) {
  EXPECT_NE(extra, nullptr);
  static_cast<HandleProbe*>(state)->interpreted++;
}
void FakeCompiled(void* state, uint64_t, uint64_t, const void*) {
  static_cast<HandleProbe*>(state)->compiled++;
}

TEST(FunctionHandleTest, SwitchesVariantMidStream) {
  int program_marker = 0;
  FunctionHandle handle(&FakeInterpreter, &program_marker);
  EXPECT_FALSE(handle.is_compiled());
  HandleProbe probe;
  handle.Call(&probe, 0, 10);
  EXPECT_EQ(probe.interpreted.load(), 1);
  handle.SetCompiled(&FakeCompiled, ExecMode::kUnoptimized);
  EXPECT_TRUE(handle.is_compiled());
  EXPECT_EQ(handle.mode(), ExecMode::kUnoptimized);
  handle.Call(&probe, 10, 20);
  EXPECT_EQ(probe.compiled.load(), 1);
  EXPECT_EQ(probe.interpreted.load(), 1);
}

// --- Cost model (Fig 7) --------------------------------------------------------

TEST(CostModelTest, TinyPipelineStaysInterpreted) {
  CostModelParams params;
  // 1k tuples at 1M tuples/s/thread: 1 ms of work left — never compile.
  EXPECT_EQ(ExtrapolatePipelineDurations(1e6, 1000, 4, 5000,
                                         ExecMode::kBytecode, params),
            Decision::kDoNothing);
}

TEST(CostModelTest, HugePipelineCompilesOptimized) {
  CostModelParams params;
  // 1B tuples remaining: optimized compilation must dominate.
  EXPECT_EQ(ExtrapolatePipelineDurations(1e6, 1000000000ull, 4, 5000,
                                         ExecMode::kBytecode, params),
            Decision::kCompileOptimized);
}

TEST(CostModelTest, MediumPipelineCompilesUnoptimized) {
  CostModelParams params;
  params.unopt_base_seconds = 5e-3;
  params.opt_base_seconds = 50e-3;
  // Work worth ~30ms of interpretation: unoptimized pays off, optimized
  // compilation alone costs more than the remaining work.
  Decision d = ExtrapolatePipelineDurations(1e6, 120000, 1, 1000,
                                            ExecMode::kBytecode, params);
  EXPECT_EQ(d, Decision::kCompileUnoptimized);
}

TEST(CostModelTest, UpgradesFromUnoptimizedOnlyToOptimized) {
  CostModelParams params;
  EXPECT_EQ(ExtrapolatePipelineDurations(3.6e6, 2000000000ull, 4, 5000,
                                         ExecMode::kUnoptimized, params),
            Decision::kCompileOptimized);
  EXPECT_EQ(ExtrapolatePipelineDurations(3.6e6, 1000, 4, 5000,
                                         ExecMode::kUnoptimized, params),
            Decision::kDoNothing);
}

TEST(CostModelTest, OptimizedNeverSwitches) {
  CostModelParams params;
  EXPECT_EQ(ExtrapolatePipelineDurations(5e6, 1ull << 40, 4, 5000,
                                         ExecMode::kOptimized, params),
            Decision::kDoNothing);
}

TEST(CostModelTest, ZeroRemainingOrZeroRate) {
  CostModelParams params;
  EXPECT_EQ(ExtrapolatePipelineDurations(1e6, 0, 4, 100,
                                         ExecMode::kBytecode, params),
            Decision::kDoNothing);
  EXPECT_EQ(ExtrapolatePipelineDurations(0, 100, 4, 100,
                                         ExecMode::kBytecode, params),
            Decision::kDoNothing);
}

TEST(CostModelTest, WorkerCountChangesTheBreakEvenPoint) {
  // Fig 7 models that during compilation the other w-1 threads keep
  // draining the pipeline. Consequences, both checked here:
  //  (a) with one worker, a pipeline worth ~2x the compile time is still
  //      worth compiling (the compiled code recoups the stall);
  //  (b) with many workers, the same pipeline drains before compilation
  //      would finish, so the model correctly refuses to compile.
  CostModelParams params;
  uint64_t n = 400000;  // 0.4 s of single-threaded interpretation at 1M/s
  Decision single = ExtrapolatePipelineDurations(1e6, n, 1, 20000,
                                                 ExecMode::kBytecode, params);
  Decision many = ExtrapolatePipelineDurations(1e6, n, 8, 20000,
                                               ExecMode::kBytecode, params);
  EXPECT_NE(single, Decision::kDoNothing);
  EXPECT_EQ(many, Decision::kDoNothing);

  // And with enough remaining work, everyone compiles.
  EXPECT_NE(ExtrapolatePipelineDurations(1e6, 100 * n, 8, 20000,
                                         ExecMode::kBytecode, params),
            Decision::kDoNothing);
}

TEST(CostModelTest, LargerFunctionsRaiseTheBar) {
  CostModelParams params;
  // Same remaining work; a huge function (expensive compile) should stay
  // interpreted while a small one compiles.
  uint64_t n = 300000;
  Decision small_fn = ExtrapolatePipelineDurations(
      1e6, n, 1, 500, ExecMode::kBytecode, params);
  Decision big_fn = ExtrapolatePipelineDurations(
      1e6, n, 1, 2000000, ExecMode::kBytecode, params);
  EXPECT_NE(small_fn, Decision::kDoNothing);
  EXPECT_EQ(big_fn, Decision::kDoNothing);
}

// --- PipelineRun, stepped by a scheduler task --------------------------------

using testutil::RunPipeline;
using testutil::SyntheticPipeline;

TEST(PipelineRunTest, BytecodeStrategyNeverCompiles) {
  TaskScheduler sched(2);
  SyntheticPipeline pipe;
  PipelineTask task = pipe.MakeTask(100000);
  task.compile = testutil::Hook([](ExecMode) -> WorkerFn {
    ADD_FAILURE() << "bytecode strategy must not compile";
    return nullptr;
  });
  PipelineReport report =
      RunPipeline(&sched, ExecutionStrategy::kBytecode, task);
  EXPECT_EQ(pipe.interpreted_tuples.load(), 100000u);
  EXPECT_EQ(report.final_mode, ExecMode::kBytecode);
  EXPECT_TRUE(report.compiles.empty());
}

TEST(PipelineRunTest, StaticOptimizedCompilesUpFront) {
  TaskScheduler sched(2);
  SyntheticPipeline pipe;
  PipelineTask task = pipe.MakeTask(50000);
  int compile_calls = 0;
  task.compile = testutil::Hook([&compile_calls](ExecMode mode) -> WorkerFn {
    ++compile_calls;
    EXPECT_EQ(mode, ExecMode::kOptimized);
    return &SyntheticPipeline::FastOpt;
  });
  PipelineReport report =
      RunPipeline(&sched, ExecutionStrategy::kOptimized, task);
  EXPECT_EQ(compile_calls, 1);
  EXPECT_EQ(pipe.interpreted_tuples.load(), 0u);
  EXPECT_EQ(pipe.opt_tuples.load(), 50000u);
  EXPECT_EQ(report.final_mode, ExecMode::kOptimized);
}

TEST(PipelineRunTest, AdaptiveSwitchesOnLongPipeline) {
  TaskScheduler sched(3);
  SyntheticPipeline pipe;
  CostModelParams params;
  params.unopt_base_seconds = 1e-3;
  params.unopt_per_instruction_seconds = 0;
  params.opt_base_seconds = 4e-3;
  params.opt_per_instruction_seconds = 0;
  // ~100 ms of interpretation across the 3 participants.
  PipelineReport report = RunPipeline(&sched, ExecutionStrategy::kAdaptive,
                                      pipe.MakeTask(3000000), params);
  // All tuples processed exactly once across the modes.
  EXPECT_EQ(pipe.total(), 3000000u);
  // It must have decided to compile, starting from bytecode.
  EXPECT_GT(pipe.interpreted_tuples.load(), 0u);
  EXPECT_FALSE(report.compiles.empty());
  EXPECT_NE(report.final_mode, ExecMode::kBytecode);
}

TEST(PipelineRunTest, AdaptiveLeavesShortPipelineInterpreted) {
  TaskScheduler sched(2);
  SyntheticPipeline pipe;
  PipelineTask task = pipe.MakeTask(4000);  // well under 1 ms
  task.function_instructions = 5000;
  task.compile = testutil::Hook([](ExecMode) -> WorkerFn {
    ADD_FAILURE() << "short pipeline must not compile";
    return nullptr;
  });
  PipelineReport report =
      RunPipeline(&sched, ExecutionStrategy::kAdaptive, task);
  EXPECT_EQ(report.final_mode, ExecMode::kBytecode);
  EXPECT_EQ(pipe.interpreted_tuples.load(), 4000u);
}

TEST(PipelineRunTest, DrainDoesNotWaitForARunningCompile) {
  // The job blocks until released (3 s at most), far longer than the
  // pipeline runs: the run drains without it, and the code it returns
  // after the pipeline is gone is never installed.
  constexpr uint64_t kTuples = 1000000;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> job_stage{0};  // 1 blocked, 2 returned
  auto pipe = std::make_unique<SyntheticPipeline>();
  PipelineTask task = pipe->MakeTask(kTuples);
  task.compile = testutil::Hook([released, &job_stage](ExecMode) -> WorkerFn {
    job_stage = 1;
    released.wait_for(std::chrono::seconds(3));
    job_stage = 2;
    return &SyntheticPipeline::FastUnopt;
  });
  TaskScheduler sched(2);
  auto run = std::make_unique<PipelineRun>(
      &sched, ExecutionStrategy::kAdaptive, testutil::ForcedUnoptParams(),
      task, /*single_threaded=*/false, /*first_eval_delay_seconds=*/0);
  std::future<void> done = testutil::StepInTask(&sched, run.get());
  const bool drained =
      done.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  const int stage_at_drain = job_stage.load();
  if (!drained) {
    release.set_value();  // let a run that waits for the job end first
    done.get();
  }
  ASSERT_TRUE(drained) << "the drain waited for the running compile";
  EXPECT_EQ(stage_at_drain, 1);
  const PipelineReport& report = pipe->report;
  EXPECT_EQ(report.final_mode, ExecMode::kBytecode);
  EXPECT_TRUE(report.compiles.empty());
  EXPECT_EQ(report.mode_switches.size(), 1u);
  EXPECT_EQ(pipe->interpreted_tuples.load(), kTuples);
  EXPECT_EQ(pipe->total(), kTuples);
  // Free the pipeline before the job returns: an install into its handle
  // would now write freed memory.
  run.reset();
  pipe.reset();
  release.set_value();
}

TEST(PipelineRunTest, FailedCompileKeepsTheTier) {
  // A job that produces no code: nothing is installed, and the controller
  // decides no other compile for the pipeline.
  std::atomic<int> jobs{0};
  TaskScheduler sched(2);
  for (bool single_threaded : {true, false}) {
    SCOPED_TRACE(single_threaded ? "single-threaded" : "2 workers");
    jobs = 0;
    SyntheticPipeline pipe;
    PipelineTask task = pipe.MakeTask(1000000);
    task.compile = testutil::Hook([&jobs](ExecMode) -> WorkerFn {
      ++jobs;
      return nullptr;
    });
    PipelineReport report =
        RunPipeline(&sched, ExecutionStrategy::kAdaptive, task,
                    testutil::ForcedUnoptParams(), single_threaded,
                    /*first_eval_delay_seconds=*/0);
    EXPECT_EQ(jobs.load(), 1);
    EXPECT_EQ(report.mode_switches.size(), 1u);
    EXPECT_TRUE(report.compiles.empty());
    EXPECT_EQ(report.final_mode, ExecMode::kBytecode);
    EXPECT_EQ(pipe.interpreted_tuples.load(), 1000000u);
  }
}

TEST(PipelineRunTest, TraceRecordsMorselsAndCompiles) {
  TaskScheduler sched(2);
  EngineTracer tracer;
  SyntheticPipeline pipe;
  CostModelParams params;
  params.unopt_base_seconds = 1e-4;
  params.unopt_per_instruction_seconds = 0;
  PipelineTask task = pipe.MakeTask(2000000);
  task.function_instructions = 100;
  task.obs.tracer = &tracer;
  task.compile = testutil::Hook([](ExecMode mode) -> WorkerFn {
    // A compile long enough to own a few columns of the chart below.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return mode == ExecMode::kUnoptimized ? &SyntheticPipeline::FastUnopt
                                          : &SyntheticPipeline::FastOpt;
  });
  RunPipeline(&sched, ExecutionStrategy::kAdaptive, task, params);
  const TraceSnapshot snap = tracer.Snapshot();
  ASSERT_FALSE(snap.lanes.empty());
  bool has_morsel = false, has_compile = false;
  for (const auto& lane : snap.lanes) {
    for (const TraceEvent& e : lane.events) {
      has_morsel |= e.kind == TraceEventKind::kMorsel;
      has_compile |= e.kind == TraceEventKind::kCompile;
      EXPECT_GE(e.end_nanos, e.start_nanos);
    }
  }
  EXPECT_TRUE(has_morsel);
  EXPECT_TRUE(has_compile);
  // Every lane, so the controller's worker lane and whichever lane
  // compiled are both drawn.
  std::string chart = RenderTextTrace(snap, EngineTracer::kMaxLanes, 60);
  EXPECT_NE(chart.find("thread 0"), std::string::npos);
  EXPECT_NE(chart.find('#'), std::string::npos);
}

// --- §III-C rate reset: r0 is read per mode --------------------------------

/// True on a thread that is inside PipelineRun::Step: the controller's
/// morsels run there, a helper's never do.
thread_local bool tl_in_controller_step = false;

/// Spins `rows` x `ns_per_row`, so a morsel's measured rate is at most
/// 1e9 / ns_per_row rows/s.
void SpinRows(uint64_t rows, int64_t ns_per_row) {
  const int64_t until =
      MonotonicNanos() + static_cast<int64_t>(rows) * ns_per_row;
  while (MonotonicNanos() < until) {
  }
}

/// Spins until `done()`; after 5 s fails the test and returns, so a broken
/// handshake fails the test instead of hanging it.
template <typename Done>
void AwaitOrFail(Done done) {
  const int64_t deadline = MonotonicNanos() + 5'000'000'000;
  while (!done()) {
    if (MonotonicNanos() > deadline) {
      ADD_FAILURE() << "handshake timed out";
      return;
    }
  }
}

/// A pipeline whose helper runs one bytecode morsel across the switch to
/// unoptimized. The helper's first bytecode morsel holds until the handle
/// reports unoptimized. Its first compiled morsel marks `resumed` (which it
/// reaches only after the held morsel was counted) and then holds until the
/// switch to optimized, so the helper counts no unoptimized morsel before
/// the controller's second decision.
struct StraddlingPipeline {
  static constexpr int64_t kBytecodeNsPerRow = 400;
  static constexpr int64_t kUnoptNsPerRow = 200;
  static constexpr int64_t kOptNsPerRow = 100;

  FunctionHandle handle{&Bytecode, this};
  PipelineReport report;
  std::atomic<bool> holding{false};
  std::atomic<bool> resumed{false};
  /// The controller's first unoptimized morsel's rate, timed inside the
  /// worker: an upper bound on the rate the run records for it. Only
  /// controller steps write it, so the morsel the run times holds no atomic
  /// operation of the test's own (under ThreadSanitizer, an atomic's first
  /// operation costs tens of microseconds, which the run would time).
  double controller_unopt_rate = 0;

  static void Bytecode(void* state, uint64_t begin, uint64_t end,
                       const void*) {
    auto* self = static_cast<StraddlingPipeline*>(state);
    bool expected = false;
    if (!tl_in_controller_step &&
        self->holding.compare_exchange_strong(expected, true)) {
      AwaitOrFail(
          [self] { return self->handle.mode() != ExecMode::kBytecode; });
      return;
    }
    SpinRows(end - begin, kBytecodeNsPerRow);
  }
  static void Unopt(void* state, uint64_t begin, uint64_t end, const void*) {
    auto* self = static_cast<StraddlingPipeline*>(state);
    if (!tl_in_controller_step) {
      if (!self->resumed.exchange(true)) {
        AwaitOrFail(
            [self] { return self->handle.mode() == ExecMode::kOptimized; });
        return;
      }
      SpinRows(end - begin, kUnoptNsPerRow);
      return;
    }
    const int64_t t0 = MonotonicNanos();
    SpinRows(end - begin, kUnoptNsPerRow);
    const double seconds = static_cast<double>(MonotonicNanos() - t0) / 1e9;
    if (self->controller_unopt_rate == 0) {
      self->controller_unopt_rate = static_cast<double>(end - begin) / seconds;
    }
  }
  static void Opt(void* state, uint64_t begin, uint64_t end, const void*) {
    if (!tl_in_controller_step) {
      static_cast<StraddlingPipeline*>(state)->resumed.store(true);
    }
    SpinRows(end - begin, kOptNsPerRow);
  }
};

/// Steps the run like testutil::StepInTask, marking the stepping thread.
/// From the second step on it starts no step before the helper holds its
/// morsel, and, once the handle left bytecode, none before the helper
/// resumed: so the first decision is made while the helper holds, and the
/// next evaluation after the install sees the held morsel counted.
class StraddleStepTask : public Task {
 public:
  StraddleStepTask(PipelineRun* run, StraddlingPipeline* pipe)
      : run_(run), pipe_(pipe) {}
  std::future<void> GetFuture() { return done_.get_future(); }

  Status Run(int worker) override {
    if (stepped_) {
      AwaitOrFail([this] { return pipe_->holding.load(); });
      if (pipe_->handle.mode() != ExecMode::kBytecode) {
        AwaitOrFail([this] { return pipe_->resumed.load(); });
      }
    }
    stepped_ = true;
    tl_in_controller_step = true;
    const Status status = run_->Step(worker);
    tl_in_controller_step = false;
    if (status == Status::kDone) done_.set_value();
    return status;
  }

 private:
  PipelineRun* run_;
  StraddlingPipeline* pipe_;
  bool stepped_ = false;
  std::promise<void> done_;
};

TEST(PipelineRunTest, MorselAcrossTheSwitchStaysOutOfTheNewModesRate) {
  // Costs that pick unoptimized from bytecode and then optimized from
  // unoptimized: a free unoptimized compile with a large modeled speedup,
  // and a 50 ms optimized compile that only the second extrapolation, from
  // a rate 64x below the modeled one, justifies.
  CostModelParams params;
  params.unopt_base_seconds = 0;
  params.unopt_per_instruction_seconds = 0;
  params.opt_base_seconds = 0.05;
  params.opt_per_instruction_seconds = 0;
  params.unopt_speedup = 64;
  params.opt_speedup = 1000;

  TaskScheduler sched(2);  // the controller's worker and one helper
  StraddlingPipeline pipe;
  PipelineTask task;
  task.handle = &pipe.handle;
  task.state = &pipe;
  task.report = &pipe.report;
  task.domain = ScanDomain::Make({{0, 1000000}}, 1000000);
  task.compile = testutil::Hook([](ExecMode mode) -> WorkerFn {
    // Holds the helper's morsel a little longer.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return mode == ExecMode::kUnoptimized ? &StraddlingPipeline::Unopt
                                          : &StraddlingPipeline::Opt;
  });
  PipelineRun run(&sched, ExecutionStrategy::kAdaptive, params, task,
                  /*single_threaded=*/false, /*first_eval_delay_seconds=*/0);
  auto stepper = std::make_unique<StraddleStepTask>(&run, &pipe);
  std::future<void> done = stepper->GetFuture();
  sched.Submit(std::move(stepper));
  done.get();

  const std::vector<ModeSwitchRecord>& switches = pipe.report.mode_switches;
  ASSERT_EQ(switches.size(), 2u);
  EXPECT_EQ(switches[0].target, ExecMode::kUnoptimized);
  EXPECT_EQ(switches[1].target, ExecMode::kOptimized);
  // The second decision's r0 is the controller's one unoptimized morsel's
  // rate: the helper's held bytecode morsel stays out of it. Had it
  // entered, r0 would be about half that rate.
  const double controller_rate = pipe.controller_unopt_rate;
  EXPECT_LE(switches[1].r0, controller_rate);
  EXPECT_GE(switches[1].r0, 0.9 * controller_rate);
  EXPECT_LE(switches[1].r0, 1e9 / StraddlingPipeline::kUnoptNsPerRow);
  // The held morsel counts toward bytecode, the mode it started in, beside
  // the controller's first.
  ASSERT_FALSE(pipe.report.modes.empty());
  EXPECT_EQ(pipe.report.modes[0].mode, ExecMode::kBytecode);
  EXPECT_GE(pipe.report.modes[0].morsels, 2u);
}

TEST(PipelineRunDeathTest, StepOffTheSchedulerAborts) {
  // Only a task of the run's own scheduler steps a run: the test thread,
  // which is no worker, may not.
  EXPECT_DEATH(
      {
        TaskScheduler sched(1);
        SyntheticPipeline pipe;
        PipelineRun run(&sched, ExecutionStrategy::kBytecode, {},
                        pipe.MakeTask(1000), /*single_threaded=*/false,
                        /*first_eval_delay_seconds=*/0);
        run.Step(0);
      },
      "stepped only by a task of its own scheduler");
}

// --- cost-model micro-calibration -----------------------------------------

TEST(CostModelCalibrationTest, MeasuredSpeedupsAreSaneAndOrdered) {
  const CostModelParams& params = CalibratedCostModelParams();
  // Compiled code must beat the interpreter, optimized at least matches
  // unoptimized, and the clamps bound a mismeasured run.
  EXPECT_GE(params.unopt_speedup, 1.2);
  EXPECT_LE(params.unopt_speedup, 30.0);
  EXPECT_GE(params.opt_speedup, params.unopt_speedup);
  EXPECT_LE(params.opt_speedup, 50.0);
  // Compile-time coefficients are not calibrated: defaults stay.
  CostModelParams defaults;
  EXPECT_EQ(params.unopt_base_seconds, defaults.unopt_base_seconds);
  EXPECT_EQ(params.opt_per_instruction_seconds,
            defaults.opt_per_instruction_seconds);
  // Memoized: a second call returns the same measurement object.
  EXPECT_EQ(&params, &CalibratedCostModelParams());
}

}  // namespace
}  // namespace aqe
