#ifndef AQE_TESTS_PIPELINE_TEST_UTIL_H_
#define AQE_TESTS_PIPELINE_TEST_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <utility>

#include "adaptive/controller.h"
#include "exec/function_handle.h"
#include "exec/morsel.h"
#include "sched/scheduler.h"

namespace aqe::testutil {

/// A PipelineTask::compile hook whose job returns `compile(mode)`: the
/// test's own machine code, which needs no keep-alive. The job calls
/// `compile` on the worker that claims it.
inline std::function<CompileJob(ExecMode)> Hook(
    std::function<WorkerFn(ExecMode)> compile) {
  return [compile = std::move(compile)](ExecMode mode) {
    return CompileJob(
        [compile, mode] { return CompiledCode{compile(mode), nullptr}; });
  };
}

/// A synthetic "worker function" whose interpreted variant is slow
/// (~10M tuples/s) and compiled variants are fast, with per-variant tuple
/// counters, a handle that starts interpreted and the report its run fills.
struct SyntheticPipeline {
  FunctionHandle handle{&SlowInterp, this};
  PipelineReport report;
  std::atomic<uint64_t> interpreted_tuples{0};
  std::atomic<uint64_t> unopt_tuples{0};
  std::atomic<uint64_t> opt_tuples{0};

  static void SlowInterp(void* state, uint64_t begin, uint64_t end,
                         const void*) {
    static_cast<SyntheticPipeline*>(state)->interpreted_tuples += end - begin;
    std::this_thread::sleep_for(std::chrono::nanoseconds((end - begin) * 100));
  }
  static void FastUnopt(void* state, uint64_t begin, uint64_t end,
                        const void*) {
    static_cast<SyntheticPipeline*>(state)->unopt_tuples += end - begin;
    std::this_thread::sleep_for(std::chrono::nanoseconds((end - begin) * 25));
  }
  static void FastOpt(void* state, uint64_t begin, uint64_t end,
                      const void*) {
    static_cast<SyntheticPipeline*>(state)->opt_tuples += end - begin;
    std::this_thread::sleep_for(std::chrono::nanoseconds((end - begin) * 18));
  }

  uint64_t total() const {
    return interpreted_tuples.load() + unopt_tuples.load() + opt_tuples.load();
  }

  /// A 1000-instruction pipeline over `tuples` rows whose compile hook
  /// returns the matching fast variant.
  PipelineTask MakeTask(uint64_t tuples) {
    PipelineTask task;
    task.handle = &handle;
    task.report = &report;
    task.state = this;
    task.domain = ScanDomain::Make({{0, tuples}}, tuples);
    task.function_instructions = 1000;
    task.compile = Hook([](ExecMode mode) -> WorkerFn {
      return mode == ExecMode::kUnoptimized ? &FastUnopt : &FastOpt;
    });
    return task;
  }
};

/// Cost-model parameters that force exactly one switch to unoptimized.
inline CostModelParams ForcedUnoptParams() {
  CostModelParams params;
  params.unopt_base_seconds = 0;
  params.unopt_per_instruction_seconds = 0;
  params.opt_base_seconds = 1e9;  // optimized can never win
  return params;
}

/// Steps `run` the way the engine's query task does: a one-shot scheduler
/// task calls Step(worker) once per slice until the run is done, calling
/// `on_yield` after every step that yields. The future is ready once the
/// run has filled its report; `run` must outlive it.
inline std::future<void> StepInTask(TaskScheduler* sched, PipelineRun* run,
                                    std::function<void()> on_yield = nullptr) {
  class StepTask : public Task {
   public:
    StepTask(PipelineRun* run, std::function<void()> on_yield)
        : run_(run), on_yield_(std::move(on_yield)) {}
    std::future<void> GetFuture() { return done_.get_future(); }

    Status Run(int worker) override {
      if (run_->Step(worker) == Status::kYield) {
        if (on_yield_) on_yield_();
        return Status::kYield;
      }
      done_.set_value();
      return Status::kDone;
    }

   private:
    PipelineRun* run_;
    std::function<void()> on_yield_;
    std::promise<void> done_;
  };
  auto task = std::make_unique<StepTask>(run, std::move(on_yield));
  std::future<void> done = task->GetFuture();
  sched->Submit(std::move(task));
  return done;
}

/// Runs a pipeline to completion on `sched`, stepped by a scheduler task,
/// and returns the report the run filled.
inline PipelineReport RunPipeline(TaskScheduler* sched,
                                  ExecutionStrategy strategy,
                                  const PipelineTask& task,
                                  const CostModelParams& params = {},
                                  bool single_threaded = false,
                                  double first_eval_delay_seconds = 1e-3) {
  PipelineRun run(sched, strategy, params, task, single_threaded,
                  first_eval_delay_seconds);
  StepInTask(sched, &run).get();
  return *task.report;
}

}  // namespace aqe::testutil

#endif  // AQE_TESTS_PIPELINE_TEST_UTIL_H_
