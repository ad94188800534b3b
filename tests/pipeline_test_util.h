#ifndef AQE_TESTS_PIPELINE_TEST_UTIL_H_
#define AQE_TESTS_PIPELINE_TEST_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "adaptive/controller.h"
#include "exec/function_handle.h"
#include "sched/scheduler.h"

namespace aqe::testutil {

/// A synthetic "worker function" whose interpreted variant is slow
/// (~10M tuples/s) and compiled variants are fast, with per-variant tuple
/// counters and a handle that starts interpreted.
struct SyntheticPipeline {
  FunctionHandle handle{&SlowInterp, this};
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
    task.state = this;
    task.total_tuples = tuples;
    task.function_instructions = 1000;
    task.compile = [](ExecMode mode) -> WorkerFn {
      return mode == ExecMode::kUnoptimized ? &FastUnopt : &FastOpt;
    };
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

/// Steps a PipelineRun to completion on the calling thread, which becomes
/// the pipeline's (external) controller, parking between drain checks.
inline PipelineRunStats RunPipeline(TaskScheduler* sched,
                                    ExecutionStrategy strategy,
                                    const PipelineTask& task,
                                    const CostModelParams& params = {},
                                    bool single_threaded = false,
                                    double first_eval_delay_seconds = 1e-3) {
  PipelineRun run(sched, strategy, params, task, single_threaded,
                  first_eval_delay_seconds);
  while (run.Step() == Task::Status::kYield) {
    if (run.draining()) run.WaitDrainBriefly();
  }
  return run.TakeStats();
}

}  // namespace aqe::testutil

#endif  // AQE_TESTS_PIPELINE_TEST_UTIL_H_
