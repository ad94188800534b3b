#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "adaptive/controller.h"
#include "adaptive/cost_model.h"
#include "common/timer.h"
#include "exec/function_handle.h"
#include "exec/morsel.h"
#include "sched/scheduler.h"
#include "sched/stealing_deque.h"
#include "sched/task.h"
#include "tests/pipeline_test_util.h"

namespace aqe {
namespace {

// --- StealingDeque (deterministic, single-threaded) -----------------------

class TagTask : public Task {
 public:
  explicit TagTask(int tag) : tag_(tag) {}
  Status Run(int) override { return Status::kDone; }
  int tag() const { return tag_; }

 private:
  int tag_;
};

int TagOf(Task* task) { return static_cast<TagTask*>(task)->tag(); }

TEST(StealingDequeTest, LocalEndIsLifo) {
  StealingDeque deque;
  TagTask a(1), b(2), c(3);
  deque.PushLocal(&a);
  deque.PushLocal(&b);
  deque.PushLocal(&c);
  EXPECT_EQ(TagOf(deque.PopLocal()), 3);
  EXPECT_EQ(TagOf(deque.PopLocal()), 2);
  EXPECT_EQ(TagOf(deque.PopLocal()), 1);
  EXPECT_EQ(deque.PopLocal(), nullptr);
}

TEST(StealingDequeTest, StealEndIsFifo) {
  StealingDeque deque;
  TagTask a(1), b(2), c(3);
  deque.PushLocal(&a);
  deque.PushLocal(&b);
  deque.PushLocal(&c);
  // Thieves take the oldest task first.
  EXPECT_EQ(TagOf(deque.Steal()), 1);
  EXPECT_EQ(TagOf(deque.Steal()), 2);
  EXPECT_EQ(TagOf(deque.Steal()), 3);
  EXPECT_EQ(deque.Steal(), nullptr);
}

TEST(StealingDequeTest, YieldedTasksGoToStealEnd) {
  StealingDeque deque;
  TagTask a(1), b(2), yielded(99);
  deque.PushLocal(&a);
  deque.PushLocal(&b);
  deque.PushSteal(&yielded);
  // The owner reaches the yielded task last...
  EXPECT_EQ(TagOf(deque.PopLocal()), 2);
  EXPECT_EQ(TagOf(deque.PopLocal()), 1);
  EXPECT_EQ(TagOf(deque.PopLocal()), 99);
  // ...while a thief would have taken it first.
  deque.PushLocal(&a);
  deque.PushSteal(&yielded);
  EXPECT_EQ(TagOf(deque.Steal()), 99);
  EXPECT_EQ(TagOf(deque.Steal()), 1);
}

// --- TaskScheduler --------------------------------------------------------

TEST(TaskSchedulerTest, RunsAllSubmittedTasks) {
  std::atomic<int> count{0};
  std::promise<void> all_done;
  TaskScheduler sched(3);
  for (int i = 0; i < 100; ++i) {
    sched.Submit(MakeClosureTask([&](int worker) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, 3);
      EXPECT_EQ(TaskScheduler::CurrentWorker(), worker);
      EXPECT_EQ(TaskScheduler::CurrentScheduler(), &sched);
      if (count.fetch_add(1) + 1 == 100) all_done.set_value();
    }));
  }
  all_done.get_future().wait();
  EXPECT_EQ(count.load(), 100);
  EXPECT_GE(sched.executed_slices(), 100u);
}

TEST(TaskSchedulerTest, ExternalThreadIsNotAWorker) {
  EXPECT_EQ(TaskScheduler::CurrentWorker(), -1);
  EXPECT_EQ(TaskScheduler::CurrentScheduler(), nullptr);
}

class YieldNTimesTask : public Task {
 public:
  YieldNTimesTask(int n, std::atomic<int>* slices, std::promise<void>* done)
      : remaining_(n), slices_(slices), done_(done) {}
  Status Run(int) override {
    slices_->fetch_add(1);
    if (--remaining_ > 0) return Status::kYield;
    done_->set_value();
    return Status::kDone;
  }

 private:
  int remaining_;
  std::atomic<int>* slices_;
  std::promise<void>* done_;
};

TEST(TaskSchedulerTest, YieldedTaskResumesUntilDone) {
  std::atomic<int> slices{0};
  std::promise<void> done;
  TaskScheduler sched(1);
  sched.Submit(std::make_unique<YieldNTimesTask>(5, &slices, &done));
  done.get_future().wait();
  EXPECT_EQ(slices.load(), 5);
}

/// Counts its own slices and yields until told to stop.
class CountedYieldTask : public Task {
 public:
  CountedYieldTask(std::atomic<uint64_t>* count, std::atomic<bool>* stop,
                   std::promise<void>* done)
      : count_(count), stop_(stop), done_(done) {}
  Status Run(int) override {
    if (stop_->load()) {
      done_->set_value();
      return Status::kDone;
    }
    count_->fetch_add(1);
    return Status::kYield;
  }

 private:
  std::atomic<uint64_t>* count_;
  std::atomic<bool>* stop_;
  std::promise<void>* done_;
};

TEST(TaskSchedulerTest, WeightedClassesShareSlicesProportionally) {
  // Two endless yielders in different classes on one worker: the weight-4
  // class must receive ~4x the slices of the weight-1 class.
  std::atomic<uint64_t> slices1{0}, slices2{0};
  std::atomic<bool> stop{false};
  std::promise<void> done1, done2;
  TaskScheduler sched(1);
  sched.set_class_weight(1, 1);
  sched.set_class_weight(2, 4);
  auto t1 = std::make_unique<CountedYieldTask>(&slices1, &stop, &done1);
  t1->set_scheduling_class(1);
  auto t2 = std::make_unique<CountedYieldTask>(&slices2, &stop, &done2);
  t2->set_scheduling_class(2);
  sched.Submit(std::move(t1));
  sched.Submit(std::move(t2));
  while (slices1.load() + slices2.load() < 5000) std::this_thread::yield();
  stop.store(true);
  done1.get_future().wait();
  done2.get_future().wait();
  const double ratio = static_cast<double>(slices2.load()) /
                       static_cast<double>(std::max<uint64_t>(1, slices1.load()));
  EXPECT_GT(ratio, 2.0) << slices1.load() << " vs " << slices2.load();
  EXPECT_LT(ratio, 8.0) << slices1.load() << " vs " << slices2.load();
  // Per-class accounting covers every counted slice (the final kDone slices
  // may still be mid-bookkeeping when the promise resolves, so >=).
  EXPECT_GE(sched.class_slices(1) + sched.class_slices(2),
            slices1.load() + slices2.load());
}

TEST(TaskSchedulerTest, IdleClassDoesNotBankCredit) {
  // Class 1 runs alone for a while; when class 2 wakes up, its clock is
  // clamped forward — it must not lock class 1 out while "catching up" on
  // credit it banked while idle.
  std::atomic<uint64_t> slices1{0}, slices2{0};
  std::atomic<bool> stop{false};
  std::promise<void> done1, done2;
  TaskScheduler sched(1);
  auto t1 = std::make_unique<CountedYieldTask>(&slices1, &stop, &done1);
  t1->set_scheduling_class(1);
  sched.Submit(std::move(t1));
  while (slices1.load() < 3000) std::this_thread::yield();

  auto t2 = std::make_unique<CountedYieldTask>(&slices2, &stop, &done2);
  t2->set_scheduling_class(2);
  sched.Submit(std::move(t2));
  const uint64_t base1 = slices1.load();
  while (slices2.load() < 500) std::this_thread::yield();
  // Class 1 kept running during class 2's 500 slices (equal weights → the
  // two alternate; a banked-credit bug would give class 2 thousands of
  // slices first).
  EXPECT_GT(slices1.load(), base1 + 100);
  stop.store(true);
  done1.get_future().wait();
  done2.get_future().wait();
}

TEST(TaskSchedulerTest, StealOrderIsSubmissionOrder) {
  // Gate one worker with a blocking task (either worker may pick it up —
  // steals included), queue tagged tasks on the gated worker's deque, and
  // watch the other worker steal them: oldest first (FIFO steal).
  // Captured locals are declared before the scheduler so they outlive its
  // workers.
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  std::promise<int> gated_on;
  std::mutex order_mutex;
  std::vector<int> order;
  std::promise<void> all_stolen;
  TaskScheduler sched(2);
  sched.SubmitTo(0, MakeClosureTask([&](int worker) {
    gated_on.set_value(worker);
    gate_future.wait();
  }));
  const int gated_worker = gated_on.get_future().get();  // now pinned
  const int free_worker = 1 - gated_worker;
  for (int tag = 1; tag <= 3; ++tag) {
    sched.SubmitTo(gated_worker, MakeClosureTask([&, tag](int worker) {
      EXPECT_EQ(worker, free_worker);  // only the other worker is free
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
      if (order.size() == 3) all_stolen.set_value();
    }));
  }
  all_stolen.get_future().wait();
  gate.set_value();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TaskSchedulerTest, ShutdownWithTasksPendingDestroysThemUnrun) {
  std::atomic<int> ran{0};
  std::atomic<int> destroyed{0};

  class CountedTask : public Task {
   public:
    CountedTask(std::atomic<int>* ran, std::atomic<int>* destroyed)
        : ran_(ran), destroyed_(destroyed) {}
    ~CountedTask() override { destroyed_->fetch_add(1); }
    Status Run(int) override {
      ran_->fetch_add(1);
      return Status::kDone;
    }

   private:
    std::atomic<int>* ran_;
    std::atomic<int>* destroyed_;
  };

  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  std::promise<void> gated0, gated1;
  {
    TaskScheduler sched(2);
    sched.SubmitTo(0, MakeClosureTask([&](int) {
      gated0.set_value();
      gate_future.wait();
    }));
    sched.SubmitTo(1, MakeClosureTask([&](int) {
      gated1.set_value();
      gate_future.wait();
    }));
    gated0.get_future().wait();
    gated1.get_future().wait();
    // Both workers are pinned; these can never start before shutdown.
    for (int i = 0; i < 50; ++i) {
      sched.SubmitTo(i % 2, std::make_unique<CountedTask>(&ran, &destroyed));
    }
    std::thread release([&gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      gate.set_value();
    });
    // The destructor must not hang and must destroy all pending tasks.
    release.detach();
  }
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(destroyed.load(), 50);
}

// --- ShardedMorselQueue ---------------------------------------------------
//
// Over the one-range domain [0, n) of an unpruned scan, so every claimed
// batch is one range.

std::shared_ptr<const ScanDomain> Dense(uint64_t n) {
  return ScanDomain::Make({{0, n}}, n);
}

/// Claims one batch for `shard` and returns its single range in `m`.
bool NextRange(ShardedMorselQueue* queue, int shard, MorselRange* m) {
  MorselBatch batch;
  if (!queue->Next(shard, &batch)) return false;
  EXPECT_EQ(batch.count, 1);
  *m = batch.ranges[0];
  return true;
}

TEST(ShardedMorselQueueTest, CoversDomainExactlyOnceAcrossShards) {
  ShardedMorselQueue queue(Dense(100000), 4, 512);
  std::vector<bool> seen(100000, false);
  MorselRange m;
  int shard = 0;
  while (NextRange(&queue, shard, &m)) {
    shard = (shard + 1) % 4;
    for (uint64_t i = m.begin; i < m.end; ++i) {
      ASSERT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
  for (bool s : seen) ASSERT_TRUE(s);
  EXPECT_EQ(queue.remaining(), 0u);
}

TEST(ShardedMorselQueueTest, PreferredShardFirstThenSteal) {
  ShardedMorselQueue queue(Dense(4000), 4, 100, 100, 1000000);
  // Shard 2 owns [2000, 3000): the first claim must come from there.
  MorselRange m;
  ASSERT_TRUE(NextRange(&queue, 2, &m));
  EXPECT_EQ(m.begin, 2000u);
  // Drain shard 2 completely; the next claim for shard 2 must steal from
  // another (richest) shard instead of failing.
  while (queue.shard_remaining(2) > 0) ASSERT_TRUE(NextRange(&queue, 2, &m));
  ASSERT_TRUE(NextRange(&queue, 2, &m));
  EXPECT_TRUE(m.begin < 2000 || m.begin >= 3000);
  EXPECT_EQ(queue.remaining(), 4000u - 100 * (1000 / 100 + 1));
}

TEST(ShardedMorselQueueTest, ConcurrentClaimsNoOverlap) {
  ShardedMorselQueue queue(Dense(1 << 18), 3, 256);
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&queue, &total, t] {
      MorselRange m;
      while (NextRange(&queue, t, &m)) total += m.end - m.begin;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total.load(), uint64_t{1} << 18);
}

TEST(ShardedMorselQueueTest, SingleShardEqualsFlatQueue) {
  ShardedMorselQueue sharded(Dense(50000), 1, 1024);
  MorselQueue flat(Dense(50000), 0, 50000, 1024);
  MorselBatch a;
  MorselRange b;
  while (flat.Next(&a)) {
    ASSERT_TRUE(NextRange(&sharded, 0, &b));
    EXPECT_EQ(a.ranges[0].begin, b.begin);
    EXPECT_EQ(a.ranges[0].end, b.end);
  }
  EXPECT_FALSE(NextRange(&sharded, 0, &b));
}

// --- Differential: multi-worker run vs single-threaded baseline ----------
//
// The mode-switch handshake (decide -> compile -> install -> rate reset)
// must behave identically whether the pipeline runs on the scheduler's
// workers or strictly on one thread: same mode-switch sequence, same final
// mode, every tuple processed exactly once. Cost-model parameters force
// deterministic decisions.

using testutil::ForcedUnoptParams;
using testutil::RunPipeline;
using testutil::SyntheticPipeline;

struct DifferentialOutcome {
  std::vector<ExecMode> switches;
  ExecMode final_mode;
  uint64_t interpreted, unopt, opt;
};

DifferentialOutcome RunSynthetic(TaskScheduler* sched, bool single_threaded,
                                 ExecutionStrategy strategy,
                                 const CostModelParams& params,
                                 uint64_t total_tuples) {
  SyntheticPipeline pipe;
  PipelineReport report =
      RunPipeline(sched, strategy, pipe.MakeTask(total_tuples),
                  params, single_threaded, /*first_eval_delay_seconds=*/0);
  DifferentialOutcome outcome;
  for (const auto& [mode, seconds] : report.compiles) {
    outcome.switches.push_back(mode);
  }
  outcome.final_mode = report.final_mode;
  outcome.interpreted = pipe.interpreted_tuples.load();
  outcome.unopt = pipe.unopt_tuples.load();
  outcome.opt = pipe.opt_tuples.load();
  return outcome;
}

class SchedulerDifferentialTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kTuples = 2000000;

  void Compare(ExecutionStrategy strategy, const CostModelParams& params,
               const std::vector<ExecMode>& expected_switches) {
    TaskScheduler sched(2);
    DifferentialOutcome single =
        RunSynthetic(&sched, /*single_threaded=*/true, strategy, params,
                     kTuples);
    DifferentialOutcome tasks =
        RunSynthetic(&sched, /*single_threaded=*/false, strategy, params,
                     kTuples);

    EXPECT_EQ(single.switches, expected_switches);
    EXPECT_EQ(tasks.switches, expected_switches);
    EXPECT_EQ(single.final_mode, tasks.final_mode);
    EXPECT_EQ(single.interpreted + single.unopt + single.opt, kTuples);
    EXPECT_EQ(tasks.interpreted + tasks.unopt + tasks.opt, kTuples);
  }
};

TEST_F(SchedulerDifferentialTest, ForcedUnoptimizedSwitch) {
  Compare(ExecutionStrategy::kAdaptive, ForcedUnoptParams(),
          {ExecMode::kUnoptimized});
}

TEST_F(SchedulerDifferentialTest, ForcedStraightToOptimized) {
  CostModelParams params;
  params.unopt_base_seconds = 1e9;  // unoptimized can never win
  params.opt_base_seconds = 0;
  params.opt_per_instruction_seconds = 0;
  Compare(ExecutionStrategy::kAdaptive, params, {ExecMode::kOptimized});
}

TEST_F(SchedulerDifferentialTest, BytecodeNeverSwitches) {
  CostModelParams params;
  Compare(ExecutionStrategy::kBytecode, params, {});
}

TEST_F(SchedulerDifferentialTest, StaticOptimizedCompilesUpFront) {
  CostModelParams params;
  TaskScheduler sched(2);
  DifferentialOutcome single =
      RunSynthetic(&sched, /*single_threaded=*/true,
                   ExecutionStrategy::kOptimized, params, uint64_t{200000});
  DifferentialOutcome tasks =
      RunSynthetic(&sched, /*single_threaded=*/false,
                   ExecutionStrategy::kOptimized, params, uint64_t{200000});
  EXPECT_EQ(single.switches, (std::vector<ExecMode>{ExecMode::kOptimized}));
  EXPECT_EQ(tasks.switches, (std::vector<ExecMode>{ExecMode::kOptimized}));
  EXPECT_EQ(single.interpreted, 0u);
  EXPECT_EQ(tasks.interpreted, 0u);
  EXPECT_EQ(tasks.opt, 200000u);
}

TEST_F(SchedulerDifferentialTest, SingleThreadedTaskPathSwitchesInline) {
  TaskScheduler sched(2);
  SyntheticPipeline pipe;
  PipelineTask task = pipe.MakeTask(kTuples);
  task.compile = testutil::Hook([](ExecMode mode) -> WorkerFn {
    EXPECT_EQ(mode, ExecMode::kUnoptimized);
    return &SyntheticPipeline::FastUnopt;
  });
  PipelineReport report =
      RunPipeline(&sched, ExecutionStrategy::kAdaptive, task,
                  ForcedUnoptParams(), /*single_threaded=*/true,
                  /*first_eval_delay_seconds=*/0);
  EXPECT_EQ(report.final_mode, ExecMode::kUnoptimized);
  EXPECT_EQ(pipe.interpreted_tuples.load() + pipe.unopt_tuples.load(),
            kTuples);
  // Strictly single-threaded: the helpers never saw this pipeline, so
  // everything ran on the calling thread (no way to assert thread identity
  // directly here, but opt tuples must be zero and a switch must exist).
  EXPECT_EQ(pipe.opt_tuples.load(), 0u);
  ASSERT_EQ(report.compiles.size(), 1u);
}

/// Per-row call counter over a whole table, for pruned-domain runs.
struct RowCounter {
  explicit RowCounter(uint64_t rows) : calls(rows) {}
  FunctionHandle handle{&Worker<false>, this};
  std::vector<std::atomic<uint8_t>> calls;
  std::atomic<uint64_t> compiled_rows{0};
  PipelineReport report;

  /// Interpreted rows burn ~1 us and compiled ones ~50 ns, so the forced
  /// switch lands long before the helpers could drain the domain.
  template <bool kCompiled>
  static void Worker(void* state, uint64_t begin, uint64_t end, const void*) {
    auto* self = static_cast<RowCounter*>(state);
    if (kCompiled) self->compiled_rows += end - begin;
    for (uint64_t r = begin; r < end; ++r) self->calls[r]++;
    const uint64_t ns_per_row = kCompiled ? 50 : 1000;
    const int64_t until =
        MonotonicNanos() + static_cast<int64_t>((end - begin) * ns_per_row);
    while (MonotonicNanos() < until) {
    }
  }
};

TEST_F(SchedulerDifferentialTest, PrunedDomainRunsExactlySelectedRows) {
  // A fragmented domain: 3-row islands every 40 rows (many per claim
  // batch), then a few wide ranges, so morsels both batch fragments and
  // span single ranges.
  constexpr uint64_t kRows = 400000;
  std::vector<MorselRange> ranges;
  for (uint64_t r = 0; r < 200000; r += 40) ranges.push_back({r + 7, r + 10});
  ranges.push_back({210000, 260000});
  ranges.push_back({300000, 300001});
  ranges.push_back({320000, 390000});
  std::shared_ptr<const ScanDomain> domain =
      ScanDomain::Make(std::move(ranges), kRows);
  std::vector<bool> selected(kRows, false);
  for (const MorselRange& r : domain->ranges) {
    for (uint64_t i = r.begin; i < r.end; ++i) selected[i] = true;
  }

  TaskScheduler sched(2);
  for (bool single_threaded : {true, false}) {
    SCOPED_TRACE(single_threaded ? "single-threaded" : "multi-worker");
    RowCounter counter(kRows);
    PipelineTask task;
    task.handle = &counter.handle;
    task.state = &counter;
    task.report = &counter.report;
    task.domain = domain;
    task.function_instructions = 1000;
    task.compile = testutil::Hook([](ExecMode mode) -> WorkerFn {
      EXPECT_EQ(mode, ExecMode::kUnoptimized);
      return &RowCounter::Worker<true>;
    });
    PipelineReport report =
        RunPipeline(&sched, ExecutionStrategy::kAdaptive, task,
                    ForcedUnoptParams(), single_threaded,
                    /*first_eval_delay_seconds=*/0);

    // The switch happened mid-run: both variants saw rows.
    ASSERT_EQ(report.compiles.size(), 1u);
    EXPECT_EQ(report.final_mode, ExecMode::kUnoptimized);
    EXPECT_GT(counter.compiled_rows.load(), 0u);
    EXPECT_LT(counter.compiled_rows.load(), domain->selected());
    // Every selected row exactly once, no pruned row ever.
    uint64_t wrong = 0;
    for (uint64_t r = 0; r < kRows; ++r) {
      wrong += counter.calls[r].load() != (selected[r] ? 1 : 0);
    }
    EXPECT_EQ(wrong, 0u);
  }
}

}  // namespace
}  // namespace aqe
