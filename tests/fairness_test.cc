// Fairness and resumption tests for the multi-tenant engine:
//  - differential: the resumable PipelineRun (checkpointing at morsel
//    boundaries, Task::kYield between slices) must produce identical
//    results and mode-switch traces as a single-threaded run (the whole
//    pipeline inside one Step on the stepping worker);
//  - starvation stress: a saturated engine running long scans must still
//    admit and complete later-submitted short high-class queries with
//    bounded latency, before the long work finishes;
//  - queue_wait_seconds observability, and admission giving a freed slot
//    to the class the scheduler has served least.
// Runs under the ThreadSanitizer CI job (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "adaptive/controller.h"
#include "common/timer.h"
#include "engine/query_engine.h"
#include "exec/function_handle.h"
#include "obs/tracer.h"
#include "plan/expr.h"
#include "plan/plan.h"
#include "runtime/agg_hash_table.h"
#include "sched/scheduler.h"
#include "storage/table.h"
#include "tests/pipeline_test_util.h"

namespace aqe {
namespace {

// --- differential: resumable controller vs single-threaded run -------------

using testutil::ForcedUnoptParams;
using testutil::SyntheticPipeline;

/// The (pipeline, mode) sequence of a tracer's compile events — the
/// mode-switch trace the differential compares.
std::vector<std::pair<int, ExecMode>> CompileTrace(const EngineTracer& tracer) {
  std::vector<std::pair<int, ExecMode>> switches;
  for (const auto& lane : tracer.Snapshot().lanes) {
    for (const TraceEvent& e : lane.events) {
      if (e.kind == TraceEventKind::kCompile) {
        switches.emplace_back(e.pipeline_id, static_cast<ExecMode>(e.detail));
      }
    }
  }
  return switches;
}

TEST(ResumablePipelineTest,
     StepYieldsBetweenMorselsAndMatchesSingleThreaded) {
  constexpr uint64_t kTuples = 2000000;
  constexpr int kPipelineId = 3;
  const CostModelParams params = ForcedUnoptParams();
  TaskScheduler sched(2);
  // Steps one run to completion in a scheduler task, counting the yields
  // between steps.
  auto run_to_end = [&](bool single_threaded, SyntheticPipeline* pipe,
                        EngineTracer* tracer, uint64_t* yields) {
    PipelineTask task = pipe->MakeTask(kTuples);
    task.pipeline_id = kPipelineId;
    task.obs.tracer = tracer;
    PipelineRun run(&sched, ExecutionStrategy::kAdaptive, params, task,
                    single_threaded, /*first_eval_delay_seconds=*/0);
    testutil::StepInTask(&sched, &run, [yields] { ++*yields; }).get();
    EXPECT_TRUE(run.done());
    return pipe->report;
  };

  // Single-threaded baseline: one Step runs the whole pipeline.
  EngineTracer single_tracer;
  SyntheticPipeline single_pipe;
  uint64_t single_yields = 0;
  const PipelineReport single_report =
      run_to_end(/*single_threaded=*/true, &single_pipe, &single_tracer,
                 &single_yields);
  EXPECT_EQ(single_yields, 0u);

  // Resumable controller: every Step is one checkpoint.
  EngineTracer resumable_tracer;
  SyntheticPipeline resumable_pipe;
  uint64_t yields = 0;
  const PipelineReport resumable_report =
      run_to_end(/*single_threaded=*/false, &resumable_pipe,
                 &resumable_tracer, &yields);

  // The controller suspended at every morsel boundary (its shard is a
  // sizeable fraction of the domain at the smallest morsel size).
  EXPECT_GT(yields, 10u);

  // Identical mode-switch traces and final mode...
  const std::vector<std::pair<int, ExecMode>> expected = {
      {kPipelineId, ExecMode::kUnoptimized}};
  EXPECT_EQ(CompileTrace(single_tracer), expected);
  EXPECT_EQ(CompileTrace(resumable_tracer), CompileTrace(single_tracer));
  ASSERT_EQ(resumable_report.compiles.size(), 1u);
  ASSERT_EQ(single_report.compiles.size(), 1u);
  EXPECT_EQ(resumable_report.compiles[0].first, ExecMode::kUnoptimized);
  EXPECT_EQ(resumable_report.final_mode, single_report.final_mode);
  // ...and identical results: every tuple processed exactly once.
  EXPECT_EQ(resumable_pipe.total(), kTuples);
  EXPECT_EQ(single_pipe.total(), kTuples);
}

TEST(ResumablePipelineTest, ModeSwitchStateSurvivesSuspension) {
  // Force the compile decision, then stop stepping for a while mid-run: the
  // queued compile claim and the per-mode counters must survive the
  // suspension and the switch must still happen when stepping resumes.
  constexpr uint64_t kTuples = 1500000;
  TaskScheduler sched(2);  // the controller's worker and exactly one helper
  SyntheticPipeline pipe;
  PipelineTask task = pipe.MakeTask(kTuples);
  task.compile = testutil::Hook([](ExecMode mode) -> WorkerFn {
    EXPECT_EQ(mode, ExecMode::kUnoptimized);
    return &SyntheticPipeline::FastUnopt;
  });
  PipelineRun run(&sched, ExecutionStrategy::kAdaptive, ForcedUnoptParams(),
                  task, /*single_threaded=*/false,
                  /*first_eval_delay_seconds=*/0);
  // Step a handful of morsels, then suspend the controller entirely inside
  // one slice, and resume to completion: the switch recorded exactly once,
  // all tuples seen.
  int steps = 0;
  testutil::StepInTask(&sched, &run, [&steps] {
    if (++steps == 8) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }).get();
  ASSERT_EQ(pipe.report.compiles.size(), 1u);
  EXPECT_EQ(pipe.report.final_mode, ExecMode::kUnoptimized);
  EXPECT_EQ(pipe.total(), kTuples);
}

// --- engine-level fairness --------------------------------------------------

/// SELECT key, sum(value) FROM <table> WHERE value <> -1 GROUP BY key:
/// one scan pipeline whose cost scales with the table, tiny result.
QueryProgram BuildScanAggQuery(const char* table, const char* name) {
  QueryProgram q(name);
  int t = q.DeclareBaseTable(table);
  int agg = q.DeclareAggSet({AggKind::kSum});
  (void)q.DeclareOutput(2);

  PipelineSpec scan;
  scan.name = "scan";
  scan.source_table = t;
  scan.scan_columns = {0, 1};  // key, value
  scan.ops.push_back(OpFilter{Ne(Slot(1), I64(-1))});
  SinkAgg sink;
  sink.agg = agg;
  sink.key = Slot(0);
  sink.items.push_back({AggKind::kSum, Slot(1), /*checked=*/true});
  scan.sink = std::move(sink);
  q.AddPipeline(std::move(scan));

  q.AddStep(ReadGroups(agg, ExprList(Slot(0), Slot(1))));
  q.AddStep(StepSort{{{0, false, false}}});
  return q;
}

class FairnessTest : public ::testing::Test {
 protected:
  static constexpr int64_t kBigRows = 1200000;
  static constexpr int64_t kTinyRows = 2000;
  static constexpr int kKeys = 7;

  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    for (const auto& [name, rows] :
         {std::pair<const char*, int64_t>{"big", kBigRows},
          std::pair<const char*, int64_t>{"tiny", kTinyRows}}) {
      Table* t = catalog_->CreateTable(name);
      t->AddColumn("key", DataType::kI64);
      t->AddColumn("value", DataType::kI64);
      for (int64_t i = 0; i < rows; ++i) {
        t->column(0).AppendInt(i % kKeys);
        t->column(1).AppendInt(i % 1000);
      }
    }
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  static std::vector<std::vector<int64_t>> Reference(const char* table) {
    const Table* t = catalog_->GetTable(table);
    std::vector<int64_t> sums(kKeys, 0);
    for (uint64_t r = 0; r < t->num_rows(); ++r) {
      sums[static_cast<size_t>(t->column(0).GetI64(r))] +=
          t->column(1).GetI64(r);
    }
    std::vector<std::vector<int64_t>> rows;
    for (int k = 0; k < kKeys; ++k) rows.push_back({k, sums[k]});
    return rows;
  }

  static Catalog* catalog_;
};

Catalog* FairnessTest::catalog_ = nullptr;

TEST_F(FairnessTest, ShortHighClassQueriesOvertakeSaturatingScans) {
  // kBytecode keeps the long scans slow and compile-free: pure
  // interpretation, so the only way a short query gets through is genuine
  // slice-level preemption of the long pipelines.
  QueryEngine engine(catalog_, /*num_threads=*/2);
  engine.set_class_weight(3, 8);

  QueryRunOptions long_options;
  long_options.strategy = ExecutionStrategy::kBytecode;
  QueryRunOptions short_options;
  short_options.strategy = ExecutionStrategy::kBytecode;
  short_options.query_class = 3;

  QueryProgram long_query = BuildScanAggQuery("big", "long_scan");
  QueryProgram short_query = BuildScanAggQuery("tiny", "short_scan");
  const auto expect_big = Reference("big");
  const auto expect_tiny = Reference("tiny");

  // Isolated short-query latency (warm: second run is cache-hot).
  double isolated_ms = 0;
  for (int i = 0; i < 3; ++i) {
    QueryRunResult r = engine.Run(short_query, short_options);
    EXPECT_EQ(r.rows, expect_tiny);
    isolated_ms = r.total_seconds * 1e3;  // last (warmest) run
  }

  // Saturate: three long scans, ~600x the total short workload below.
  std::vector<std::future<QueryRunResult>> longs;
  for (int i = 0; i < 3; ++i) {
    longs.push_back(engine.Submit(long_query, long_options));
  }

  // A closed-loop stream of short queries through the saturated engine.
  constexpr int kShorts = 12;
  std::vector<double> short_ms;
  int completed_while_longs_running = 0;
  for (int i = 0; i < kShorts; ++i) {
    QueryRunResult r = engine.Run(short_query, short_options);
    EXPECT_EQ(r.rows, expect_tiny);
    EXPECT_GE(r.queue_wait_seconds, 0.0);
    EXPECT_LE(r.queue_wait_seconds, r.total_seconds + 1e-9);
    short_ms.push_back(r.total_seconds * 1e3);
    bool all_longs_done = true;
    for (auto& f : longs) {
      if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        all_longs_done = false;
        break;
      }
    }
    if (!all_longs_done) ++completed_while_longs_running;
  }

  // The acceptance criterion: later-submitted short queries complete while
  // the earlier long pipelines are still running, on the same workers.
  EXPECT_GE(completed_while_longs_running, kShorts - 2)
      << "short queries did not overtake the long scans";

  // Bounded short-query p99: within a generous multiple of its isolated
  // latency (sanitizers and CI noise included), far below the long scans.
  std::sort(short_ms.begin(), short_ms.end());
  const double p99 = short_ms[short_ms.size() - 1];
  const double bound = std::max(250.0, 40.0 * std::max(isolated_ms, 1.0));
  EXPECT_LT(p99, bound) << "short-class p99 " << p99 << " ms vs isolated "
                        << isolated_ms << " ms";

  for (auto& f : longs) {
    QueryRunResult r = f.get();
    EXPECT_EQ(r.rows, expect_big);
  }
}

TEST_F(FairnessTest, QueueWaitIsObservableUnderAdmissionBacklog) {
  QueryEngine engine(catalog_, /*num_threads=*/1);
  engine.set_max_concurrent_queries(1);
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  QueryProgram query = BuildScanAggQuery("big", "long_scan");

  std::vector<std::future<QueryRunResult>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(engine.Submit(query, options));
  double previous_wait = -1;
  for (auto& f : futures) {
    QueryRunResult r = f.get();
    EXPECT_LE(r.queue_wait_seconds, r.total_seconds + 1e-9);
    // Later-admitted queries waited at least as long (FIFO within class).
    EXPECT_GE(r.queue_wait_seconds, previous_wait);
    previous_wait = r.queue_wait_seconds;
  }
  // The last query sat behind two full scans: its wait must be visible.
  EXPECT_GT(previous_wait, 0.0);
}

TEST_F(FairnessTest, LeastServedClassGetsTheFreedSlot) {
  QueryEngine engine(catalog_, /*num_threads=*/1);
  engine.set_max_concurrent_queries(1);
  QueryRunOptions class0;
  class0.strategy = ExecutionStrategy::kBytecode;
  QueryRunOptions class3 = class0;
  class3.query_class = 3;
  QueryProgram big = BuildScanAggQuery("big", "big_scan");
  QueryProgram tiny = BuildScanAggQuery("tiny", "tiny_scan");

  // A class-0 scan holds the only slot and runs up class 0's virtual
  // time. A class-0 waiter arrives first, then a class-3 one: class 3 has
  // been served least, so it gets the slot the blocker frees.
  std::future<QueryRunResult> blocker = engine.Submit(big, class0);
  std::future<QueryRunResult> waiter0 = engine.Submit(big, class0);
  std::future<QueryRunResult> waiter3 = engine.Submit(tiny, class3);

  QueryRunResult r3 = waiter3.get();
  EXPECT_NE(waiter0.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "the earlier class-0 waiter was admitted ahead of class 3";
  EXPECT_EQ(r3.rows, Reference("tiny"));
  EXPECT_EQ(waiter0.get().rows, Reference("big"));
  EXPECT_EQ(blocker.get().rows, Reference("big"));
}

}  // namespace
}  // namespace aqe
