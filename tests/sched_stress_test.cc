// Randomized concurrency stress for the task scheduler: many small queries
// submitted from several client threads, with cost-model parameters that
// force adaptive mode switches mid-query, mixed strategies, and mixed
// single-threaded/parallel execution. Every result is checked against a
// plain-C++ reference. Run under TSan in CI (the scheduler, the sharded
// morsel queue and the compile-task handshake are the new concurrency
// surface).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/query_engine.h"
#include "plan/expr.h"
#include "plan/plan.h"
#include "runtime/sorter.h"
#include "storage/table.h"

namespace aqe {
namespace {

constexpr int64_t kRows = 120000;
constexpr int64_t kGroups = 40;

class SchedStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    Table* fact = catalog_->CreateTable("fact");
    fact->AddColumn("f_key", DataType::kI64);
    fact->AddColumn("f_value", DataType::kI64);
    for (int64_t i = 0; i < kRows; ++i) {
      fact->column(0).AppendInt((i * 13) % kGroups);
      fact->column(1).AppendInt(i % 997);
    }
    // Reference: SELECT f_key, sum(f_value), count(*) FROM fact
    // WHERE f_key <> 3 GROUP BY f_key ORDER BY f_key.
    std::vector<int64_t> sums(kGroups, 0), counts(kGroups, 0);
    for (int64_t i = 0; i < kRows; ++i) {
      int64_t key = (i * 13) % kGroups;
      if (key == 3) continue;
      sums[static_cast<size_t>(key)] += i % 997;
      counts[static_cast<size_t>(key)]++;
    }
    reference_ = new std::vector<std::vector<int64_t>>();
    for (int64_t g = 0; g < kGroups; ++g) {
      if (counts[static_cast<size_t>(g)] == 0) continue;
      reference_->push_back({g, sums[static_cast<size_t>(g)],
                             counts[static_cast<size_t>(g)]});
    }
  }
  static void TearDownTestSuite() {
    delete reference_;
    delete catalog_;
  }

  static QueryProgram BuildQuery() {
    QueryProgram q("stress_agg");
    int fact = q.DeclareBaseTable("fact");
    int agg = q.DeclareAggSet({AggKind::kSum, AggKind::kCount});
    PipelineSpec scan;
    scan.name = "scan fact";
    scan.source_table = fact;
    scan.scan_columns = {0, 1};
    scan.ops.push_back(OpFilter{Ne(Slot(0), I64(3))});
    SinkAgg sink;
    sink.agg = agg;
    sink.key = Slot(0);
    sink.items.push_back({AggKind::kSum, Slot(1), /*checked=*/true});
    sink.items.push_back({AggKind::kCount, nullptr, /*checked=*/false});
    scan.sink = std::move(sink);
    q.AddPipeline(std::move(scan));
    q.AddStep(ReadGroups(agg, ExprList(Slot(0), Slot(1), Slot(2))));
    q.AddStep(StepSort{{{0, false, false}}});
    return q;
  }

  /// A per-client option mix; adaptive runs force a mode switch via a
  /// free-compile cost model and an immediate first evaluation.
  static QueryRunOptions RandomOptions(std::mt19937* rng) {
    QueryRunOptions options;
    switch ((*rng)() % 4) {
      case 0:
        options.strategy = ExecutionStrategy::kBytecode;
        break;
      case 1:
        options.strategy = ExecutionStrategy::kUnoptimized;
        break;
      default: {  // half the queries: adaptive with forced switches
        options.strategy = ExecutionStrategy::kAdaptive;
        options.cost_model.unopt_base_seconds = 0;
        options.cost_model.unopt_per_instruction_seconds = 0;
        if ((*rng)() % 2 == 0) {  // sometimes force the second switch too
          options.cost_model.opt_base_seconds = 0;
          options.cost_model.opt_per_instruction_seconds = 0;
        } else {
          options.cost_model.opt_base_seconds = 1e9;
        }
        options.adaptive_first_eval_seconds = 0;
        break;
      }
    }
    options.single_threaded = (*rng)() % 4 == 0;
    return options;
  }

  static Catalog* catalog_;
  static std::vector<std::vector<int64_t>>* reference_;
};

Catalog* SchedStressTest::catalog_ = nullptr;
std::vector<std::vector<int64_t>>* SchedStressTest::reference_ = nullptr;

TEST_F(SchedStressTest, ConcurrentClientsRandomizedModeSwitches) {
  QueryEngine engine(catalog_, /*num_threads=*/3);
  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 8;
  std::atomic<uint64_t> total_switches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937 rng(static_cast<uint32_t>(1234 + c));
      for (int i = 0; i < kQueriesPerClient; ++i) {
        QueryProgram program = BuildQuery();
        QueryRunOptions options = RandomOptions(&rng);
        QueryRunResult result = engine.Run(program, options);
        EXPECT_EQ(result.rows, *reference_)
            << "client " << c << " query " << i << " strategy "
            << ExecutionStrategyName(options.strategy)
            << (options.single_threaded ? " single-threaded" : "");
        for (const PipelineReport& p : result.pipelines) {
          total_switches += p.compiles.size();
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  // The forced-compile cost model must have produced real mode switches
  // (kUnoptimized static runs also count one compile each).
  EXPECT_GT(total_switches.load(), 0u);
}

TEST_F(SchedStressTest, PipelinedSubmitBatches) {
  // One client keeps several futures in flight (the Submit API), so query
  // tasks overlap on the scheduler rather than running back to back.
  QueryEngine engine(catalog_, /*num_threads=*/2);
  std::mt19937 rng(99);
  for (int round = 0; round < 4; ++round) {
    std::vector<QueryProgram> programs;
    std::vector<QueryRunOptions> options;
    for (int i = 0; i < 6; ++i) {
      programs.push_back(BuildQuery());
      options.push_back(RandomOptions(&rng));
    }
    std::vector<std::future<QueryRunResult>> futures;
    for (int i = 0; i < 6; ++i) {
      futures.push_back(engine.Submit(programs[static_cast<size_t>(i)],
                                      options[static_cast<size_t>(i)]));
    }
    for (auto& future : futures) {
      EXPECT_EQ(future.get().rows, *reference_);
    }
  }
}

TEST_F(SchedStressTest, AdmissionQueueReleasesInOrder) {
  // Cap concurrency at 1: every query still completes, through the FIFO
  // admission queue.
  QueryEngine engine(catalog_, /*num_threads=*/2);
  engine.set_max_concurrent_queries(1);
  std::vector<QueryProgram> programs;
  for (int i = 0; i < 5; ++i) programs.push_back(BuildQuery());
  std::vector<std::future<QueryRunResult>> futures;
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  for (auto& program : programs) {
    futures.push_back(engine.Submit(program, options));
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().rows, *reference_);
  }
}

TEST_F(SchedStressTest, EmptyProgramReturnsEmptyResult) {
  QueryEngine engine(catalog_, /*num_threads=*/1);
  QueryProgram empty("empty");
  QueryRunResult result = engine.Run(empty);
  EXPECT_TRUE(result.rows.empty());
  EXPECT_TRUE(result.pipelines.empty());
}

TEST_F(SchedStressTest, RaisingAdmissionCapReleasesWaiters) {
  QueryEngine engine(catalog_, /*num_threads=*/2);
  engine.set_max_concurrent_queries(1);
  std::vector<QueryProgram> programs;
  for (int i = 0; i < 6; ++i) programs.push_back(BuildQuery());
  std::vector<std::future<QueryRunResult>> futures;
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;
  for (auto& program : programs) {
    futures.push_back(engine.Submit(program, options));
  }
  // Most queries are parked in the admission queue; raising the cap must
  // release them (they would otherwise drain one slot handoff at a time).
  engine.set_max_concurrent_queries(4);
  for (auto& future : futures) {
    EXPECT_EQ(future.get().rows, *reference_);
  }
}

TEST_F(SchedStressTest, DestroyEngineWithQueriesInFlightBreaksPromises) {
  std::vector<QueryProgram> programs;
  for (int i = 0; i < 6; ++i) programs.push_back(BuildQuery());
  std::vector<std::future<QueryRunResult>> futures;
  {
    QueryEngine engine(catalog_, /*num_threads=*/2);
    engine.set_max_concurrent_queries(2);
    QueryRunOptions options;
    options.strategy = ExecutionStrategy::kBytecode;
    for (auto& program : programs) {
      futures.push_back(engine.Submit(program, options));
    }
    // Engine destroyed here with most queries still queued.
  }
  int completed = 0, broken = 0;
  for (auto& future : futures) {
    try {
      QueryRunResult result = future.get();
      EXPECT_EQ(result.rows, *reference_);
      ++completed;
    } catch (const std::future_error&) {
      ++broken;
    }
  }
  // No future may hang; every one either completed correctly or reports a
  // broken promise.
  EXPECT_EQ(completed + broken, 6);
}

}  // namespace
}  // namespace aqe
