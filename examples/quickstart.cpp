// Quickstart: build a tiny database, define a query with the public plan
// API, and execute it adaptively. Shows the three moving parts a user
// touches: Catalog/Table (storage), QueryProgram (plans), QueryEngine
// (execution).
#include <cstdio>

#include "engine/query_engine.h"
#include "obs/query_profile.h"
#include "plan/expr.h"
#include "plan/plan.h"
#include "storage/table.h"

using namespace aqe;

int main() {
  // 1. A table: sales(product i64, amount i64-decimal).
  Catalog catalog;
  Table* sales = catalog.CreateTable("sales");
  sales->AddColumn("product", DataType::kI64);
  sales->AddColumn("amount", DataType::kI64);
  for (int64_t i = 0; i < 1000000; ++i) {
    sales->column(0).AppendInt(i % 5);
    sales->column(1).AppendInt((i % 997) * 100);  // decimal, scale 100
  }

  // 2. A query: SELECT product, sum(amount), count(*) FROM sales
  //             WHERE amount > 500.00 GROUP BY product ORDER BY product.
  QueryProgram query("quickstart");
  int table = query.DeclareBaseTable("sales");
  int agg = query.DeclareAggSet({AggKind::kSum, AggKind::kCount});
  PipelineSpec scan;
  scan.name = "scan sales";
  scan.source_table = table;
  scan.scan_columns = {0, 1};
  scan.ops.push_back(OpFilter{Gt(Slot(1), I64(50000))});
  SinkAgg sink;
  sink.agg = agg;
  sink.key = Slot(0);
  sink.items.push_back({AggKind::kSum, Slot(1), /*checked=*/true});
  sink.items.push_back({AggKind::kCount, nullptr, false});
  scan.sink = std::move(sink);
  query.AddPipeline(std::move(scan));
  // Engine steps: read each group as a row {key, sum, count}, then sort.
  query.AddStep(ReadGroups(agg, ExprList(Slot(0), Slot(1), Slot(2))));
  query.AddStep(StepSort{{{0, false, false}}});

  // 3. Execute adaptively: starts in the bytecode interpreter and promotes
  //    the pipeline to machine code only if that pays off.
  QueryEngine engine(&catalog, /*num_threads=*/4);
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kAdaptive;
  QueryRunResult result = engine.Run(query, options);

  std::printf("product | sum(amount) | count\n");
  for (const auto& row : result.rows) {
    std::printf("%7lld | %11.2f | %lld\n", (long long)row[0],
                row[1] / 100.0, (long long)row[2]);
  }
  // 4. EXPLAIN ANALYZE: time and tuples per execution mode, and a
  //    predicted-vs-realized line per mode switch.
  std::printf("\n%s", ExplainAnalyze(result).c_str());
  return 0;
}
