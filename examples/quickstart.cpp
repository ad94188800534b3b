// Quickstart: build a tiny database, define a query with the plan builder,
// and execute it adaptively. Shows the three moving parts a user touches:
// Catalog/Table (storage), PlanBuilder/QueryProgram (plans), QueryEngine
// (execution).
#include <cstdio>

#include "engine/query_engine.h"
#include "obs/query_profile.h"
#include "plan/builder.h"
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
  //    A plan builder names the columns; it numbers the pipeline's slots
  //    and declares the aggregation set the sink fills.
  PlanBuilder plan(catalog, "quickstart");
  Pipe scan = plan.Scan("scan sales", "sales", {"product", "amount"});
  scan.Filter(Gt(scan["amount"], I64(50000)));
  AggRef totals = scan.Aggregate(
      scan["product"],
      Aggs(Agg{"sum", AggKind::kSum, scan["amount"], /*checked=*/true},
           Agg{"count", AggKind::kCount, nullptr, /*checked=*/false}));
  // Engine steps: read each group as a row {key, sum, count}, then sort.
  plan.Step(ReadGroups(totals.id, ExprList(totals.key(), totals["sum"],
                                           totals["count"])));
  plan.Step(StepSort{{{0, false, false}}});
  QueryProgram query = plan.Take();

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
