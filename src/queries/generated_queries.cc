#include "queries/generated_queries.h"

#include "common/status.h"

namespace aqe {

QueryProgram BuildGeneratedAggregateQuery(int num_aggregates,
                                          const Catalog& catalog) {
  AQE_CHECK(num_aggregates >= 1);
  QueryProgram q("generated_" + std::to_string(num_aggregates));
  int lineitem = q.DeclareBaseTable("lineitem");

  PipelineSpec scan;
  scan.name = "generated aggregates";
  scan.source_table = lineitem;
  const Table* t = catalog.GetTable("lineitem");
  // 0 qty, 1 price, 2 disc, 3 tax
  scan.scan_columns = {
      t->ColumnIndex("l_quantity"), t->ColumnIndex("l_extendedprice"),
      t->ColumnIndex("l_discount"), t->ColumnIndex("l_tax")};

  // Each aggregate k is a distinct expression mixing the four columns with
  // k-dependent constants so nothing folds away:
  //   sum((price + a*qty) * (disc + b) - tax * c)   [checked]
  std::vector<AggItem> items;
  for (int k = 0; k < num_aggregates; ++k) {
    int64_t a = k % 13 + 1;
    int64_t b = k % 7 + 1;
    int64_t c = k % 29 + 1;
    ExprPtr value = CheckedSub(
        CheckedMul(CheckedAdd(Slot(1), Mul(Slot(0), I64(a))),
                   Add(Slot(2), I64(b))),
        Mul(Slot(3), I64(c)));
    items.push_back({AggKind::kSum, std::move(value), true});
  }
  int agg = q.DeclareAggSet(
      std::vector<AggKind>(static_cast<size_t>(num_aggregates), AggKind::kSum));
  SinkAgg sink;
  sink.agg = agg;
  sink.key = I64(0);
  for (const AggItem& item : items) {
    sink.items.push_back({item.kind, CloneExpr(*item.value), item.checked});
  }
  scan.sink = std::move(sink);
  q.AddPipeline(std::move(scan));

  std::vector<ExprPtr> columns;
  for (int k = 1; k <= num_aggregates; ++k) columns.push_back(Slot(k));
  q.AddStep(ReadGroups(agg, std::move(columns)));
  return q;
}

}  // namespace aqe
