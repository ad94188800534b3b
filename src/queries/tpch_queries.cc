#include "queries/tpch_queries.h"

#include <memory>
#include <utility>

#include "common/fixed_point.h"
#include "common/status.h"
#include "strings/like_lowering.h"
#include "tpch/tpch_schema.h"

namespace aqe {
namespace {

using tpch::DateToDays;

/// Shorthand: column index in a base table.
int Col(const Catalog& cat, const char* table, const char* column) {
  return cat.GetTable(table)->ColumnIndex(column);
}

/// Dictionary code of a string constant (CHECK-fails if the value does not
/// occur — the workload generator registers all spec values).
int64_t DictCode(const Catalog& cat, const char* table, const char* column,
                 const char* value) {
  const Table* t = cat.GetTable(table);
  int32_t code = t->dictionary(t->ColumnIndex(column)).Find(value);
  AQE_CHECK_MSG(code >= 0, value);
  return code;
}

/// The slot kinds of an aggregation set, from its sink's items.
std::vector<AggKind> KindsOf(const std::vector<AggItem>& items) {
  std::vector<AggKind> kinds;
  for (const AggItem& item : items) kinds.push_back(item.kind);
  return kinds;
}

/// Digit `(key / unit) % radix` of a packed, non-negative group key (slot 0
/// of a group read), in i64 division.
ExprPtr KeyDigit(int64_t unit, int64_t radix) {
  return Sub(Div(Slot(0), I64(unit)),
             Mul(Div(Slot(0), I64(unit * radix)), I64(radix)));
}

// =============================================================================
// Q1: pricing summary report. 1 pipeline over lineitem; group by
// (returnflag, linestatus); the heavy checked decimal arithmetic query.
// =============================================================================
QueryProgram BuildQ1(const Catalog& cat) {
  QueryProgram q("q1");
  int lineitem = q.DeclareBaseTable("lineitem");

  // Scan slots.
  enum { kQty, kPrice, kDisc, kTax, kRetFlag, kLineStatus, kShipDate };
  PipelineSpec scan;
  scan.name = "scan lineitem";
  scan.source_table = lineitem;
  scan.scan_columns = {
      Col(cat, "lineitem", "l_quantity"),
      Col(cat, "lineitem", "l_extendedprice"),
      Col(cat, "lineitem", "l_discount"),
      Col(cat, "lineitem", "l_tax"),
      Col(cat, "lineitem", "l_returnflag"),
      Col(cat, "lineitem", "l_linestatus"),
      Col(cat, "lineitem", "l_shipdate"),
  };
  scan.ops.push_back(
      OpFilter{Le(Slot(kShipDate), I64(DateToDays(1998, 9, 2)))});
  // disc_price = price * (1.00 - disc); charge = disc_price * (1.00 + tax).
  // Fixed-point: factors are at scale 100, products at scale 1e4 / 1e6.
  scan.ops.push_back(OpCompute{
      CheckedMul(Slot(kPrice), Sub(I64(100), Slot(kDisc)))});  // slot 7
  scan.ops.push_back(OpCompute{
      CheckedMul(Slot(7), Add(I64(100), Slot(kTax)))});        // slot 8

  SinkAgg agg_sink;
  std::vector<AggItem> items;
  items.push_back({AggKind::kSum, Slot(kQty), true});
  items.push_back({AggKind::kSum, Slot(kPrice), true});
  items.push_back({AggKind::kSum, Slot(7), true});
  items.push_back({AggKind::kSum, Slot(8), true});
  items.push_back({AggKind::kSum, Slot(kDisc), true});
  items.push_back({AggKind::kCount, nullptr, false});
  int agg = q.DeclareAggSet(KindsOf(items));
  agg_sink.agg = agg;
  agg_sink.key = Add(Mul(Slot(kRetFlag), I64(256)), Slot(kLineStatus));
  agg_sink.items = std::move(items);
  scan.sink = std::move(agg_sink);
  q.AddPipeline(std::move(scan));

  // avg_qty, avg_price, avg_disc as doubles; slot 6 is the count.
  const auto avg = [](int sum) {
    return FDiv(FDiv(CastF64(Slot(sum)), F64(kDecimalScale)),
                CastF64(Slot(6)));
  };
  q.AddStep(ReadGroups(agg, ExprList(Div(Slot(0), I64(256)), KeyDigit(1, 256),
                                     Slot(1), Slot(2), Slot(3), Slot(4),
                                     avg(1), avg(2), avg(5), Slot(6))));
  q.AddStep(StepSort{{{0, false, false}, {1, false, false}}});
  return q;
}

// =============================================================================
// Q6: forecasting revenue change. 1 pipeline, highly selective filter.
// =============================================================================
QueryProgram BuildQ6Impl(const Catalog& cat, const TpchQ6Literals& lit) {
  QueryProgram q("q6");
  int lineitem = q.DeclareBaseTable("lineitem");
  enum { kShipDate, kDisc, kQty, kPrice };
  PipelineSpec scan;
  scan.name = "scan lineitem";
  scan.source_table = lineitem;
  scan.scan_columns = {
      Col(cat, "lineitem", "l_shipdate"),
      Col(cat, "lineitem", "l_discount"),
      Col(cat, "lineitem", "l_quantity"),
      Col(cat, "lineitem", "l_extendedprice"),
  };
  scan.ops.push_back(OpFilter{And(
      And(Ge(Slot(kShipDate), I64(lit.ship_date_lo)),
          Lt(Slot(kShipDate), I64(lit.ship_date_hi))),
      And(And(Ge(Slot(kDisc), I64(lit.discount_lo)),
              Le(Slot(kDisc), I64(lit.discount_hi))),
          Lt(Slot(kQty), I64(lit.quantity_limit))))});

  std::vector<AggItem> items;
  items.push_back(
      {AggKind::kSum, CheckedMul(Slot(kPrice), Slot(kDisc)), true});
  int agg = q.DeclareAggSet(KindsOf(items));
  SinkAgg sink;
  sink.agg = agg;
  sink.key = I64(0);
  sink.items = std::move(items);
  scan.sink = std::move(sink);
  q.AddPipeline(std::move(scan));

  q.AddStep(ReadGroups(agg, ExprList(Slot(1)), nullptr, /*scalar=*/true));
  return q;
}

// =============================================================================
// Q3: shipping priority. customer -> orders -> lineitem, top-10.
// =============================================================================
QueryProgram BuildQ3(const Catalog& cat) {
  QueryProgram q("q3");
  int customer = q.DeclareBaseTable("customer");
  int orders = q.DeclareBaseTable("orders");
  int lineitem = q.DeclareBaseTable("lineitem");
  int cust_ht = q.DeclareJoinTable(0);   // semi: qualifying customers
  int order_ht = q.DeclareJoinTable(2);  // payload: orderdate, shippriority

  const int64_t cutoff = DateToDays(1995, 3, 15);
  const int64_t building = DictCode(cat, "customer", "c_mktsegment", "BUILDING");

  {
    PipelineSpec build;
    build.name = "build customer";
    build.source_table = customer;
    build.scan_columns = {Col(cat, "customer", "c_custkey"),
                          Col(cat, "customer", "c_mktsegment")};
    build.ops.push_back(OpFilter{Eq(Slot(1), I64(building))});
    SinkBuild sink;
    sink.ht = cust_ht;
    sink.key = Slot(0);
    build.sink = std::move(sink);
    q.AddPipeline(std::move(build));
  }
  {
    PipelineSpec build;
    build.name = "build orders";
    build.source_table = orders;
    build.scan_columns = {Col(cat, "orders", "o_orderkey"),
                          Col(cat, "orders", "o_custkey"),
                          Col(cat, "orders", "o_orderdate"),
                          Col(cat, "orders", "o_shippriority")};
    build.ops.push_back(OpFilter{Lt(Slot(2), I64(cutoff))});
    OpProbe probe;
    probe.ht = cust_ht;
    probe.key = Slot(1);
    probe.kind = JoinKind::kSemi;
    build.ops.push_back(std::move(probe));
    SinkBuild sink;
    sink.ht = order_ht;
    sink.key = Slot(0);
    sink.payload.push_back(Slot(2));
    sink.payload.push_back(Slot(3));
    build.sink = std::move(sink);
    q.AddPipeline(std::move(build));
  }
  std::vector<AggItem> items;
  items.push_back({AggKind::kSum, nullptr, true});  // revenue, expr below
  items.push_back({AggKind::kMin, nullptr, false}); // orderdate carrier
  items.push_back({AggKind::kMin, nullptr, false}); // shippriority carrier
  items[0].value = CheckedMul(Slot(2), Sub(I64(100), Slot(3)));
  items[1].value = Slot(4);
  items[2].value = Slot(5);
  int agg = q.DeclareAggSet(KindsOf(items));
  {
    PipelineSpec probe;
    probe.name = "scan lineitem";
    probe.source_table = lineitem;
    probe.scan_columns = {Col(cat, "lineitem", "l_orderkey"),
                          Col(cat, "lineitem", "l_shipdate"),
                          Col(cat, "lineitem", "l_extendedprice"),
                          Col(cat, "lineitem", "l_discount")};
    probe.ops.push_back(OpFilter{Gt(Slot(1), I64(cutoff))});
    OpProbe op;
    op.ht = order_ht;
    op.key = Slot(0);
    op.payload_slots = 2;  // orderdate -> slot 4, shippriority -> slot 5
    probe.ops.push_back(std::move(op));
    SinkAgg sink;
    sink.agg = agg;
    sink.key = Slot(0);  // group by orderkey (unique per group)
    sink.items = std::move(items);
    probe.sink = std::move(sink);
    q.AddPipeline(std::move(probe));
  }
  q.AddStep(ReadGroups(agg, ExprList(Slot(0), Slot(1), Slot(2), Slot(3))));
  // ORDER BY revenue DESC, o_orderdate; LIMIT 10.
  q.AddStep(StepTopK{{{1, true, false}, {2, false, false}}, 10});
  return q;
}

// =============================================================================
// Q4: order priority checking. The EXISTS is evaluated from the small side:
// build the ~1/26 of orders in the 3-month window (payload: priority), probe
// them from the lineitems with l_commitdate < l_receiptdate, and group the
// matches by orderkey so each qualifying order counts once; the final step
// counts orders per priority.
// =============================================================================
QueryProgram BuildQ4(const Catalog& cat) {
  QueryProgram q("q4");
  int orders = q.DeclareBaseTable("orders");
  int lineitem = q.DeclareBaseTable("lineitem");
  int order_ht = q.DeclareJoinTable(1);  // payload: o_orderpriority

  {
    PipelineSpec build;
    build.name = "build orders";
    build.source_table = orders;
    build.scan_columns = {Col(cat, "orders", "o_orderkey"),
                          Col(cat, "orders", "o_orderdate"),
                          Col(cat, "orders", "o_orderpriority")};
    build.ops.push_back(
        OpFilter{And(Ge(Slot(1), I64(DateToDays(1993, 7, 1))),
                     Lt(Slot(1), I64(DateToDays(1993, 10, 1))))});
    SinkBuild sink;
    sink.ht = order_ht;
    sink.key = Slot(0);
    sink.payload.push_back(Slot(2));
    build.sink = std::move(sink);
    q.AddPipeline(std::move(build));
  }
  // One group per qualifying order; its lineitems all carry its priority.
  std::vector<AggItem> items;
  items.push_back({AggKind::kMax, Slot(3), false});
  int agg = q.DeclareAggSet(KindsOf(items));
  {
    PipelineSpec probe;
    probe.name = "scan lineitem";
    probe.source_table = lineitem;
    probe.scan_columns = {Col(cat, "lineitem", "l_orderkey"),
                          Col(cat, "lineitem", "l_commitdate"),
                          Col(cat, "lineitem", "l_receiptdate")};
    probe.ops.push_back(OpFilter{Lt(Slot(1), Slot(2))});
    OpProbe op;
    op.ht = order_ht;
    op.key = Slot(0);
    op.payload_slots = 1;  // o_orderpriority -> slot 3
    probe.ops.push_back(std::move(op));
    SinkAgg sink;
    sink.agg = agg;
    sink.key = Slot(0);
    sink.items = std::move(items);
    probe.sink = std::move(sink);
    q.AddPipeline(std::move(probe));
  }
  // Orders per priority, ORDER BY o_orderpriority (dictionary codes sort
  // like the strings).
  q.AddStep(StepCountBy{agg, 1});
  return q;
}

// =============================================================================
// Q5: local supplier volume. 6 pipelines (region, nation, customer, orders,
// supplier builds + lineitem probe).
// =============================================================================
QueryProgram BuildQ5(const Catalog& cat) {
  QueryProgram q("q5");
  int region = q.DeclareBaseTable("region");
  int nation = q.DeclareBaseTable("nation");
  int customer = q.DeclareBaseTable("customer");
  int orders = q.DeclareBaseTable("orders");
  int supplier = q.DeclareBaseTable("supplier");
  int lineitem = q.DeclareBaseTable("lineitem");

  int region_ht = q.DeclareJoinTable(0);
  int nation_ht = q.DeclareJoinTable(0);
  int cust_ht = q.DeclareJoinTable(1);    // payload: c_nationkey
  int order_ht = q.DeclareJoinTable(1);   // payload: c_nationkey
  int supp_ht = q.DeclareJoinTable(1);    // payload: s_nationkey

  const int64_t asia = DictCode(cat, "region", "r_name", "ASIA");

  {
    PipelineSpec p;
    p.name = "build region";
    p.source_table = region;
    p.scan_columns = {Col(cat, "region", "r_regionkey"),
                      Col(cat, "region", "r_name")};
    p.ops.push_back(OpFilter{Eq(Slot(1), I64(asia))});
    SinkBuild sink;
    sink.ht = region_ht;
    sink.key = Slot(0);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  {
    PipelineSpec p;
    p.name = "build nation";
    p.source_table = nation;
    p.scan_columns = {Col(cat, "nation", "n_nationkey"),
                      Col(cat, "nation", "n_regionkey")};
    OpProbe probe;
    probe.ht = region_ht;
    probe.key = Slot(1);
    probe.kind = JoinKind::kSemi;
    p.ops.push_back(std::move(probe));
    SinkBuild sink;
    sink.ht = nation_ht;
    sink.key = Slot(0);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  {
    PipelineSpec p;
    p.name = "build customer";
    p.source_table = customer;
    p.scan_columns = {Col(cat, "customer", "c_custkey"),
                      Col(cat, "customer", "c_nationkey")};
    OpProbe probe;
    probe.ht = nation_ht;
    probe.key = Slot(1);
    probe.kind = JoinKind::kSemi;
    p.ops.push_back(std::move(probe));
    SinkBuild sink;
    sink.ht = cust_ht;
    sink.key = Slot(0);
    sink.payload.push_back(Slot(1));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  {
    PipelineSpec p;
    p.name = "build orders";
    p.source_table = orders;
    p.scan_columns = {Col(cat, "orders", "o_orderkey"),
                      Col(cat, "orders", "o_custkey"),
                      Col(cat, "orders", "o_orderdate")};
    p.ops.push_back(OpFilter{And(Ge(Slot(2), I64(DateToDays(1994, 1, 1))),
                                 Lt(Slot(2), I64(DateToDays(1995, 1, 1))))});
    OpProbe probe;
    probe.ht = cust_ht;
    probe.key = Slot(1);
    probe.payload_slots = 1;  // c_nationkey -> slot 3
    p.ops.push_back(std::move(probe));
    SinkBuild sink;
    sink.ht = order_ht;
    sink.key = Slot(0);
    sink.payload.push_back(Slot(3));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  {
    PipelineSpec p;
    p.name = "build supplier";
    p.source_table = supplier;
    p.scan_columns = {Col(cat, "supplier", "s_suppkey"),
                      Col(cat, "supplier", "s_nationkey")};
    SinkBuild sink;
    sink.ht = supp_ht;
    sink.key = Slot(0);
    sink.payload.push_back(Slot(1));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  std::vector<AggItem> items;
  items.push_back(
      {AggKind::kSum, CheckedMul(Slot(2), Sub(I64(100), Slot(3))), true});
  int agg = q.DeclareAggSet(KindsOf(items));
  {
    PipelineSpec p;
    p.name = "scan lineitem";
    p.source_table = lineitem;
    p.scan_columns = {Col(cat, "lineitem", "l_orderkey"),
                      Col(cat, "lineitem", "l_suppkey"),
                      Col(cat, "lineitem", "l_extendedprice"),
                      Col(cat, "lineitem", "l_discount")};
    OpProbe probe_orders;
    probe_orders.ht = order_ht;
    probe_orders.key = Slot(0);
    probe_orders.payload_slots = 1;  // c_nationkey -> slot 4
    p.ops.push_back(std::move(probe_orders));
    OpProbe probe_supp;
    probe_supp.ht = supp_ht;
    probe_supp.key = Slot(1);
    probe_supp.payload_slots = 1;  // s_nationkey -> slot 5
    p.ops.push_back(std::move(probe_supp));
    p.ops.push_back(OpFilter{Eq(Slot(4), Slot(5))});
    SinkAgg sink;
    sink.agg = agg;
    sink.key = Slot(5);  // group by nation
    sink.items = std::move(items);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  q.AddStep(ReadGroups(agg, ExprList(Slot(0), Slot(1))));
  q.AddStep(StepSort{{{1, true, false}}});
  return q;
}

// =============================================================================
// Q11: important stock identification. The Fig 14 trace query: two large
// partsupp scans dominate.
// =============================================================================
QueryProgram BuildQ11(const Catalog& cat) {
  QueryProgram q("q11");
  int nation = q.DeclareBaseTable("nation");
  int supplier = q.DeclareBaseTable("supplier");
  int partsupp = q.DeclareBaseTable("partsupp");
  int nation_ht = q.DeclareJoinTable(0);
  int supp_ht = q.DeclareJoinTable(0);

  const int64_t germany = DictCode(cat, "nation", "n_name", "GERMANY");

  {
    PipelineSpec p;
    p.name = "build nation";
    p.source_table = nation;
    p.scan_columns = {Col(cat, "nation", "n_nationkey"),
                      Col(cat, "nation", "n_name")};
    p.ops.push_back(OpFilter{Eq(Slot(1), I64(germany))});
    SinkBuild sink;
    sink.ht = nation_ht;
    sink.key = Slot(0);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  {
    PipelineSpec p;
    p.name = "build supplier";
    p.source_table = supplier;
    p.scan_columns = {Col(cat, "supplier", "s_suppkey"),
                      Col(cat, "supplier", "s_nationkey")};
    OpProbe probe;
    probe.ht = nation_ht;
    probe.key = Slot(1);
    probe.kind = JoinKind::kSemi;
    p.ops.push_back(std::move(probe));
    SinkBuild sink;
    sink.ht = supp_ht;
    sink.key = Slot(0);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  // Pipeline "scan partsupp 1": per-part value sums.
  std::vector<AggItem> part_items;
  part_items.push_back(
      {AggKind::kSum, CheckedMul(Slot(3), Mul(Slot(2), I64(100))), true});
  int part_agg = q.DeclareAggSet(KindsOf(part_items));
  {
    PipelineSpec p;
    p.name = "scan partsupp 1";
    p.source_table = partsupp;
    p.scan_columns = {Col(cat, "partsupp", "ps_partkey"),
                      Col(cat, "partsupp", "ps_suppkey"),
                      Col(cat, "partsupp", "ps_availqty"),
                      Col(cat, "partsupp", "ps_supplycost")};
    OpProbe probe;
    probe.ht = supp_ht;
    probe.key = Slot(1);
    probe.kind = JoinKind::kSemi;
    p.ops.push_back(std::move(probe));
    SinkAgg sink;
    sink.agg = part_agg;
    sink.key = Slot(0);
    sink.items = std::move(part_items);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  // Pipeline "scan partsupp 2": total value.
  std::vector<AggItem> total_items;
  total_items.push_back(
      {AggKind::kSum, CheckedMul(Slot(3), Mul(Slot(2), I64(100))), true});
  int total_agg = q.DeclareAggSet(KindsOf(total_items));
  {
    PipelineSpec p;
    p.name = "scan partsupp 2";
    p.source_table = partsupp;
    p.scan_columns = {Col(cat, "partsupp", "ps_partkey"),
                      Col(cat, "partsupp", "ps_suppkey"),
                      Col(cat, "partsupp", "ps_availqty"),
                      Col(cat, "partsupp", "ps_supplycost")};
    OpProbe probe;
    probe.ht = supp_ht;
    probe.key = Slot(1);
    probe.kind = JoinKind::kSemi;
    p.ops.push_back(std::move(probe));
    SinkAgg sink;
    sink.agg = total_agg;
    sink.key = I64(0);
    sink.items = std::move(total_items);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  // HAVING value > total * 0.0001 (the spec's fraction/SF; we use the
  // SF-1 fraction), over the slots [partkey, value, total].
  StepReadGroups having = ReadGroups(part_agg, ExprList(Slot(0), Slot(1)),
                                     Gt(Mul(Slot(1), I64(10000)), Slot(2)));
  having.scalar_agg = total_agg;
  q.AddStep(std::move(having));
  q.AddStep(StepSort{{{1, true, false}}});
  return q;
}

// =============================================================================
// Q12: shipping modes and order priority. About 1% of lineitems pass the
// filter, so they are the small side: pre-aggregate them by orderkey into
// MAIL and SHIP line counts, turn the groups into a join table in a step
// (as Q18 does), and probe it from orders into one sum per shipmode and
// priority class.
// =============================================================================
QueryProgram BuildQ12(const Catalog& cat) {
  QueryProgram q("q12");
  int lineitem = q.DeclareBaseTable("lineitem");
  int orders = q.DeclareBaseTable("orders");
  int line_ht = q.DeclareJoinTable(2);  // payload: MAIL lines, SHIP lines

  const int64_t mail = DictCode(cat, "lineitem", "l_shipmode", "MAIL");
  const int64_t ship = DictCode(cat, "lineitem", "l_shipmode", "SHIP");
  const int64_t urgent =
      DictCode(cat, "orders", "o_orderpriority", "1-URGENT");
  const int64_t high = DictCode(cat, "orders", "o_orderpriority", "2-HIGH");

  // Per order: its qualifying lines shipped by MAIL and by SHIP.
  std::vector<AggItem> line_items;
  line_items.push_back({AggKind::kSum, Eq(Slot(1), I64(mail)), false});
  line_items.push_back({AggKind::kSum, Eq(Slot(1), I64(ship)), false});
  int line_agg = q.DeclareAggSet(KindsOf(line_items));
  {
    PipelineSpec p;
    p.name = "agg lineitem";
    p.source_table = lineitem;
    p.scan_columns = {Col(cat, "lineitem", "l_orderkey"),
                      Col(cat, "lineitem", "l_shipmode"),
                      Col(cat, "lineitem", "l_commitdate"),
                      Col(cat, "lineitem", "l_receiptdate"),
                      Col(cat, "lineitem", "l_shipdate")};
    p.ops.push_back(OpFilter{And(
        Or(Eq(Slot(1), I64(mail)), Eq(Slot(1), I64(ship))),
        And(And(Lt(Slot(2), Slot(3)), Lt(Slot(4), Slot(2))),
            And(Ge(Slot(3), I64(DateToDays(1994, 1, 1))),
                Lt(Slot(3), I64(DateToDays(1995, 1, 1))))))});
    SinkAgg sink;
    sink.agg = line_agg;
    sink.key = Slot(0);
    sink.items = std::move(line_items);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  q.AddStep(StepGroupsToJoinTable{line_agg, line_ht, nullptr});
  // high_line_count counts the lines of orders with priority 1-URGENT or
  // 2-HIGH, low_line_count the others: per mode, all lines minus high.
  // Sums: MAIL high, MAIL all, SHIP high, SHIP all.
  std::vector<AggItem> items;
  items.push_back({AggKind::kSum, Mul(Slot(2), Slot(4)), false});
  items.push_back({AggKind::kSum, Slot(2), false});
  items.push_back({AggKind::kSum, Mul(Slot(3), Slot(4)), false});
  items.push_back({AggKind::kSum, Slot(3), false});
  int agg = q.DeclareAggSet(KindsOf(items));
  {
    PipelineSpec p;
    p.name = "scan orders";
    p.source_table = orders;
    p.scan_columns = {Col(cat, "orders", "o_orderkey"),
                      Col(cat, "orders", "o_orderpriority")};
    OpProbe probe;
    probe.ht = line_ht;
    probe.key = Slot(0);
    probe.payload_slots = 2;  // MAIL lines -> slot 2, SHIP lines -> slot 3
    p.ops.push_back(std::move(probe));
    p.ops.push_back(OpCompute{BoolToI64(Or(
        Eq(Slot(1), I64(urgent)), Eq(Slot(1), I64(high))))});  // slot 4
    SinkAgg sink;
    sink.agg = agg;
    sink.key = I64(0);
    sink.items = std::move(items);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  // GROUP BY l_shipmode: a mode has a row when any line qualified. The
  // slots are [0, MAIL high, MAIL all, SHIP high, SHIP all].
  StepReadGroups modes;
  modes.agg = agg;
  for (const auto& [mode, high] : {std::pair(mail, 1), std::pair(ship, 3)}) {
    modes.rows.push_back(
        {Gt(Slot(high + 1), I64(0)),
         ExprList(I64(mode), Slot(high), Sub(Slot(high + 1), Slot(high)))});
  }
  q.AddStep(std::move(modes));
  q.AddStep(StepSort{{{0, false, false}}});
  return q;
}

// =============================================================================
// Q14: promotion effect. part -> lineitem with a LIKE-prefix predicate on
// p_type, lowered by the string predicate subsystem (on the sorted
// dictionary this is a code-range compare; pattern variants differ only in
// the range literals and patch-share q14's cached bytecode).
// =============================================================================
QueryProgram BuildQ14Impl(const Catalog& cat, const std::string& pattern) {
  QueryProgram q("q14");
  int part = q.DeclareBaseTable("part");
  int lineitem = q.DeclareBaseTable("lineitem");
  int part_ht = q.DeclareJoinTable(1);  // payload: is_promo

  const Table* part_table = cat.GetTable("part");
  LoweredLike promo = LowerLikePredicate(
      &q, *part_table, part_table->ColumnIndex("p_type"), /*code_slot=*/1,
      pattern);

  {
    PipelineSpec p;
    p.name = "build part";
    p.source_table = part;
    p.scan_columns = {Col(cat, "part", "p_partkey"),
                      Col(cat, "part", "p_type")};
    p.ops.push_back(OpCompute{std::move(promo.expr)});  // slot 2
    SinkBuild sink;
    sink.ht = part_ht;
    sink.key = Slot(0);
    sink.payload.push_back(Slot(2));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  std::vector<AggItem> items;
  // revenue = price * (100 - disc); promo_revenue = is_promo * revenue.
  items.push_back({AggKind::kSum,
                   Mul(Slot(4), CheckedMul(Slot(2), Sub(I64(100), Slot(3)))),
                   true});
  items.push_back(
      {AggKind::kSum, CheckedMul(Slot(2), Sub(I64(100), Slot(3))), true});
  int agg = q.DeclareAggSet(KindsOf(items));
  {
    PipelineSpec p;
    p.name = "scan lineitem";
    p.source_table = lineitem;
    p.scan_columns = {Col(cat, "lineitem", "l_partkey"),
                      Col(cat, "lineitem", "l_shipdate"),
                      Col(cat, "lineitem", "l_extendedprice"),
                      Col(cat, "lineitem", "l_discount")};
    p.ops.push_back(OpFilter{And(Ge(Slot(1), I64(DateToDays(1995, 9, 1))),
                                 Lt(Slot(1), I64(DateToDays(1995, 10, 1))))});
    OpProbe probe;
    probe.ht = part_ht;
    probe.key = Slot(0);
    probe.payload_slots = 1;  // is_promo -> slot 4
    p.ops.push_back(std::move(probe));
    SinkAgg sink;
    sink.agg = agg;
    sink.key = I64(0);
    sink.items = std::move(items);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  // promo_revenue = 100 * promo / total.
  q.AddStep(ReadGroups(
      agg, ExprList(FDiv(FMul(F64(100.0), CastF64(Slot(1))), CastF64(Slot(2))),
                    Slot(1), Slot(2)),
      nullptr, /*scalar=*/true));
  return q;
}

// =============================================================================
// Q18: large volume customer. Group lineitem by orderkey, HAVING sum > 300.
// =============================================================================
QueryProgram BuildQ18Impl(const Catalog& cat, int64_t min_quantity) {
  QueryProgram q("q18");
  int lineitem = q.DeclareBaseTable("lineitem");
  int orders = q.DeclareBaseTable("orders");
  int qualify_ht = q.DeclareJoinTable(1);  // payload: sum(l_quantity)

  std::vector<AggItem> items;
  items.push_back({AggKind::kSum, Slot(1), true});
  int agg = q.DeclareAggSet(KindsOf(items));
  {
    PipelineSpec p;
    p.name = "agg lineitem";
    p.source_table = lineitem;
    p.scan_columns = {Col(cat, "lineitem", "l_orderkey"),
                      Col(cat, "lineitem", "l_quantity")};
    SinkAgg sink;
    sink.agg = agg;
    sink.key = Slot(0);
    sink.items = std::move(items);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  // HAVING sum(l_quantity) > min_quantity: the qualifying orderkeys become
  // a join table. Few orders qualify; the probe's seal sizes the table to
  // them, not to the groups.
  q.AddStep(StepGroupsToJoinTable{
      agg, qualify_ht, Gt(Slot(1), I64(min_quantity * kDecimalScale))});
  {
    PipelineSpec p;
    p.name = "scan orders";
    p.source_table = orders;
    p.scan_columns = {Col(cat, "orders", "o_orderkey"),
                      Col(cat, "orders", "o_custkey"),
                      Col(cat, "orders", "o_orderdate"),
                      Col(cat, "orders", "o_totalprice")};
    OpProbe probe;
    probe.ht = qualify_ht;
    probe.key = Slot(0);
    probe.payload_slots = 1;  // sum(l_quantity) -> slot 4
    p.ops.push_back(std::move(probe));
    int output = q.DeclareOutput(5);
    SinkOutput sink;
    sink.output = output;
    sink.values.push_back(Slot(1));  // custkey
    sink.values.push_back(Slot(0));  // orderkey
    sink.values.push_back(Slot(2));  // orderdate
    sink.values.push_back(Slot(3));  // totalprice
    sink.values.push_back(Slot(4));  // sum qty
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
    q.AddStep(StepReadOutput{output});
    // ORDER BY o_totalprice DESC, o_orderdate; LIMIT 100.
    q.AddStep(StepTopK{{{3, true, false}, {2, false, false}}, 100});
  }
  return q;
}

// =============================================================================
// Q19: discounted revenue — the big disjunctive predicate over part
// attributes and lineitem, evaluated after the part join.
// =============================================================================
QueryProgram BuildQ19(const Catalog& cat) {
  QueryProgram q("q19");
  int part = q.DeclareBaseTable("part");
  int lineitem = q.DeclareBaseTable("lineitem");
  int part_ht = q.DeclareJoinTable(3);  // payload: brand, container, size

  const Table* pt = cat.GetTable("part");
  const Dictionary& containers =
      pt->dictionary(pt->ColumnIndex("p_container"));
  const uint8_t* sm = q.AddBitmap(
      containers.MatchIn({"SM CASE", "SM BOX", "SM PACK", "SM PKG"}));
  const uint8_t* med = q.AddBitmap(
      containers.MatchIn({"MED BAG", "MED BOX", "MED PKG", "MED PACK"}));
  const uint8_t* lg = q.AddBitmap(
      containers.MatchIn({"LG CASE", "LG BOX", "LG PACK", "LG PKG"}));
  const int64_t brand12 = DictCode(cat, "part", "p_brand", "Brand#12");
  const int64_t brand23 = DictCode(cat, "part", "p_brand", "Brand#23");
  const int64_t brand34 = DictCode(cat, "part", "p_brand", "Brand#34");
  const Table* lt = cat.GetTable("lineitem");
  const uint8_t* air_modes = q.AddBitmap(
      lt->dictionary(lt->ColumnIndex("l_shipmode"))
          .MatchIn({"AIR", "REG AIR"}));
  const int64_t deliver = DictCode(cat, "lineitem", "l_shipinstruct",
                                   "DELIVER IN PERSON");

  {
    PipelineSpec p;
    p.name = "build part";
    p.source_table = part;
    p.scan_columns = {Col(cat, "part", "p_partkey"),
                      Col(cat, "part", "p_brand"),
                      Col(cat, "part", "p_container"),
                      Col(cat, "part", "p_size")};
    SinkBuild sink;
    sink.ht = part_ht;
    sink.key = Slot(0);
    sink.payload.push_back(Slot(1));
    sink.payload.push_back(Slot(2));
    sink.payload.push_back(Slot(3));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  std::vector<AggItem> items;
  items.push_back(
      {AggKind::kSum, CheckedMul(Slot(2), Sub(I64(100), Slot(3))), true});
  int agg = q.DeclareAggSet(KindsOf(items));
  {
    PipelineSpec p;
    p.name = "scan lineitem";
    p.source_table = lineitem;
    // 0 partkey, 1 qty, 2 price, 3 disc, 4 shipmode, 5 shipinstruct
    p.scan_columns = {Col(cat, "lineitem", "l_partkey"),
                      Col(cat, "lineitem", "l_quantity"),
                      Col(cat, "lineitem", "l_extendedprice"),
                      Col(cat, "lineitem", "l_discount"),
                      Col(cat, "lineitem", "l_shipmode"),
                      Col(cat, "lineitem", "l_shipinstruct")};
    p.ops.push_back(OpFilter{And(Eq(Slot(5), I64(deliver)),
                                 BitmapTest(air_modes, Slot(4)))});
    OpProbe probe;
    probe.ht = part_ht;
    probe.key = Slot(0);
    probe.payload_slots = 3;  // brand->6, container->7, size->8
    p.ops.push_back(std::move(probe));
    auto branch = [&](int64_t brand, const uint8_t* bitmap, int64_t qlo,
                      int64_t qhi, int64_t size_hi) {
      return And(
          And(Eq(Slot(6), I64(brand)), BitmapTest(bitmap, Slot(7))),
          And(And(Ge(Slot(1), I64(qlo * 100)), Le(Slot(1), I64(qhi * 100))),
              And(Ge(Slot(8), I64(1)), Le(Slot(8), I64(size_hi)))));
    };
    p.ops.push_back(OpFilter{Or(
        Or(branch(brand12, sm, 1, 11, 5), branch(brand23, med, 10, 20, 10)),
        branch(brand34, lg, 20, 30, 15))});
    SinkAgg sink;
    sink.agg = agg;
    sink.key = I64(0);
    sink.items = std::move(items);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  q.AddStep(ReadGroups(agg, ExprList(Slot(1)), nullptr, /*scalar=*/true));
  return q;
}


// =============================================================================
// Q7: volume shipping. supplier x lineitem x orders x customer with two
// nation filters and per-year revenue (year via date-threshold arithmetic).
// =============================================================================
QueryProgram BuildQ7(const Catalog& cat) {
  QueryProgram q("q7");
  int supplier = q.DeclareBaseTable("supplier");
  int customer = q.DeclareBaseTable("customer");
  int orders = q.DeclareBaseTable("orders");
  int lineitem = q.DeclareBaseTable("lineitem");
  int supp_ht = q.DeclareJoinTable(1);   // payload: s_nationkey
  int cust_ht = q.DeclareJoinTable(1);   // payload: c_nationkey
  int order_ht = q.DeclareJoinTable(1);  // payload: c_nationkey

  const int64_t france = DictCode(cat, "nation", "n_name", "FRANCE");
  const int64_t germany = DictCode(cat, "nation", "n_name", "GERMANY");
  // n_name dictionary codes are not nation keys; map via the nation table.
  const Table* nt = cat.GetTable("nation");
  int64_t fr_key = -1, de_key = -1;
  for (uint64_t r = 0; r < nt->num_rows(); ++r) {
    int64_t name = nt->column("n_name").GetAsI64(r);
    if (name == france) fr_key = nt->column("n_nationkey").GetAsI64(r);
    if (name == germany) de_key = nt->column("n_nationkey").GetAsI64(r);
  }
  AQE_CHECK(fr_key >= 0 && de_key >= 0);

  {
    PipelineSpec p;
    p.name = "build supplier";
    p.source_table = supplier;
    p.scan_columns = {Col(cat, "supplier", "s_suppkey"),
                      Col(cat, "supplier", "s_nationkey")};
    p.ops.push_back(
        OpFilter{Or(Eq(Slot(1), I64(fr_key)), Eq(Slot(1), I64(de_key)))});
    SinkBuild sink;
    sink.ht = supp_ht;
    sink.key = Slot(0);
    sink.payload.push_back(Slot(1));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  {
    PipelineSpec p;
    p.name = "build customer";
    p.source_table = customer;
    p.scan_columns = {Col(cat, "customer", "c_custkey"),
                      Col(cat, "customer", "c_nationkey")};
    p.ops.push_back(
        OpFilter{Or(Eq(Slot(1), I64(fr_key)), Eq(Slot(1), I64(de_key)))});
    SinkBuild sink;
    sink.ht = cust_ht;
    sink.key = Slot(0);
    sink.payload.push_back(Slot(1));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  {
    PipelineSpec p;
    p.name = "build orders";
    p.source_table = orders;
    p.scan_columns = {Col(cat, "orders", "o_orderkey"),
                      Col(cat, "orders", "o_custkey")};
    OpProbe probe;
    probe.ht = cust_ht;
    probe.key = Slot(1);
    probe.payload_slots = 1;  // c_nationkey -> slot 2
    p.ops.push_back(std::move(probe));
    SinkBuild sink;
    sink.ht = order_ht;
    sink.key = Slot(0);
    sink.payload.push_back(Slot(2));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  std::vector<AggItem> items;
  items.push_back(
      {AggKind::kSum, CheckedMul(Slot(2), Sub(I64(100), Slot(3))), true});
  int agg = q.DeclareAggSet(KindsOf(items));
  {
    PipelineSpec p;
    p.name = "scan lineitem";
    p.source_table = lineitem;
    // 0 orderkey, 1 suppkey, 2 price, 3 disc, 4 shipdate
    p.scan_columns = {Col(cat, "lineitem", "l_orderkey"),
                      Col(cat, "lineitem", "l_suppkey"),
                      Col(cat, "lineitem", "l_extendedprice"),
                      Col(cat, "lineitem", "l_discount"),
                      Col(cat, "lineitem", "l_shipdate")};
    p.ops.push_back(OpFilter{And(Ge(Slot(4), I64(DateToDays(1995, 1, 1))),
                                 Le(Slot(4), I64(DateToDays(1996, 12, 31))))});
    OpProbe probe_supp;
    probe_supp.ht = supp_ht;
    probe_supp.key = Slot(1);
    probe_supp.payload_slots = 1;  // s_nationkey -> slot 5
    p.ops.push_back(std::move(probe_supp));
    OpProbe probe_ord;
    probe_ord.ht = order_ht;
    probe_ord.key = Slot(0);
    probe_ord.payload_slots = 1;  // c_nationkey -> slot 6
    p.ops.push_back(std::move(probe_ord));
    p.ops.push_back(OpFilter{
        Or(And(Eq(Slot(5), I64(fr_key)), Eq(Slot(6), I64(de_key))),
           And(Eq(Slot(5), I64(de_key)), Eq(Slot(6), I64(fr_key))))});
    // year = 1995 + (shipdate >= 1996-01-01) -> slot 7
    p.ops.push_back(OpCompute{Add(
        I64(1995), BoolToI64(Ge(Slot(4), I64(DateToDays(1996, 1, 1)))))});
    SinkAgg sink;
    sink.agg = agg;
    // group key packs (supp_nation, cust_nation, year).
    sink.key = Add(Mul(Slot(5), I64(1 << 20)),
                   Add(Mul(Slot(6), I64(4096)), Slot(7)));
    sink.items = std::move(items);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  q.AddStep(ReadGroups(agg, ExprList(Div(Slot(0), I64(1 << 20)),
                                     KeyDigit(4096, 256), KeyDigit(1, 4096),
                                     Slot(1))));
  q.AddStep(
      StepSort{{{0, false, false}, {1, false, false}, {2, false, false}}});
  return q;
}

// =============================================================================
// Q9: product type profit measure. The spec filters p_name LIKE '%green%';
// our generator has no p_name column, so we filter p_type LIKE '%BRASS%'
// (similar ~1/5 selectivity, same code path). Composite
// (partkey, suppkey) partsupp key packed into one i64; per-nation/year
// profit. The part table is built first, and the partsupp build
// semi-probes it, so only the BRASS parts' partsupp rows (~1/5) are
// built. The largest worker function among the implemented queries.
// =============================================================================
QueryProgram BuildQ9(const Catalog& cat) {
  QueryProgram q("q9");
  int part = q.DeclareBaseTable("part");
  int supplier = q.DeclareBaseTable("supplier");
  int partsupp = q.DeclareBaseTable("partsupp");
  int orders = q.DeclareBaseTable("orders");
  int lineitem = q.DeclareBaseTable("lineitem");
  int part_ht = q.DeclareJoinTable(0);   // green parts (semi)
  int supp_ht = q.DeclareJoinTable(1);   // payload: s_nationkey
  int ps_ht = q.DeclareJoinTable(1);     // payload: ps_supplycost
  int order_ht = q.DeclareJoinTable(1);  // payload: o_orderdate

  const Table* pt = cat.GetTable("part");
  const uint8_t* green = q.AddBitmap(
      pt->dictionary(pt->ColumnIndex("p_type")).MatchContains("BRASS"));

  {
    PipelineSpec p;
    p.name = "build part";
    p.source_table = part;
    p.scan_columns = {Col(cat, "part", "p_partkey"),
                      Col(cat, "part", "p_type")};
    p.ops.push_back(OpFilter{BitmapTest(green, Slot(1))});
    SinkBuild sink;
    sink.ht = part_ht;
    sink.key = Slot(0);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  {
    PipelineSpec p;
    p.name = "build supplier";
    p.source_table = supplier;
    p.scan_columns = {Col(cat, "supplier", "s_suppkey"),
                      Col(cat, "supplier", "s_nationkey")};
    SinkBuild sink;
    sink.ht = supp_ht;
    sink.key = Slot(0);
    sink.payload.push_back(Slot(1));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  {
    PipelineSpec p;
    p.name = "build partsupp";
    p.source_table = partsupp;
    p.scan_columns = {Col(cat, "partsupp", "ps_partkey"),
                      Col(cat, "partsupp", "ps_suppkey"),
                      Col(cat, "partsupp", "ps_supplycost")};
    // Only partsupp rows of BRASS parts can meet the lineitem probe.
    OpProbe probe_part;
    probe_part.ht = part_ht;
    probe_part.key = Slot(0);
    probe_part.kind = JoinKind::kSemi;
    p.ops.push_back(std::move(probe_part));
    SinkBuild sink;
    sink.ht = ps_ht;
    // composite key: partkey * 2^20 + suppkey (fits for SF <= ~500)
    sink.key = Add(Mul(Slot(0), I64(1 << 20)), Slot(1));
    sink.payload.push_back(Slot(2));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  {
    PipelineSpec p;
    p.name = "build orders";
    p.source_table = orders;
    p.scan_columns = {Col(cat, "orders", "o_orderkey"),
                      Col(cat, "orders", "o_orderdate")};
    SinkBuild sink;
    sink.ht = order_ht;
    sink.key = Slot(0);
    sink.payload.push_back(Slot(1));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  std::vector<AggItem> items;
  // profit = price*(100-disc) - supplycost*qty  (both at scale 1e4)
  items.push_back({AggKind::kSum,
                   CheckedSub(CheckedMul(Slot(4), Sub(I64(100), Slot(5))),
                              CheckedMul(Slot(8), Slot(3))),
                   true});
  int agg = q.DeclareAggSet(KindsOf(items));
  {
    PipelineSpec p;
    p.name = "scan lineitem";
    p.source_table = lineitem;
    // 0 orderkey, 1 partkey, 2 suppkey, 3 qty, 4 price, 5 disc
    p.scan_columns = {Col(cat, "lineitem", "l_orderkey"),
                      Col(cat, "lineitem", "l_partkey"),
                      Col(cat, "lineitem", "l_suppkey"),
                      Col(cat, "lineitem", "l_quantity"),
                      Col(cat, "lineitem", "l_extendedprice"),
                      Col(cat, "lineitem", "l_discount")};
    OpProbe probe_part;
    probe_part.ht = part_ht;
    probe_part.key = Slot(1);
    probe_part.kind = JoinKind::kSemi;
    p.ops.push_back(std::move(probe_part));
    OpProbe probe_supp;
    probe_supp.ht = supp_ht;
    probe_supp.key = Slot(2);
    probe_supp.payload_slots = 1;  // s_nationkey -> slot 6
    p.ops.push_back(std::move(probe_supp));
    OpProbe probe_ord;
    probe_ord.ht = order_ht;
    probe_ord.key = Slot(0);
    probe_ord.payload_slots = 1;  // o_orderdate -> slot 7
    p.ops.push_back(std::move(probe_ord));
    OpProbe probe_ps;
    probe_ps.ht = ps_ht;
    probe_ps.key = Add(Mul(Slot(1), I64(1 << 20)), Slot(2));
    probe_ps.payload_slots = 1;  // ps_supplycost -> slot 8
    p.ops.push_back(std::move(probe_ps));
    // year(o_orderdate) = 1992 + sum of >=-year-boundary indicators
    ExprPtr year = I64(1992);
    for (int y = 1993; y <= 1998; ++y) {
      year = Add(std::move(year),
                 BoolToI64(Ge(Slot(7), I64(DateToDays(y, 1, 1)))));
    }
    p.ops.push_back(OpCompute{std::move(year)});  // slot 9
    SinkAgg sink;
    sink.agg = agg;
    sink.key = Add(Mul(Slot(6), I64(4096)), Slot(9));
    sink.items = std::move(items);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  q.AddStep(ReadGroups(
      agg, ExprList(Div(Slot(0), I64(4096)), KeyDigit(1, 4096), Slot(1))));
  // ORDER BY nation, o_year DESC.
  q.AddStep(StepSort{{{0, false, false}, {1, true, false}}});
  return q;
}

// =============================================================================
// Q10: returned item reporting. Top-20 customers by lost revenue.
// =============================================================================
QueryProgram BuildQ10(const Catalog& cat) {
  QueryProgram q("q10");
  int customer = q.DeclareBaseTable("customer");
  int orders = q.DeclareBaseTable("orders");
  int lineitem = q.DeclareBaseTable("lineitem");
  int cust_ht = q.DeclareJoinTable(1);   // payload: c_nationkey
  int order_ht = q.DeclareJoinTable(1);  // payload: o_custkey

  const int64_t returned = DictCode(cat, "lineitem", "l_returnflag", "R");

  {
    PipelineSpec p;
    p.name = "build customer";
    p.source_table = customer;
    p.scan_columns = {Col(cat, "customer", "c_custkey"),
                      Col(cat, "customer", "c_nationkey")};
    SinkBuild sink;
    sink.ht = cust_ht;
    sink.key = Slot(0);
    sink.payload.push_back(Slot(1));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  {
    PipelineSpec p;
    p.name = "build orders";
    p.source_table = orders;
    p.scan_columns = {Col(cat, "orders", "o_orderkey"),
                      Col(cat, "orders", "o_custkey"),
                      Col(cat, "orders", "o_orderdate")};
    p.ops.push_back(OpFilter{And(Ge(Slot(2), I64(DateToDays(1993, 10, 1))),
                                 Lt(Slot(2), I64(DateToDays(1994, 1, 1))))});
    SinkBuild sink;
    sink.ht = order_ht;
    sink.key = Slot(0);
    sink.payload.push_back(Slot(1));
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  std::vector<AggItem> items;
  items.push_back(
      {AggKind::kSum, CheckedMul(Slot(2), Sub(I64(100), Slot(3))), true});
  items.push_back({AggKind::kMin, Slot(5), false});  // nationkey carrier
  int agg = q.DeclareAggSet(KindsOf(items));
  {
    PipelineSpec p;
    p.name = "scan lineitem";
    p.source_table = lineitem;
    // 0 orderkey, 1 returnflag, 2 price, 3 disc
    p.scan_columns = {Col(cat, "lineitem", "l_orderkey"),
                      Col(cat, "lineitem", "l_returnflag"),
                      Col(cat, "lineitem", "l_extendedprice"),
                      Col(cat, "lineitem", "l_discount")};
    p.ops.push_back(OpFilter{Eq(Slot(1), I64(returned))});
    OpProbe probe_ord;
    probe_ord.ht = order_ht;
    probe_ord.key = Slot(0);
    probe_ord.payload_slots = 1;  // o_custkey -> slot 4
    p.ops.push_back(std::move(probe_ord));
    OpProbe probe_cust;
    probe_cust.ht = cust_ht;
    probe_cust.key = Slot(4);
    probe_cust.payload_slots = 1;  // c_nationkey -> slot 5
    p.ops.push_back(std::move(probe_cust));
    SinkAgg sink;
    sink.agg = agg;
    sink.key = Slot(4);  // group by custkey
    sink.items = std::move(items);
    p.sink = std::move(sink);
    q.AddPipeline(std::move(p));
  }
  q.AddStep(ReadGroups(agg, ExprList(Slot(0), Slot(2), Slot(1))));
  // ORDER BY revenue DESC LIMIT 20.
  q.AddStep(StepTopK{{{2, true, false}, {0, false, false}}, 20});
  return q;
}

}  // namespace

QueryProgram BuildTpchQuery(int number, const Catalog& catalog) {
  switch (number) {
    case 1: return BuildQ1(catalog);
    case 3: return BuildQ3(catalog);
    case 4: return BuildQ4(catalog);
    case 5: return BuildQ5(catalog);
    case 6: return BuildQ6Impl(catalog, DefaultQ6Literals());
    case 7: return BuildQ7(catalog);
    case 9: return BuildQ9(catalog);
    case 10: return BuildQ10(catalog);
    case 11: return BuildQ11(catalog);
    case 12: return BuildQ12(catalog);
    case 14: return BuildQ14Impl(catalog, "PROMO%");
    case 18: return BuildQ18Impl(catalog, 300);
    case 19: return BuildQ19(catalog);
    default:
      AQE_UNREACHABLE("TPC-H query not implemented");
  }
}

const std::vector<int>& ImplementedTpchQueries() {
  static const std::vector<int> kQueries = {1, 3, 4,  5,  6,  7, 9,
                                            10, 11, 12, 14, 18, 19};
  return kQueries;
}

TpchQ6Literals DefaultQ6Literals() {
  return {DateToDays(1994, 1, 1), DateToDays(1995, 1, 1), 5, 7, 2400};
}

QueryProgram BuildTpchQ6Variant(const Catalog& catalog,
                                const TpchQ6Literals& literals) {
  return BuildQ6Impl(catalog, literals);
}

QueryProgram BuildTpchQ14Variant(const Catalog& catalog,
                                 const std::string& type_pattern) {
  return BuildQ14Impl(catalog, type_pattern);
}

QueryProgram BuildTpchQ18Variant(const Catalog& catalog,
                                 int64_t min_quantity) {
  return BuildQ18Impl(catalog, min_quantity);
}

}  // namespace aqe
