#include "queries/tpch_queries.h"

#include <string>
#include <utility>

#include "common/fixed_point.h"
#include "common/status.h"
#include "plan/builder.h"
#include "strings/like_lowering.h"
#include "tpch/tpch_schema.h"

namespace aqe {
namespace {

using tpch::DateToDays;

/// Digit `(key / unit) % radix` of a packed, non-negative group key (slot 0
/// of a group read), in i64 division.
ExprPtr KeyDigit(int64_t unit, int64_t radix) {
  return Sub(Div(Slot(0), I64(unit)),
             Mul(Div(Slot(0), I64(unit * radix)), I64(radix)));
}

/// l_extendedprice * (1.00 - l_discount), at scale 1e4.
ExprPtr Revenue(const Pipe& p) {
  return CheckedMul(p["l_extendedprice"], Sub(I64(100), p["l_discount"]));
}

/// `lo <= p[column] < hi`.
ExprPtr InRange(const Pipe& p, const char* column, int64_t lo, int64_t hi) {
  return And(Ge(p[column], I64(lo)), Lt(p[column], I64(hi)));
}

/// Q1: pricing summary report. 1 pipeline over lineitem; group by
/// (returnflag, linestatus); the heavy checked decimal arithmetic query.
QueryProgram BuildQ1(const Catalog& cat) {
  PlanBuilder b(cat, "q1");
  Pipe l = b.Scan("scan lineitem", "lineitem",
                  {"l_quantity", "l_extendedprice", "l_discount", "l_tax",
                   "l_returnflag", "l_linestatus", "l_shipdate"});
  l.Filter(Le(l["l_shipdate"], I64(DateToDays(1998, 9, 2))));
  // disc_price = price * (1.00 - disc); charge = disc_price * (1.00 + tax).
  // Fixed-point: factors are at scale 100, products at scale 1e4 / 1e6.
  l.Compute("disc_price", Revenue(l));
  l.Compute("charge", CheckedMul(l["disc_price"], Add(I64(100), l["l_tax"])));
  AggRef agg = l.Aggregate(
      Add(Mul(l["l_returnflag"], I64(256)), l["l_linestatus"]),
      Aggs(Agg{"sum_qty", AggKind::kSum, l["l_quantity"]},
           Agg{"sum_base_price", AggKind::kSum, l["l_extendedprice"]},
           Agg{"sum_disc_price", AggKind::kSum, l["disc_price"]},
           Agg{"sum_charge", AggKind::kSum, l["charge"]},
           Agg{"sum_disc", AggKind::kSum, l["l_discount"]},
           Agg{"count_order", AggKind::kCount, nullptr, false}));
  // avg_qty, avg_price, avg_disc as doubles.
  const auto avg = [&agg](const char* sum) {
    return FDiv(FDiv(CastF64(agg[sum]), F64(kDecimalScale)),
                CastF64(agg["count_order"]));
  };
  b.Step(ReadGroups(
      agg.id, ExprList(Div(agg.key(), I64(256)), KeyDigit(1, 256),
                       agg["sum_qty"], agg["sum_base_price"],
                       agg["sum_disc_price"], agg["sum_charge"], avg("sum_qty"),
                       avg("sum_base_price"), avg("sum_disc"),
                       agg["count_order"])));
  b.Step(StepSort{{{0, false, false}, {1, false, false}}});
  return b.Take();
}

/// Q6: forecasting revenue change. 1 pipeline, highly selective filter.
QueryProgram BuildQ6Impl(const Catalog& cat, const TpchQ6Literals& lit) {
  PlanBuilder b(cat, "q6");
  Pipe l = b.Scan(
      "scan lineitem", "lineitem",
      {"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"});
  l.Filter(And(InRange(l, "l_shipdate", lit.ship_date_lo, lit.ship_date_hi),
               And(And(Ge(l["l_discount"], I64(lit.discount_lo)),
                       Le(l["l_discount"], I64(lit.discount_hi))),
                   Lt(l["l_quantity"], I64(lit.quantity_limit)))));
  AggRef agg = l.Aggregate(
      I64(0), Aggs(Agg{"revenue", AggKind::kSum,
                       CheckedMul(l["l_extendedprice"], l["l_discount"])}));
  b.Step(ReadGroups(agg.id, ExprList(agg["revenue"]), nullptr,
                    /*scalar=*/true));
  return b.Take();
}

/// Q3: shipping priority. customer -> orders -> lineitem, top-10.
QueryProgram BuildQ3(const Catalog& cat) {
  PlanBuilder b(cat, "q3");
  const int64_t cutoff = DateToDays(1995, 3, 15);
  Pipe c = b.Scan("build customer", "customer", {"c_custkey", "c_mktsegment"});
  c.Filter(Eq(c["c_mktsegment"],
              I64(b.Code("customer", "c_mktsegment", "BUILDING"))));
  JoinRef customers = c.Build(c["c_custkey"]);

  Pipe o = b.Scan("build orders", "orders",
                  {"o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"});
  o.Filter(Lt(o["o_orderdate"], I64(cutoff)));
  o.Probe(customers, o["o_custkey"], JoinKind::kSemi);
  JoinRef orders = o.Build(o["o_orderkey"], {"o_orderdate", "o_shippriority"});

  Pipe l = b.Scan(
      "scan lineitem", "lineitem",
      {"l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"});
  l.Filter(Gt(l["l_shipdate"], I64(cutoff)));
  l.Probe(orders, l["l_orderkey"]);
  // Group by orderkey; the order's date and priority ride along as minima.
  AggRef agg = l.Aggregate(
      l["l_orderkey"],
      Aggs(Agg{"revenue", AggKind::kSum, Revenue(l)},
           Agg{"o_orderdate", AggKind::kMin, l["o_orderdate"], false},
           Agg{"o_shippriority", AggKind::kMin, l["o_shippriority"], false}));
  b.Step(ReadGroups(agg.id, ExprList(agg.key(), agg["revenue"],
                                     agg["o_orderdate"],
                                     agg["o_shippriority"])));
  // ORDER BY revenue DESC, o_orderdate; LIMIT 10.
  b.Step(StepTopK{{{1, true, false}, {2, false, false}}, 10});
  return b.Take();
}

/// Q4: order priority checking. The EXISTS is evaluated from the small side:
/// build the ~1/26 of orders in the 3-month window (payload: priority), probe
/// them from the lineitems with l_commitdate < l_receiptdate, and group the
/// matches by orderkey so each qualifying order counts once; the final step
/// counts orders per priority.
QueryProgram BuildQ4(const Catalog& cat) {
  PlanBuilder b(cat, "q4");
  Pipe o = b.Scan("build orders", "orders",
                  {"o_orderkey", "o_orderdate", "o_orderpriority"});
  o.Filter(InRange(o, "o_orderdate", DateToDays(1993, 7, 1),
                   DateToDays(1993, 10, 1)));
  JoinRef orders = o.Build(o["o_orderkey"], {"o_orderpriority"});

  Pipe l = b.Scan("scan lineitem", "lineitem",
                  {"l_orderkey", "l_commitdate", "l_receiptdate"});
  l.Filter(Lt(l["l_commitdate"], l["l_receiptdate"]));
  l.Probe(orders, l["l_orderkey"]);
  // One group per qualifying order; its lineitems all carry its priority.
  AggRef agg = l.Aggregate(
      l["l_orderkey"], Aggs(Agg{"o_orderpriority", AggKind::kMax,
                                l["o_orderpriority"], false}));
  // Orders per priority, ORDER BY o_orderpriority (dictionary codes sort
  // like the strings).
  b.Step(StepCountBy{agg.id, agg.slot("o_orderpriority")});
  return b.Take();
}

/// Q5: local supplier volume. 6 pipelines (region, nation, customer, orders,
/// supplier builds + lineitem probe).
QueryProgram BuildQ5(const Catalog& cat) {
  PlanBuilder b(cat, "q5");
  Pipe r = b.Scan("build region", "region", {"r_regionkey", "r_name"});
  r.Filter(Eq(r["r_name"], I64(b.Code("region", "r_name", "ASIA"))));
  JoinRef regions = r.Build(r["r_regionkey"]);

  Pipe n = b.Scan("build nation", "nation", {"n_nationkey", "n_regionkey"});
  n.Probe(regions, n["n_regionkey"], JoinKind::kSemi);
  JoinRef nations = n.Build(n["n_nationkey"]);

  Pipe c = b.Scan("build customer", "customer", {"c_custkey", "c_nationkey"});
  c.Probe(nations, c["c_nationkey"], JoinKind::kSemi);
  JoinRef customers = c.Build(c["c_custkey"], {"c_nationkey"});

  Pipe o = b.Scan("build orders", "orders",
                  {"o_orderkey", "o_custkey", "o_orderdate"});
  o.Filter(InRange(o, "o_orderdate", DateToDays(1994, 1, 1),
                   DateToDays(1995, 1, 1)));
  o.Probe(customers, o["o_custkey"]);
  JoinRef orders = o.Build(o["o_orderkey"], {"c_nationkey"});

  Pipe s = b.Scan("build supplier", "supplier", {"s_suppkey", "s_nationkey"});
  JoinRef suppliers = s.Build(s["s_suppkey"], {"s_nationkey"});

  Pipe l = b.Scan("scan lineitem", "lineitem",
                  {"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"});
  l.Probe(orders, l["l_orderkey"]);
  l.Probe(suppliers, l["l_suppkey"]);
  l.Filter(Eq(l["c_nationkey"], l["s_nationkey"]));
  AggRef agg = l.Aggregate(l["s_nationkey"],
                           Aggs(Agg{"revenue", AggKind::kSum, Revenue(l)}));
  b.Step(ReadGroups(agg.id, ExprList(agg.key(), agg["revenue"])));
  b.Step(StepSort{{{1, true, false}}});
  return b.Take();
}

/// Q11: important stock identification. The Fig 14 trace query: two large
/// partsupp scans dominate.
QueryProgram BuildQ11(const Catalog& cat) {
  PlanBuilder b(cat, "q11");
  Pipe n = b.Scan("build nation", "nation", {"n_nationkey", "n_name"});
  n.Filter(Eq(n["n_name"], I64(b.Code("nation", "n_name", "GERMANY"))));
  JoinRef nations = n.Build(n["n_nationkey"]);

  Pipe s = b.Scan("build supplier", "supplier", {"s_suppkey", "s_nationkey"});
  s.Probe(nations, s["s_nationkey"], JoinKind::kSemi);
  JoinRef suppliers = s.Build(s["s_suppkey"]);

  // The German suppliers' stock value, per part or in total.
  const auto stock_value = [&](const char* name, bool per_part) {
    Pipe ps = b.Scan(name, "partsupp", {"ps_partkey", "ps_suppkey",
                                        "ps_availqty", "ps_supplycost"});
    ps.Probe(suppliers, ps["ps_suppkey"], JoinKind::kSemi);
    return ps.Aggregate(
        per_part ? ps["ps_partkey"] : I64(0),
        Aggs(Agg{"value", AggKind::kSum,
                 CheckedMul(ps["ps_supplycost"],
                            Mul(ps["ps_availqty"], I64(100)))}));
  };
  AggRef parts = stock_value("scan partsupp 1", /*per_part=*/true);
  AggRef total = stock_value("scan partsupp 2", /*per_part=*/false);
  // HAVING value > total * 0.0001 (the spec's fraction/SF; we use the
  // SF-1 fraction). The total set's slots follow a part's.
  StepReadGroups having = ReadGroups(
      parts.id, ExprList(parts.key(), parts["value"]),
      Gt(Mul(parts["value"], I64(10000)),
         Slot(static_cast<int>(parts.names.size() + total.slot("value")))));
  having.scalar_agg = total.id;
  b.Step(std::move(having));
  b.Step(StepSort{{{1, true, false}}});
  return b.Take();
}

/// Q12: shipping modes and order priority. About 1% of lineitems pass the
/// filter, so they are the small side: pre-aggregate them by orderkey into
/// MAIL and SHIP line counts, turn the groups into a join table in a step
/// (as Q18 does), and probe it from orders into one sum per shipmode and
/// priority class.
QueryProgram BuildQ12(const Catalog& cat) {
  PlanBuilder b(cat, "q12");
  const int64_t mail = b.Code("lineitem", "l_shipmode", "MAIL");
  const int64_t ship = b.Code("lineitem", "l_shipmode", "SHIP");
  const int64_t urgent = b.Code("orders", "o_orderpriority", "1-URGENT");
  const int64_t high = b.Code("orders", "o_orderpriority", "2-HIGH");

  Pipe l = b.Scan("agg lineitem", "lineitem",
                  {"l_orderkey", "l_shipmode", "l_commitdate", "l_receiptdate",
                   "l_shipdate"});
  l.Filter(And(Or(Eq(l["l_shipmode"], I64(mail)),
                  Eq(l["l_shipmode"], I64(ship))),
               And(And(Lt(l["l_commitdate"], l["l_receiptdate"]),
                       Lt(l["l_shipdate"], l["l_commitdate"])),
                   InRange(l, "l_receiptdate", DateToDays(1994, 1, 1),
                           DateToDays(1995, 1, 1)))));
  // Per order: its qualifying lines shipped by MAIL and by SHIP.
  AggRef lines = l.Aggregate(
      l["l_orderkey"],
      Aggs(Agg{"mail", AggKind::kSum, Eq(l["l_shipmode"], I64(mail)), false},
           Agg{"ship", AggKind::kSum, Eq(l["l_shipmode"], I64(ship)), false}));
  JoinRef per_order = b.GroupsToJoin(lines);

  Pipe o = b.Scan("scan orders", "orders", {"o_orderkey", "o_orderpriority"});
  o.Probe(per_order, o["o_orderkey"]);
  o.Compute("high", BoolToI64(Or(Eq(o["o_orderpriority"], I64(urgent)),
                                 Eq(o["o_orderpriority"], I64(high)))));
  // high_line_count counts the lines of orders with priority 1-URGENT or
  // 2-HIGH, low_line_count the others: per mode, all lines minus high.
  AggRef agg = o.Aggregate(
      I64(0),
      Aggs(Agg{"mail_high", AggKind::kSum, Mul(o["mail"], o["high"]), false},
           Agg{"mail_all", AggKind::kSum, o["mail"], false},
           Agg{"ship_high", AggKind::kSum, Mul(o["ship"], o["high"]), false},
           Agg{"ship_all", AggKind::kSum, o["ship"], false}));
  // GROUP BY l_shipmode: a mode has a row when any line qualified.
  StepReadGroups modes;
  modes.agg = agg.id;
  for (const auto& [code, mode] :
       {std::pair(mail, "mail"), std::pair(ship, "ship")}) {
    const std::string all = std::string(mode) + "_all";
    const std::string high_lines = std::string(mode) + "_high";
    modes.rows.push_back(
        {Gt(agg[all], I64(0)),
         ExprList(I64(code), agg[high_lines],
                  Sub(agg[all], agg[high_lines]))});
  }
  b.Step(std::move(modes));
  b.Step(StepSort{{{0, false, false}}});
  return b.Take();
}

/// Q14: promotion effect. part -> lineitem with a LIKE-prefix predicate on
/// p_type, lowered by the string predicate subsystem (on the sorted
/// dictionary this is a code-range compare; pattern variants differ only in
/// the range literals and share q14's cached bytecode).
QueryProgram BuildQ14Impl(const Catalog& cat, const std::string& pattern) {
  PlanBuilder b(cat, "q14");
  Pipe p = b.Scan("build part", "part", {"p_partkey", "p_type"});
  const Table& part = *cat.GetTable("part");
  LoweredLike promo =
      LowerLikePredicate(&b.program(), part, part.ColumnIndex("p_type"),
                         p.slot("p_type"), pattern);
  p.Compute("is_promo", std::move(promo.expr));
  JoinRef parts = p.Build(p["p_partkey"], {"is_promo"});

  Pipe l = b.Scan("scan lineitem", "lineitem",
                  {"l_partkey", "l_shipdate", "l_extendedprice", "l_discount"});
  l.Filter(InRange(l, "l_shipdate", DateToDays(1995, 9, 1),
                   DateToDays(1995, 10, 1)));
  l.Probe(parts, l["l_partkey"]);
  AggRef agg = l.Aggregate(
      I64(0), Aggs(Agg{"promo", AggKind::kSum, Mul(l["is_promo"], Revenue(l))},
                   Agg{"total", AggKind::kSum, Revenue(l)}));
  // promo_revenue = 100 * promo / total.
  b.Step(ReadGroups(
      agg.id,
      ExprList(FDiv(FMul(F64(100.0), CastF64(agg["promo"])),
                    CastF64(agg["total"])),
               agg["promo"], agg["total"]),
      nullptr, /*scalar=*/true));
  return b.Take();
}

/// Q18: large volume customer. Group lineitem by orderkey, HAVING sum > 300.
QueryProgram BuildQ18Impl(const Catalog& cat, int64_t min_quantity) {
  PlanBuilder b(cat, "q18");
  Pipe l = b.Scan("agg lineitem", "lineitem", {"l_orderkey", "l_quantity"});
  AggRef agg = l.Aggregate(
      l["l_orderkey"], Aggs(Agg{"sum_qty", AggKind::kSum, l["l_quantity"]}));
  // HAVING sum(l_quantity) > min_quantity: the qualifying orderkeys become
  // a join table. Few orders qualify; the probe's seal sizes the table to
  // them, not to the groups.
  JoinRef large = b.GroupsToJoin(
      agg, Gt(agg["sum_qty"], I64(min_quantity * kDecimalScale)));

  Pipe o = b.Scan("scan orders", "orders",
                  {"o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"});
  o.Probe(large, o["o_orderkey"]);
  const int output = o.Output(
      {"o_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "sum_qty"});
  b.Step(StepReadOutput{output});
  // ORDER BY o_totalprice DESC, o_orderdate; LIMIT 100.
  b.Step(StepTopK{{{3, true, false}, {2, false, false}}, 100});
  return b.Take();
}

/// Q19: discounted revenue — the big disjunctive predicate over part
/// attributes and lineitem, evaluated after the part join.
QueryProgram BuildQ19(const Catalog& cat) {
  PlanBuilder b(cat, "q19");
  const Table* pt = cat.GetTable("part");
  const Dictionary& containers =
      pt->dictionary(pt->ColumnIndex("p_container"));
  const uint8_t* sm = b.program().AddBitmap(
      containers.MatchIn({"SM CASE", "SM BOX", "SM PACK", "SM PKG"}));
  const uint8_t* med = b.program().AddBitmap(
      containers.MatchIn({"MED BAG", "MED BOX", "MED PKG", "MED PACK"}));
  const uint8_t* lg = b.program().AddBitmap(
      containers.MatchIn({"LG CASE", "LG BOX", "LG PACK", "LG PKG"}));
  const Table* lt = cat.GetTable("lineitem");
  const uint8_t* air_modes = b.program().AddBitmap(
      lt->dictionary(lt->ColumnIndex("l_shipmode"))
          .MatchIn({"AIR", "REG AIR"}));

  Pipe p = b.Scan("build part", "part",
                  {"p_partkey", "p_brand", "p_container", "p_size"});
  JoinRef parts =
      p.Build(p["p_partkey"], {"p_brand", "p_container", "p_size"});

  Pipe l = b.Scan("scan lineitem", "lineitem",
                  {"l_partkey", "l_quantity", "l_extendedprice", "l_discount",
                   "l_shipmode", "l_shipinstruct"});
  l.Filter(And(Eq(l["l_shipinstruct"], I64(b.Code("lineitem", "l_shipinstruct",
                                                   "DELIVER IN PERSON"))),
               BitmapTest(air_modes, l["l_shipmode"])));
  l.Probe(parts, l["l_partkey"]);
  const auto branch = [&](const char* brand, const uint8_t* containers_in,
                          int64_t qlo, int64_t qhi, int64_t size_hi) {
    return And(
        And(Eq(l["p_brand"], I64(b.Code("part", "p_brand", brand))),
            BitmapTest(containers_in, l["p_container"])),
        And(And(Ge(l["l_quantity"], I64(qlo * 100)),
                Le(l["l_quantity"], I64(qhi * 100))),
            And(Ge(l["p_size"], I64(1)), Le(l["p_size"], I64(size_hi)))));
  };
  l.Filter(Or(Or(branch("Brand#12", sm, 1, 11, 5),
                 branch("Brand#23", med, 10, 20, 10)),
              branch("Brand#34", lg, 20, 30, 15)));
  AggRef agg =
      l.Aggregate(I64(0), Aggs(Agg{"revenue", AggKind::kSum, Revenue(l)}));
  b.Step(ReadGroups(agg.id, ExprList(agg["revenue"]), nullptr,
                    /*scalar=*/true));
  return b.Take();
}

/// The n_nationkey of nation `name` (n_name codes are not nation keys).
int64_t NationKey(const PlanBuilder& b, const char* name) {
  const int64_t code = b.Code("nation", "n_name", name);
  const Table* nation = b.catalog().GetTable("nation");
  for (uint64_t r = 0; r < nation->num_rows(); ++r) {
    if (nation->column("n_name").GetAsI64(r) == code) {
      return nation->column("n_nationkey").GetAsI64(r);
    }
  }
  AQE_UNREACHABLE(name);
}

/// Q7: volume shipping. supplier x lineitem x orders x customer with two
/// nation filters and per-year revenue (year via date-threshold arithmetic).
QueryProgram BuildQ7(const Catalog& cat) {
  PlanBuilder b(cat, "q7");
  const int64_t fr = NationKey(b, "FRANCE");
  const int64_t de = NationKey(b, "GERMANY");
  const auto fr_or_de = [&](const Pipe& p, const char* nation) {
    return Or(Eq(p[nation], I64(fr)), Eq(p[nation], I64(de)));
  };

  Pipe s = b.Scan("build supplier", "supplier", {"s_suppkey", "s_nationkey"});
  s.Filter(fr_or_de(s, "s_nationkey"));
  JoinRef suppliers = s.Build(s["s_suppkey"], {"s_nationkey"});

  Pipe c = b.Scan("build customer", "customer", {"c_custkey", "c_nationkey"});
  c.Filter(fr_or_de(c, "c_nationkey"));
  JoinRef customers = c.Build(c["c_custkey"], {"c_nationkey"});

  Pipe o = b.Scan("build orders", "orders", {"o_orderkey", "o_custkey"});
  o.Probe(customers, o["o_custkey"]);
  JoinRef orders = o.Build(o["o_orderkey"], {"c_nationkey"});

  Pipe l = b.Scan("scan lineitem", "lineitem",
                  {"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
                   "l_shipdate"});
  l.Filter(And(Ge(l["l_shipdate"], I64(DateToDays(1995, 1, 1))),
               Le(l["l_shipdate"], I64(DateToDays(1996, 12, 31)))));
  l.Probe(suppliers, l["l_suppkey"]);
  l.Probe(orders, l["l_orderkey"]);
  l.Filter(Or(And(Eq(l["s_nationkey"], I64(fr)), Eq(l["c_nationkey"], I64(de))),
              And(Eq(l["s_nationkey"], I64(de)),
                  Eq(l["c_nationkey"], I64(fr)))));
  // year = 1995 + (shipdate >= 1996-01-01)
  l.Compute("l_year",
            Add(I64(1995), BoolToI64(Ge(l["l_shipdate"],
                                        I64(DateToDays(1996, 1, 1))))));
  // The group key packs (supp_nation, cust_nation, year).
  AggRef agg = l.Aggregate(
      Add(Mul(l["s_nationkey"], I64(1 << 20)),
          Add(Mul(l["c_nationkey"], I64(4096)), l["l_year"])),
      Aggs(Agg{"revenue", AggKind::kSum, Revenue(l)}));
  b.Step(ReadGroups(agg.id, ExprList(Div(agg.key(), I64(1 << 20)),
                                     KeyDigit(4096, 256), KeyDigit(1, 4096),
                                     agg["revenue"])));
  b.Step(StepSort{{{0, false, false}, {1, false, false}, {2, false, false}}});
  return b.Take();
}

/// Q9's composite partsupp key, partkey * 2^20 + suppkey.
ExprPtr PartSuppKey(ExprPtr partkey, ExprPtr suppkey) {
  return Add(Mul(std::move(partkey), I64(1 << 20)), std::move(suppkey));
}

/// Q9: product type profit measure. The spec filters p_name LIKE '%green%';
/// our generator has no p_name column, so we filter p_type LIKE '%BRASS%'
/// (similar ~1/5 selectivity, same code path). Composite
/// (partkey, suppkey) partsupp key packed into one i64; per-nation/year
/// profit. The part table is built first, and the partsupp build
/// semi-probes it, so only the BRASS parts' partsupp rows (~1/5) are
/// built. The largest worker function among the implemented queries.
QueryProgram BuildQ9(const Catalog& cat) {
  // The packed key is exact only while every suppkey is below 2^20.
  // Suppkeys run to 10,000 * SF, so this holds below SF ~104.
  AQE_CHECK_MSG(cat.GetTable("supplier")->num_rows() < (1u << 20),
                "q9 packs suppkey into 20 bits of its partsupp key");
  PlanBuilder b(cat, "q9");
  const Table* pt = cat.GetTable("part");
  const uint8_t* brass = b.program().AddBitmap(
      pt->dictionary(pt->ColumnIndex("p_type")).MatchContains("BRASS"));

  Pipe p = b.Scan("build part", "part", {"p_partkey", "p_type"});
  p.Filter(BitmapTest(brass, p["p_type"]));
  JoinRef parts = p.Build(p["p_partkey"]);

  Pipe s = b.Scan("build supplier", "supplier", {"s_suppkey", "s_nationkey"});
  JoinRef suppliers = s.Build(s["s_suppkey"], {"s_nationkey"});

  Pipe ps = b.Scan("build partsupp", "partsupp",
                   {"ps_partkey", "ps_suppkey", "ps_supplycost"});
  // Only partsupp rows of BRASS parts can meet the lineitem probe.
  ps.Probe(parts, ps["ps_partkey"], JoinKind::kSemi);
  JoinRef partsupps = ps.Build(PartSuppKey(ps["ps_partkey"], ps["ps_suppkey"]),
                               {"ps_supplycost"});

  Pipe o = b.Scan("build orders", "orders", {"o_orderkey", "o_orderdate"});
  JoinRef orders = o.Build(o["o_orderkey"], {"o_orderdate"});

  Pipe l = b.Scan("scan lineitem", "lineitem",
                  {"l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                   "l_extendedprice", "l_discount"});
  l.Probe(parts, l["l_partkey"], JoinKind::kSemi);
  l.Probe(suppliers, l["l_suppkey"]);
  l.Probe(orders, l["l_orderkey"]);
  l.Probe(partsupps, PartSuppKey(l["l_partkey"], l["l_suppkey"]));
  // year(o_orderdate) = 1992 + sum of >=-year-boundary indicators
  ExprPtr year = I64(1992);
  for (int y = 1993; y <= 1998; ++y) {
    year = Add(std::move(year),
               BoolToI64(Ge(l["o_orderdate"], I64(DateToDays(y, 1, 1)))));
  }
  l.Compute("o_year", std::move(year));
  // profit = price*(100-disc) - supplycost*qty  (both at scale 1e4)
  AggRef agg = l.Aggregate(
      Add(Mul(l["s_nationkey"], I64(4096)), l["o_year"]),
      Aggs(Agg{"profit", AggKind::kSum,
               CheckedSub(Revenue(l),
                          CheckedMul(l["ps_supplycost"], l["l_quantity"]))}));
  b.Step(ReadGroups(agg.id, ExprList(Div(agg.key(), I64(4096)),
                                     KeyDigit(1, 4096), agg["profit"])));
  // ORDER BY nation, o_year DESC.
  b.Step(StepSort{{{0, false, false}, {1, true, false}}});
  return b.Take();
}

/// Q10: returned item reporting. Top-20 customers by lost revenue.
QueryProgram BuildQ10(const Catalog& cat) {
  PlanBuilder b(cat, "q10");
  Pipe c = b.Scan("build customer", "customer", {"c_custkey", "c_nationkey"});
  JoinRef customers = c.Build(c["c_custkey"], {"c_nationkey"});

  Pipe o = b.Scan("build orders", "orders",
                  {"o_orderkey", "o_custkey", "o_orderdate"});
  o.Filter(InRange(o, "o_orderdate", DateToDays(1993, 10, 1),
                   DateToDays(1994, 1, 1)));
  JoinRef orders = o.Build(o["o_orderkey"], {"o_custkey"});

  Pipe l = b.Scan("scan lineitem", "lineitem",
                  {"l_orderkey", "l_returnflag", "l_extendedprice",
                   "l_discount"});
  l.Filter(
      Eq(l["l_returnflag"], I64(b.Code("lineitem", "l_returnflag", "R"))));
  l.Probe(orders, l["l_orderkey"]);
  l.Probe(customers, l["o_custkey"]);
  AggRef agg = l.Aggregate(
      l["o_custkey"],
      Aggs(Agg{"revenue", AggKind::kSum, Revenue(l)},
           Agg{"c_nationkey", AggKind::kMin, l["c_nationkey"], false}));
  b.Step(ReadGroups(agg.id, ExprList(agg.key(), agg["c_nationkey"],
                                     agg["revenue"])));
  // ORDER BY revenue DESC LIMIT 20.
  b.Step(StepTopK{{{2, true, false}, {0, false, false}}, 20});
  return b.Take();
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
