#include "tpch/tpch_schema.h"

#include <algorithm>

namespace aqe::tpch {

int32_t DateToDays(int year, int month, int day) {
  // Howard Hinnant's days_from_civil algorithm.
  year -= month <= 2;
  const int era = (year >= 0 ? year : year - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(year - era * 400);
  const unsigned doy =
      (153u * static_cast<unsigned>(month + (month > 2 ? -3 : 9)) + 2) / 5 +
      static_cast<unsigned>(day) - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int>(doe) - 719468;
}

void DaysToDate(int32_t days, int* year, int* month, int* day) {
  // Howard Hinnant's civil_from_days algorithm.
  int32_t z = days + 719468;
  const int era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int y = static_cast<int>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *month = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  *year = y + (*month <= 2);
}

// Every column is 32-bit: keys, dates, dictionary codes and decimals (cents;
// the largest, o_totalprice, stays under 73.5 M). The largest key,
// o_orderkey, is about 6 M x SF, so the catalog fits up to SF 357, and the
// generator checks every narrowed value. Scans widen each value to i64, so
// query expressions never see the storage width.
void CreateTpchSchema(Catalog* catalog) {
  Table* region = catalog->CreateTable("region");
  region->AddColumn("r_regionkey", DataType::kI32);
  region->AddColumn("r_name", DataType::kI32, /*dictionary=*/true);

  Table* nation = catalog->CreateTable("nation");
  nation->AddColumn("n_nationkey", DataType::kI32);
  nation->AddColumn("n_name", DataType::kI32, /*dictionary=*/true);
  nation->AddColumn("n_regionkey", DataType::kI32);

  Table* supplier = catalog->CreateTable("supplier");
  supplier->AddColumn("s_suppkey", DataType::kI32);
  supplier->AddColumn("s_nationkey", DataType::kI32);
  supplier->AddColumn("s_acctbal", DataType::kI32);  // decimal

  Table* customer = catalog->CreateTable("customer");
  customer->AddColumn("c_custkey", DataType::kI32);
  customer->AddColumn("c_name", DataType::kI32, /*dictionary=*/true);
  customer->AddColumn("c_nationkey", DataType::kI32);
  customer->AddColumn("c_mktsegment", DataType::kI32, /*dictionary=*/true);

  Table* part = catalog->CreateTable("part");
  part->AddColumn("p_partkey", DataType::kI32);
  part->AddColumn("p_brand", DataType::kI32, /*dictionary=*/true);
  part->AddColumn("p_type", DataType::kI32, /*dictionary=*/true);
  part->AddColumn("p_size", DataType::kI32);
  part->AddColumn("p_container", DataType::kI32, /*dictionary=*/true);
  part->AddColumn("p_retailprice", DataType::kI32);  // decimal

  Table* partsupp = catalog->CreateTable("partsupp");
  partsupp->AddColumn("ps_partkey", DataType::kI32);
  partsupp->AddColumn("ps_suppkey", DataType::kI32);
  partsupp->AddColumn("ps_availqty", DataType::kI32);
  partsupp->AddColumn("ps_supplycost", DataType::kI32);  // decimal

  Table* orders = catalog->CreateTable("orders");
  orders->AddColumn("o_orderkey", DataType::kI32);
  orders->AddColumn("o_custkey", DataType::kI32);
  orders->AddColumn("o_orderstatus", DataType::kI32, /*dictionary=*/true);
  orders->AddColumn("o_totalprice", DataType::kI32);  // decimal
  orders->AddColumn("o_orderdate", DataType::kI32);
  orders->AddColumn("o_orderpriority", DataType::kI32, /*dictionary=*/true);
  orders->AddColumn("o_shippriority", DataType::kI32);
  // Free-form comment text (Q13's '%special%requests%' predicate). Nearly
  // every value is distinct, so the dictionary is high-cardinality — the
  // workload that forces LIKE onto the per-row runtime-call path.
  orders->AddColumn("o_comment", DataType::kI32, /*dictionary=*/true);

  Table* lineitem = catalog->CreateTable("lineitem");
  lineitem->AddColumn("l_orderkey", DataType::kI32);
  lineitem->AddColumn("l_partkey", DataType::kI32);
  lineitem->AddColumn("l_suppkey", DataType::kI32);
  lineitem->AddColumn("l_linenumber", DataType::kI32);
  lineitem->AddColumn("l_quantity", DataType::kI32);       // decimal
  lineitem->AddColumn("l_extendedprice", DataType::kI32);  // decimal
  lineitem->AddColumn("l_discount", DataType::kI32);       // decimal
  lineitem->AddColumn("l_tax", DataType::kI32);            // decimal
  lineitem->AddColumn("l_returnflag", DataType::kI32, /*dictionary=*/true);
  lineitem->AddColumn("l_linestatus", DataType::kI32, /*dictionary=*/true);
  lineitem->AddColumn("l_shipdate", DataType::kI32);
  lineitem->AddColumn("l_commitdate", DataType::kI32);
  lineitem->AddColumn("l_receiptdate", DataType::kI32);
  lineitem->AddColumn("l_shipinstruct", DataType::kI32, /*dictionary=*/true);
  lineitem->AddColumn("l_shipmode", DataType::kI32, /*dictionary=*/true);
}

Cardinalities CardinalitiesForScale(double sf) {
  auto scaled = [sf](double base) {
    return static_cast<uint64_t>(std::max(1.0, base * sf));
  };
  Cardinalities c;
  c.region = 5;
  c.nation = 25;
  c.supplier = scaled(10000);
  c.customer = scaled(150000);
  c.part = scaled(200000);
  c.partsupp = c.part * 4;
  c.orders = scaled(1500000);
  return c;
}

}  // namespace aqe::tpch
