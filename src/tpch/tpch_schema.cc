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

// Every column is stored at the narrowest signed width its fixed domain
// allows. Keys and the decimals that grow with the scale factor stay 32-bit
// (cents; the largest, o_totalprice, stays under 73.5 M); the largest key,
// o_orderkey, is about 6 M x SF, so the catalog fits up to SF 357. Dates
// (8035..10438 days), l_quantity (100..5000 cents), ps_availqty and the
// 150-code p_type dictionary are 16-bit; the small decimals, the line
// number, the nation keys and every other fixed-vocabulary dictionary are
// 8-bit. Bytes per row: lineitem 31, orders 21, partsupp 14, part 13,
// customer 10, supplier 9, nation 3, region 2. The generator's checked
// append stops the load if a value or dictionary code outgrows its column.
// Scans widen each value to i64, so query expressions never see the
// storage width.
void CreateTpchSchema(Catalog* catalog) {
  constexpr DataType kI8 = DataType::kI8;
  constexpr DataType kI16 = DataType::kI16;
  constexpr DataType kI32 = DataType::kI32;
  constexpr bool kDict = true;

  Table* region = catalog->CreateTable("region");
  region->AddColumn("r_regionkey", kI8);
  region->AddColumn("r_name", kI8, kDict);

  Table* nation = catalog->CreateTable("nation");
  nation->AddColumn("n_nationkey", kI8);
  nation->AddColumn("n_name", kI8, kDict);
  nation->AddColumn("n_regionkey", kI8);

  Table* supplier = catalog->CreateTable("supplier");
  supplier->AddColumn("s_suppkey", kI32);
  supplier->AddColumn("s_nationkey", kI8);
  supplier->AddColumn("s_acctbal", kI32);  // decimal

  Table* customer = catalog->CreateTable("customer");
  customer->AddColumn("c_custkey", kI32);
  customer->AddColumn("c_name", kI32, kDict);  // one code per customer
  customer->AddColumn("c_nationkey", kI8);
  customer->AddColumn("c_mktsegment", kI8, kDict);

  Table* part = catalog->CreateTable("part");
  part->AddColumn("p_partkey", kI32);
  part->AddColumn("p_brand", kI8, kDict);
  part->AddColumn("p_type", kI16, kDict);  // 150 codes
  part->AddColumn("p_size", kI8);
  part->AddColumn("p_container", kI8, kDict);
  part->AddColumn("p_retailprice", kI32);  // decimal

  Table* partsupp = catalog->CreateTable("partsupp");
  partsupp->AddColumn("ps_partkey", kI32);
  partsupp->AddColumn("ps_suppkey", kI32);
  partsupp->AddColumn("ps_availqty", kI16);
  partsupp->AddColumn("ps_supplycost", kI32);  // decimal

  Table* orders = catalog->CreateTable("orders");
  orders->AddColumn("o_orderkey", kI32);
  orders->AddColumn("o_custkey", kI32);
  orders->AddColumn("o_orderstatus", kI8, kDict);
  orders->AddColumn("o_totalprice", kI32);  // decimal
  orders->AddColumn("o_orderdate", kI16);
  orders->AddColumn("o_orderpriority", kI8, kDict);
  orders->AddColumn("o_shippriority", kI8);
  // Free-form comment text (Q13's '%special%requests%' predicate). Nearly
  // every value is distinct, so the dictionary is high-cardinality — the
  // workload that forces LIKE onto the per-row runtime-call path.
  orders->AddColumn("o_comment", kI32, kDict);

  Table* lineitem = catalog->CreateTable("lineitem");
  lineitem->AddColumn("l_orderkey", kI32);
  lineitem->AddColumn("l_partkey", kI32);
  lineitem->AddColumn("l_suppkey", kI32);
  lineitem->AddColumn("l_linenumber", kI8);
  lineitem->AddColumn("l_quantity", kI16);      // decimal
  lineitem->AddColumn("l_extendedprice", kI32);  // decimal
  lineitem->AddColumn("l_discount", kI8);        // decimal
  lineitem->AddColumn("l_tax", kI8);             // decimal
  lineitem->AddColumn("l_returnflag", kI8, kDict);
  lineitem->AddColumn("l_linestatus", kI8, kDict);
  lineitem->AddColumn("l_shipdate", kI16);
  lineitem->AddColumn("l_commitdate", kI16);
  lineitem->AddColumn("l_receiptdate", kI16);
  lineitem->AddColumn("l_shipinstruct", kI8, kDict);
  lineitem->AddColumn("l_shipmode", kI8, kDict);
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
