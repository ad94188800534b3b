#include "queries/handwritten_q1.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <type_traits>

#include "common/fixed_point.h"
#include "runtime/sorter.h"
#include "tpch/tpch_schema.h"

namespace aqe {
namespace {

/// The values of a lineitem column at the width this query is written for;
/// CHECK-fails (through the width dispatcher) if the schema stores the
/// column at another width.
template <typename T>
const T* ColumnAs(const Table& table, const char* name) {
  return VisitIntColumn(table.column(name), [](const auto* values) {
    if constexpr (std::is_same_v<decltype(values), const T*>) {
      return values;
    } else {
      AQE_UNREACHABLE("column width differs from the hand-written Q1");
      return static_cast<const T*>(nullptr);
    }
  });
}

}  // namespace

std::vector<std::vector<int64_t>> HandwrittenQ1(const Catalog& catalog) {
  const Table* li = catalog.GetTable("lineitem");
  // Decimals are stored as 8- to 32-bit cents; each is widened to int64 on
  // load, since price * (100 - disc) * (100 + tax) overflows 32 bits.
  const auto* qty = ColumnAs<int16_t>(*li, "l_quantity");
  const auto* price = ColumnAs<int32_t>(*li, "l_extendedprice");
  const auto* disc = ColumnAs<int8_t>(*li, "l_discount");
  const auto* tax = ColumnAs<int8_t>(*li, "l_tax");
  const auto* rf = ColumnAs<int8_t>(*li, "l_returnflag");
  const auto* ls = ColumnAs<int8_t>(*li, "l_linestatus");
  const auto* sd = ColumnAs<int16_t>(*li, "l_shipdate");
  const uint64_t rows = li->num_rows();
  const int32_t cutoff = tpch::DateToDays(1998, 9, 2);

  struct Group {
    int64_t sum_qty = 0;
    int64_t sum_price = 0;
    int64_t sum_disc_price = 0;
    int64_t sum_charge = 0;
    int64_t sum_disc = 0;
    int64_t count = 0;
  };
  // At most 3*2 groups; a tiny dense map mirrors what a human would write.
  Group groups[3 * 4] = {};
  for (uint64_t i = 0; i < rows; ++i) {
    if (sd[i] > cutoff) continue;
    Group& g = groups[rf[i] * 4 + ls[i]];
    const int64_t q = qty[i];
    const int64_t p = price[i];
    const int64_t d = disc[i];
    const int64_t t = tax[i];
    g.sum_qty += q;
    g.sum_price += p;
    int64_t disc_price = p * (100 - d);
    g.sum_disc_price += disc_price;
    g.sum_charge += disc_price * (100 + t);
    g.sum_disc += d;
    g.count += 1;
  }

  auto bits = [](double d) {
    int64_t b;
    std::memcpy(&b, &d, 8);
    return b;
  };
  std::vector<std::vector<int64_t>> result;
  for (int key = 0; key < 12; ++key) {
    const Group& g = groups[key];
    if (g.count == 0) continue;
    result.push_back(
        {key / 4, key % 4, g.sum_qty, g.sum_price, g.sum_disc_price,
         g.sum_charge,
         bits(static_cast<double>(g.sum_qty) / kDecimalScale / g.count),
         bits(static_cast<double>(g.sum_price) / kDecimalScale / g.count),
         bits(static_cast<double>(g.sum_disc) / kDecimalScale / g.count),
         g.count});
  }
  SortRows(&result, {{0, false, false}, {1, false, false}});
  return result;
}

}  // namespace aqe
