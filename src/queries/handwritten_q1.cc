#include "queries/handwritten_q1.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/fixed_point.h"
#include "runtime/sorter.h"
#include "tpch/tpch_schema.h"

namespace aqe {

std::vector<std::vector<int64_t>> HandwrittenQ1(const Catalog& catalog) {
  const Table* li = catalog.GetTable("lineitem");
  // Decimals are stored as int32 cents; each is widened to int64 on load,
  // since price * (100 - disc) * (100 + tax) overflows 32 bits.
  const auto* qty = static_cast<const int32_t*>(li->column("l_quantity").data());
  const auto* price =
      static_cast<const int32_t*>(li->column("l_extendedprice").data());
  const auto* disc = static_cast<const int32_t*>(li->column("l_discount").data());
  const auto* tax = static_cast<const int32_t*>(li->column("l_tax").data());
  const auto* rf = static_cast<const int32_t*>(li->column("l_returnflag").data());
  const auto* ls = static_cast<const int32_t*>(li->column("l_linestatus").data());
  const auto* sd = static_cast<const int32_t*>(li->column("l_shipdate").data());
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
