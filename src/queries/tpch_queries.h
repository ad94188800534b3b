#ifndef AQE_QUERIES_TPCH_QUERIES_H_
#define AQE_QUERIES_TPCH_QUERIES_H_

#include <string>
#include <vector>

#include "plan/plan.h"

namespace aqe {

/// Builds the physical QueryProgram for a TPC-H query against `catalog`
/// (dictionary codes and predicate bitmaps are resolved at build time —
/// this is the paper's "Planning + Code Generation" input). Implemented
/// queries: 1, 3, 4, 5, 6, 7, 9, 10, 11, 12, 14, 18, 19 (see DESIGN.md).
QueryProgram BuildTpchQuery(int number, const Catalog& catalog);

/// The implemented query numbers, ascending.
const std::vector<int>& ImplementedTpchQueries();

/// The literals of TPC-H Q6's filter. Variants that differ only here share
/// a plan fingerprint (and with it the cached bytecode, which reads the
/// literals from the binding array) with the standard Q6 — the repeated-query workload's parameterized
/// query.
struct TpchQ6Literals {
  int64_t ship_date_lo;  ///< days since 1970-01-01, inclusive
  int64_t ship_date_hi;  ///< exclusive
  int64_t discount_lo;   ///< hundredths, inclusive
  int64_t discount_hi;   ///< inclusive
  int64_t quantity_limit;  ///< hundredths, exclusive
};

/// The standard Q6 parameters (1994, discount 5..7, quantity < 24).
TpchQ6Literals DefaultQ6Literals();

/// Q6 with substituted literals; BuildTpchQuery(6, ...) ==
/// BuildTpchQ6Variant(catalog, DefaultQ6Literals()).
QueryProgram BuildTpchQ6Variant(const Catalog& catalog,
                                const TpchQ6Literals& literals);

/// Q14 with the p_type LIKE pattern replaced ("PROMO%" is the standard
/// query). Prefix patterns lower to code-range literals on the sorted
/// dictionary, so variants share q14's plan fingerprint and its cached
/// bytecode — the string-pattern analogue of the Q6 literal
/// variants.
QueryProgram BuildTpchQ14Variant(const Catalog& catalog,
                                 const std::string& type_pattern);

/// Q18 with HAVING sum(l_quantity) > `min_quantity` (300 is the standard
/// query). The bound is an engine-step literal, so variants share every
/// cached pipeline artifact of q18.
QueryProgram BuildTpchQ18Variant(const Catalog& catalog, int64_t min_quantity);

}  // namespace aqe

#endif  // AQE_QUERIES_TPCH_QUERIES_H_
