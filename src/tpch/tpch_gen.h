#ifndef AQE_TPCH_TPCH_GEN_H_
#define AQE_TPCH_TPCH_GEN_H_

#include <cstdint>

#include "storage/table.h"

namespace aqe::tpch {

/// Populates an empty TPC-H schema (see CreateTpchSchema) with deterministic
/// synthetic data at scale factor `sf`. Distributions follow the TPC-H spec
/// closely enough that the selectivities of the implemented queries match
/// (see DESIGN.md). The same (sf, seed) always produces identical data.
/// Keys and decimals are stored in 32-bit columns, which bounds `sf` at 357
/// (o_orderkey reaches about 6 M x sf); a larger value fails a CHECK.
void GenerateTpchData(Catalog* catalog, double sf, uint64_t seed = 19940801);

/// Convenience: CreateTpchSchema + GenerateTpchData.
void BuildTpchDatabase(Catalog* catalog, double sf, uint64_t seed = 19940801);

}  // namespace aqe::tpch

#endif  // AQE_TPCH_TPCH_GEN_H_
