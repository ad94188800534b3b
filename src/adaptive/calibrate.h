#ifndef AQE_ADAPTIVE_CALIBRATE_H_
#define AQE_ADAPTIVE_CALIBRATE_H_

#include "adaptive/cost_model.h"

namespace aqe {

/// Measures this machine's real interpreter-vs-compiled speedups on a tiny
/// scan-filter-sum kernel (translated bytecode vs unoptimized vs optimized
/// machine code of the same IR) and returns CostModelParams with the
/// measured `unopt_speedup` / `opt_speedup` in place of the hand-measured
/// 3.2 / 3.8. Compile-time coefficients keep their defaults — they already
/// come from bench/fig06_compile_scaling's linear fit.
///
/// Runs once per process (memoized, thread-safe); costs roughly the price
/// of one small optimized compilation plus a few milliseconds of kernel
/// executions.
const CostModelParams& CalibratedCostModelParams();

}  // namespace aqe

#endif  // AQE_ADAPTIVE_CALIBRATE_H_
