#include "adaptive/cost_model.h"

#include <algorithm>

namespace aqe {

double RuntimeCallFraction(uint64_t loop_instructions, uint64_t loop_calls,
                           const CostModelParams& params) {
  if (loop_calls == 0 || loop_instructions == 0) return 0;
  const double calls = static_cast<double>(loop_calls);
  const double plain = static_cast<double>(
      loop_instructions > loop_calls ? loop_instructions - loop_calls : 0);
  const double weighted = calls * params.runtime_call_weight;
  return weighted / (plain + weighted);
}

Decision ExtrapolatePipelineDurations(double tuples_per_second_per_thread,
                                      uint64_t remaining_tuples,
                                      int active_workers,
                                      uint64_t function_instructions,
                                      ExecMode current_mode,
                                      const CostModelParams& params,
                                      double runtime_call_fraction,
                                      ExtrapolationBreakdown* breakdown) {
  if (breakdown != nullptr) *breakdown = {};
  if (current_mode == ExecMode::kOptimized) return Decision::kDoNothing;
  if (remaining_tuples == 0 || tuples_per_second_per_thread <= 0) {
    return Decision::kDoNothing;
  }
  const double r0 = tuples_per_second_per_thread;
  const double n = static_cast<double>(remaining_tuples);
  const double w = static_cast<double>(std::max(1, active_workers));

  // Call-heavy pipelines spend a fixed fraction of per-tuple time inside
  // runtime functions; compilation only accelerates the rest.
  const double s1 = CostModelParams::EffectiveSpeedup(params.unopt_speedup,
                                                      runtime_call_fraction);
  const double s2 = CostModelParams::EffectiveSpeedup(params.opt_speedup,
                                                      runtime_call_fraction);

  // Speedups are defined relative to bytecode; rescale to the current mode.
  const double current_factor =
      current_mode == ExecMode::kBytecode ? 1.0 : s1;

  const double t0 = n / r0 / w;

  double t1 = t0;
  if (current_mode == ExecMode::kBytecode) {
    const double c1 = params.UnoptCompileSeconds(function_instructions);
    const double r1 = r0 * (s1 / current_factor);
    t1 = c1 + std::max(n - (w - 1) * r0 * c1, 0.0) / r1 / w;
  }

  const double c2 = params.OptCompileSeconds(function_instructions);
  const double r2 = r0 * (s2 / current_factor);
  const double t2 = c2 + std::max(n - (w - 1) * r0 * c2, 0.0) / r2 / w;

  if (breakdown != nullptr) *breakdown = {t0, t1, t2};

  if (t0 <= t1 && t0 <= t2) return Decision::kDoNothing;
  if (t1 <= t2) {
    return current_mode == ExecMode::kBytecode ? Decision::kCompileUnoptimized
                                               : Decision::kDoNothing;
  }
  return Decision::kCompileOptimized;
}

}  // namespace aqe
