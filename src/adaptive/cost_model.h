#ifndef AQE_ADAPTIVE_COST_MODEL_H_
#define AQE_ADAPTIVE_COST_MODEL_H_

#include <cstdint>

#include "exec/function_handle.h"

namespace aqe {

/// Empirical parameters of the Fig 7 extrapolation. Compilation time is
/// modeled as linear in the worker function's LLVM instruction count (the
/// near-linear correlation of Fig 6); speedups are the Table II empirical
/// ratios. Defaults are calibrated for this repository's substrate and can
/// be overridden.
struct CostModelParams {
  // compile_seconds(n) = base + per_instruction * n. These are above the
  // measured compile times on purpose. The relative-error fit of
  // bench/fig06_compile_scaling (SF 0.01: 37 TPC-H pipelines of 30-155
  // instructions plus generated ones up to 5043; point-wise medians of 5
  // runs on a 4-core x86-64 VM, shared JIT session) is 1.19 ms + 2.83 us
  // unoptimized and 3.05 ms + 34.3 us optimized. Set to that fit, the
  // defaults made the controller compile earlier and lose to the static
  // modes: the benchsuite's adaptive.vs_best_static went from 0.85 to 1.04
  // on adhoc-sf0.3 and from 0.92 to 0.96 on concurrent-sf0.1 (medians of 2
  // traced runs each).
  double unopt_base_seconds = 2e-3;
  double unopt_per_instruction_seconds = 9e-6;
  double opt_base_seconds = 5e-3;
  double opt_per_instruction_seconds = 45e-6;

  /// Throughput ratios over the bytecode interpreter. The paper's Table II
  /// reports 3.6 / 5.0 against its switch-dispatch interpreter; this
  /// repository's measured geomean gap (bench/table2_execution, SF 0.05)
  /// is ~3.2 / ~3.8. The superinstruction tiers spread the per-query gap
  /// wide apart — load-compare-branch fusion and branch-chain splitting
  /// pull scan-filter shapes (Q6) to near-compiled speed, while join- and
  /// call-heavy plans keep the full compiled advantage — so the flat
  /// geomean default matters mostly as a prior. Only the runtime-call-
  /// density discount below adapts it to a plan's shape; nothing feeds a
  /// plan's measured rates back into these ratios yet.
  double unopt_speedup = 3.2;
  double opt_speedup = 3.8;

  /// Cost of one opaque runtime call relative to one straight-line LLVM
  /// instruction, for the runtime-call-density signal: a call's
  /// save/call/ret plus the C++ work behind it (hash-table probes, string
  /// matchers) dwarfs an interpreted add, and compilation cannot shrink
  /// it. Feeds RuntimeCallFraction below.
  double runtime_call_weight = 12.0;

  /// Amdahl-style discount: the fraction `call_fraction` of per-tuple time
  /// spent inside runtime calls runs at the same speed in every mode, so
  /// the effective speedup of a compiled mode over bytecode is
  ///   1 / (f + (1 - f) / s).
  /// Call-heavy pipelines (string predicates through aqe_like_match) see
  /// their compiled advantage shrink toward 1, which keeps the §III-C
  /// mode-switch decisions calibrated on workloads fusion cannot help.
  static double EffectiveSpeedup(double speedup, double call_fraction) {
    if (call_fraction <= 0) return speedup;
    if (call_fraction >= 1) return 1.0;
    return 1.0 / (call_fraction + (1.0 - call_fraction) / speedup);
  }

  double UnoptCompileSeconds(uint64_t instructions) const {
    return unopt_base_seconds +
           unopt_per_instruction_seconds * static_cast<double>(instructions);
  }
  double OptCompileSeconds(uint64_t instructions) const {
    return opt_base_seconds +
           opt_per_instruction_seconds * static_cast<double>(instructions);
  }
};

/// The three options continuously evaluated per pipeline (§III-C).
enum class Decision { kDoNothing, kCompileUnoptimized, kCompileOptimized };

/// Fig 7, verbatim: extrapolates the remaining pipeline duration under
/// (1) the current mode, (2) unoptimized and (3) optimized compilation, and
/// returns the winner.
///
///   r0 = average tuple rate per thread in the current mode
///   n  = remaining tuples, w = active worker threads
///   t0 = n / r0 / w
///   ti = ci + max(n - (w-1)*r0*ci, 0) / ri / w
///
/// (while one thread compiles for ci seconds, the other w-1 threads keep
/// processing at r0). `current_mode` generalizes the paper's bytecode-only
/// starting point: from kUnoptimized only the optimized upgrade is
/// considered, from kOptimized the answer is always kDoNothing.
/// Estimated fraction of a pipeline's per-tuple time spent inside opaque
/// runtime calls, from the worker function's loop-body IR counts
/// (IrFunctionStats.loop_instructions / loop_calls) weighted by
/// `params.runtime_call_weight`. 0 for call-free scan filters; approaches
/// 1 for call-per-row predicates like the LIKE runtime path.
double RuntimeCallFraction(uint64_t loop_instructions, uint64_t loop_calls,
                           const CostModelParams& params);

/// The extrapolated durations behind a Decision, for tracing: what the
/// model predicted for staying put and for each compile option (seconds;
/// an option that was not evaluated repeats t_current).
struct ExtrapolationBreakdown {
  double t_current = 0;
  double t_unopt = 0;
  double t_opt = 0;

  double chosen_seconds(Decision decision) const {
    switch (decision) {
      case Decision::kCompileUnoptimized: return t_unopt;
      case Decision::kCompileOptimized: return t_opt;
      default: return t_current;
    }
  }
};

/// `runtime_call_fraction` discounts both compiled speedups via
/// CostModelParams::EffectiveSpeedup before the extrapolation.
/// `breakdown`, when non-null, receives the three candidate durations.
Decision ExtrapolatePipelineDurations(double tuples_per_second_per_thread,
                                      uint64_t remaining_tuples,
                                      int active_workers,
                                      uint64_t function_instructions,
                                      ExecMode current_mode,
                                      const CostModelParams& params,
                                      double runtime_call_fraction = 0.0,
                                      ExtrapolationBreakdown* breakdown = nullptr);

}  // namespace aqe

#endif  // AQE_ADAPTIVE_COST_MODEL_H_
