#ifndef AQE_OBS_PIPELINE_REPORT_H_
#define AQE_OBS_PIPELINE_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exec/function_handle.h"
#include "index/access_path.h"

namespace aqe {

/// Per-(pipeline, ExecMode) execution summary, counted exactly on the
/// PipelineRun: how many morsels/tuples ran in that mode, the summed
/// per-morsel busy time across all workers, and the wall time the
/// pipeline's handle held the mode (including a blocking compile that ran
/// while it held it). A pipeline's modes partition its tuples and its
/// exec_seconds.
struct ModeSliceProfile {
  ExecMode mode = ExecMode::kBytecode;
  uint64_t morsels = 0;
  uint64_t tuples = 0;
  double busy_seconds = 0;
  double wall_seconds = 0;

  double tuples_per_sec() const {
    return busy_seconds > 0 ? static_cast<double>(tuples) / busy_seconds : 0;
  }
};

/// One §III-C decision that chose a compile, with the extrapolation's
/// inputs and — filled in when the pipeline drains — the realized time from
/// the decision to pipeline completion. The prediction-vs-realized audit
/// trail EXPLAIN ANALYZE renders; unlike the kModeSwitch ring event this is
/// carried on the run itself, so it survives ring overwrites.
struct ModeSwitchRecord {
  ExecMode target = ExecMode::kUnoptimized;
  int64_t decision_nanos = 0;    ///< MonotonicNanos at the decision
  double r0 = 0;                 ///< observed rate [tuples/s/thread]
  uint64_t remaining_tuples = 0;
  double t_current_seconds = 0;  ///< extrapolated: stay in current mode
  double t_chosen_seconds = 0;   ///< extrapolated: switch (T(chosen))
  double realized_seconds = 0;   ///< decision -> pipeline end (actual)

  /// Signed prediction error relative to the prediction: +x% means the
  /// switch ran x% slower than the extrapolation promised.
  double error_pct() const {
    return t_chosen_seconds > 0 ? (realized_seconds - t_chosen_seconds) /
                                      t_chosen_seconds * 100.0
                                : 0;
  }
};

/// Per-pipeline execution report: what the engine returns per pipeline in
/// QueryRunResult and what EXPLAIN ANALYZE renders. On every engine the
/// pipeline's PipelineRun writes the execution fields (exec and exec-only
/// seconds, initial and final mode, compiles, mode switches, modes, helper
/// busy time); the engine writes the rest.
struct PipelineReport {
  std::string name;
  /// The plan's pipeline index — what morsel trace events carry as
  /// pipeline_id (report order is stage order, which may differ).
  uint32_t pipeline_index = 0;
  uint64_t tuples = 0;
  uint64_t instructions = 0;       ///< LLVM instructions of the worker
  double codegen_millis = 0;       ///< IR generation
  double translate_millis = 0;     ///< bytecode translation (§IV-B)
  uint32_t register_file_bytes = 0;
  double exec_seconds = 0;         ///< pipeline wall time (incl. switches)
  /// exec_seconds minus compile time that blocked the pipeline's controller
  /// thread — pure execution, comparable between cold runs and cache hits.
  double exec_only_seconds = 0;
  /// Morsel time of every participant but the controller (the query's own
  /// thread): what the pipeline adds to the query's on_cpu_seconds.
  double helper_busy_seconds = 0;
  /// Mode of the first morsel: kBytecode on a cold adaptive start, the best
  /// cached mode when the artifact cache seeded the pipeline's handle.
  ExecMode initial_mode = ExecMode::kBytecode;
  ExecMode final_mode = ExecMode::kBytecode;
  bool artifact_cache_hit = false;  ///< bytecode or machine code reused
  std::vector<std::pair<ExecMode, double>> compiles;  ///< mode switches
  /// §III-C compile decisions with predicted vs realized durations
  /// (adaptive runs; empty otherwise).
  std::vector<ModeSwitchRecord> mode_switches;
  /// Scan-pruning outcome (access path chosen, rows/blocks pruned,
  /// posting-list work). `pruning.analyzed` is false when the source table
  /// has no indexes or pruning was disabled; `tuples` above is the
  /// *scheduled* (post-pruning) row count.
  PruningStats pruning;
  /// The per-fingerprint pruning decision was reused from the artifact
  /// cache instead of re-analyzed.
  bool pruning_cache_hit = false;
  /// Every mode the pipeline ran in, in ExecMode order (a baseline's one
  /// worker runs in the first, kBytecode).
  std::vector<ModeSliceProfile> modes;
};

}  // namespace aqe

#endif  // AQE_OBS_PIPELINE_REPORT_H_
