#ifndef AQE_OBS_REGRESSION_H_
#define AQE_OBS_REGRESSION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/function_handle.h"

namespace aqe {

/// Machine-readable "why did this query template get slower" probe, in
/// priority order (the first applicable cause wins).
enum class AnomalyCause : uint8_t {
  kUnknown = 0,
  /// The run missed the artifact cache although its plan had run before:
  /// the entry was evicted, so the slowdown is re-translation /
  /// re-compilation.
  kCacheEvicted = 1,
  /// The run finished in a slower ExecMode than the best this fingerprint
  /// has reached (e.g. the adaptive controller never re-upgraded).
  kModeRegressed = 2,
  /// Admission/queue wait exceeded the service time itself: load, not the
  /// plan, dominated the latency.
  kQueueWait = 3,
  /// Peak memory blew past the fingerprint's baseline by 4x: the slowdown
  /// tracks allocation churn (hash-table growth, spill-scale buffering).
  kMemoryBlowup = 4,
};
/// The size of an array indexed by AnomalyCause.
constexpr int kNumAnomalyCauses = 5;
static_assert(static_cast<int>(AnomalyCause::kMemoryBlowup) <
              kNumAnomalyCauses, "the last cause must index inside");

const char* AnomalyCauseName(AnomalyCause cause);

struct AnomalyRecord {
  uint64_t fingerprint = 0;  ///< ArtifactCacheKey of the plan
  uint32_t query_id = 0;
  int64_t nanos = 0;  ///< MonotonicNanos at detection
  AnomalyCause cause = AnomalyCause::kUnknown;
  double expected_ms = 0;  ///< the fingerprint's EWMA before this run
  double observed_ms = 0;  ///< this run's service time
  double queue_wait_ms = 0;
  uint64_t expected_peak_bytes = 0;  ///< peak-memory EWMA before this run
  uint64_t observed_peak_bytes = 0;  ///< this run's tracked peak
  std::string plan_name;
};

/// What one plan's runs have cost: the single per-plan record that the
/// regression sentinel and Submit's memory-budget check (its peak) read.
/// Exists only once a run has been folded in (runs >= 1).
struct PlanStats {
  double ewma_ms = 0;  ///< service time, queue wait excluded
  double mad_ms = 0;   ///< EWMA of |deviation| (MAD-style, same alpha)
  double ewma_peak_bytes = 0;  ///< tracked peak memory
  uint64_t runs = 0;
  ExecMode best_mode = ExecMode::kBytecode;
};

/// Per-plan record keeper and latency sentinel. Keeps one PlanStats per
/// cache key (ArtifactCacheKey), independent of whether the plan's
/// artifacts are still resident, in an LRU bounded at kMaxPlans. Flags a
/// completed run as anomalous when it deviates from its record by a
/// configurable factor, and names the cause; a run that missed the cache
/// although its plan has a record was evicted. All methods are
/// thread-safe, one mutex acquisition each — noise next to a query's
/// admission bookkeeping.
class RegressionTracker {
 public:
  /// What the engine reports per completed query.
  struct Observation {
    uint64_t fingerprint = 0;
    uint32_t query_id = 0;
    double service_ms = 0;
    double queue_wait_ms = 0;
    /// Fastest final mode across the query's pipelines this run.
    ExecMode final_mode = ExecMode::kBytecode;
    /// Tracked peak memory of this run (0 when accounting is off).
    uint64_t peak_bytes = 0;
    /// The run re-created its plan's cache entry (ArtifactCache::Intern)
    /// after the plan had run: the entry was evicted.
    bool cache_miss = false;
    std::string plan_name;
  };

  static constexpr uint64_t kMinRuns = 3;       ///< runs before flagging
  static constexpr double kMadFloorMs = 0.25;   ///< deviation guard floor
  static constexpr size_t kRecentAnomalies = 64;
  static constexpr size_t kMaxPlans = 4096;  ///< records kept (LRU)

  explicit RegressionTracker(double deviation_factor = 4.0);

  /// Folds one completed run into the plan's record. Returns true (and
  /// fills `anomaly`, which may be null) when the run deviates: service >
  /// factor x EWMA *and* beyond 4 x the MAD guard, after at least kMinRuns
  /// prior runs. The anomalous sample still updates the record, so a
  /// persistent shift becomes the new normal instead of alerting forever.
  bool Observe(Observation obs, AnomalyRecord* anomaly);

  /// Folds a run the memory budget killed: its service time and peak are
  /// lower bounds, and the peak (already over budget) must not be diluted
  /// below what was observed. No cause probe runs.
  void ObserveBudgetFailure(uint64_t fingerprint, double service_ms,
                            uint64_t peak_bytes);

  /// The plan's record, or nullopt when it has none (never completed, or
  /// aged out of the LRU). Counts as a use for the LRU.
  std::optional<PlanStats> Lookup(uint64_t fingerprint);

  size_t plan_count() const;

  std::vector<AnomalyRecord> RecentAnomalies() const;
  /// Completed runs folded in by Observe since the last ResetAnomalies.
  uint64_t observed_runs() const { return observed_runs_.load(); }

  void set_deviation_factor(double factor);

  /// Test seam: the next Observe calls take these service times, in order,
  /// in place of the measured ones (recorded times instead of live timing).
  void ReplayServiceTimes(const std::vector<double>& service_ms);

  /// Clears the anomaly ring and the run counter. Records
  /// persist: they describe the workload, not a measurement phase
  /// (phase-delta hygiene resets counters, not state).
  void ResetAnomalies();

 private:
  struct Plan {
    PlanStats stats;
    std::list<uint64_t>::iterator lru_pos;
  };

  /// The record for `fingerprint`, created empty if absent, moved to the
  /// LRU front; creating one past kMaxPlans drops the least recent.
  PlanStats& TouchLocked(uint64_t fingerprint);

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Plan> plans_;
  std::list<uint64_t> lru_;  ///< keys, most recent first
  std::deque<AnomalyRecord> recent_;
  std::deque<double> replay_ms_;  ///< see ReplayServiceTimes
  std::atomic<uint64_t> observed_runs_{0};
  double factor_;
};

}  // namespace aqe

#endif  // AQE_OBS_REGRESSION_H_
