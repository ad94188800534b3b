#include "obs/regression.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"

namespace aqe {

namespace {

/// The one EWMA weight of every per-plan number: tracks drift (cache
/// warming, data growth) while smoothing scheduler noise.
constexpr double kEwmaAlpha = 0.3;

double Blend(double sample, double ewma) {
  return kEwmaAlpha * sample + (1 - kEwmaAlpha) * ewma;
}

/// The one fold of a run into its record. A budget-killed run's peak is a
/// lower bound, so the blend may not fall below it.
void Fold(PlanStats* s, double service_ms, uint64_t peak_bytes,
          bool peak_is_lower_bound) {
  const double peak = static_cast<double>(peak_bytes);
  if (s->runs == 0) {
    s->ewma_ms = service_ms;
    s->ewma_peak_bytes = peak;
  } else {
    const double abs_dev = std::fabs(service_ms - s->ewma_ms);
    s->mad_ms = s->runs == 1 ? abs_dev : Blend(abs_dev, s->mad_ms);
    s->ewma_ms = Blend(service_ms, s->ewma_ms);
    s->ewma_peak_bytes = Blend(peak, s->ewma_peak_bytes);
    if (peak_is_lower_bound) {
      s->ewma_peak_bytes = std::max(peak, s->ewma_peak_bytes);
    }
  }
  ++s->runs;
}

}  // namespace

const char* AnomalyCauseName(AnomalyCause cause) {
  switch (cause) {
    case AnomalyCause::kCacheEvicted: return "cache-evicted";
    case AnomalyCause::kModeRegressed: return "mode-regressed";
    case AnomalyCause::kQueueWait: return "queue-wait";
    case AnomalyCause::kMemoryBlowup: return "memory-blowup";
    default: return "unknown";
  }
}

RegressionTracker::RegressionTracker(double deviation_factor)
    : factor_(deviation_factor) {}

PlanStats& RegressionTracker::TouchLocked(uint64_t fingerprint) {
  auto it = plans_.find(fingerprint);
  if (it != plans_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.stats;
  }
  if (plans_.size() >= kMaxPlans) {
    plans_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(fingerprint);
  return plans_.emplace(fingerprint, Plan{PlanStats{}, lru_.begin()})
      .first->second.stats;
}

bool RegressionTracker::Observe(Observation obs, AnomalyRecord* anomaly) {
  std::lock_guard<std::mutex> lock(mu_);
  ++observed_runs_;
  if (!replay_ms_.empty()) {
    obs.service_ms = replay_ms_.front();
    replay_ms_.pop_front();
  }
  PlanStats& t = TouchLocked(obs.fingerprint);

  bool flagged = false;
  AnomalyRecord rec;
  if (t.runs >= kMinRuns) {
    // Deviation test against the *pre-update* baseline: a factor over the
    // EWMA (relative) and a multiple of the MAD estimate (absolute guard
    // so microsecond-scale noise on fast plans never alerts).
    const double dev = obs.service_ms - t.ewma_ms;
    const double guard = 4.0 * std::max(t.mad_ms, kMadFloorMs);
    if (obs.service_ms > factor_ * t.ewma_ms && dev > guard) {
      flagged = true;
      rec.fingerprint = obs.fingerprint;
      rec.query_id = obs.query_id;
      rec.nanos = MonotonicNanos();
      rec.expected_ms = t.ewma_ms;
      rec.observed_ms = obs.service_ms;
      rec.queue_wait_ms = obs.queue_wait_ms;
      rec.expected_peak_bytes = static_cast<uint64_t>(t.ewma_peak_bytes);
      rec.observed_peak_bytes = obs.peak_bytes;
      rec.plan_name = obs.plan_name;
      // kPeakFloorBytes keeps KiB-scale jitter on small plans from being
      // named a blowup; the baseline must also have real support.
      constexpr double kPeakFloorBytes = 1 << 20;
      if (obs.cache_miss) {
        rec.cause = AnomalyCause::kCacheEvicted;
      } else if (t.ewma_peak_bytes > 0 &&
                 static_cast<double>(obs.peak_bytes) >
                     4.0 * t.ewma_peak_bytes &&
                 static_cast<double>(obs.peak_bytes) > kPeakFloorBytes) {
        rec.cause = AnomalyCause::kMemoryBlowup;
      } else if (obs.final_mode < t.best_mode) {
        rec.cause = AnomalyCause::kModeRegressed;
      } else if (obs.queue_wait_ms > obs.service_ms) {
        rec.cause = AnomalyCause::kQueueWait;
      } else {
        rec.cause = AnomalyCause::kUnknown;
      }
    }
  }

  // Fold the sample in (anomalous ones too: a persistent shift converges
  // to the new normal instead of alerting on every run).
  Fold(&t, obs.service_ms, obs.peak_bytes, /*peak_is_lower_bound=*/false);
  t.best_mode = std::max(t.best_mode, obs.final_mode);

  if (flagged) {
    recent_.push_back(rec);
    if (recent_.size() > kRecentAnomalies) recent_.pop_front();
    if (anomaly != nullptr) *anomaly = std::move(rec);
  }
  return flagged;
}

void RegressionTracker::ObserveBudgetFailure(uint64_t fingerprint,
                                             double service_ms,
                                             uint64_t peak_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  Fold(&TouchLocked(fingerprint), service_ms, peak_bytes,
       /*peak_is_lower_bound=*/true);
}

std::optional<PlanStats> RegressionTracker::Lookup(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  if (plans_.find(fingerprint) == plans_.end()) return std::nullopt;
  return TouchLocked(fingerprint);
}

size_t RegressionTracker::plan_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

std::vector<AnomalyRecord> RegressionTracker::RecentAnomalies() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {recent_.begin(), recent_.end()};
}

void RegressionTracker::set_deviation_factor(double factor) {
  std::lock_guard<std::mutex> lock(mu_);
  factor_ = factor;
}

void RegressionTracker::ReplayServiceTimes(
    const std::vector<double>& service_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  replay_ms_.assign(service_ms.begin(), service_ms.end());
}

void RegressionTracker::ResetAnomalies() {
  std::lock_guard<std::mutex> lock(mu_);
  recent_.clear();
  observed_runs_ = 0;
}

}  // namespace aqe
