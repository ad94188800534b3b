#ifndef AQE_OBS_METRICS_H_
#define AQE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace aqe {

/// Monotonic atomic counter. Hot paths hold the pointer returned by
/// MetricsRegistry::GetCounter and Add() lock-free.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// What a histogram reports: percentiles interpolated from the log-linear
/// buckets (no samples stored), plus exact count/sum/max and the non-empty
/// buckets themselves (ascending upper bound, per-bucket count — the
/// Prometheus exposition and ToJson serialize these).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  /// (exclusive upper bound, count) for every bucket with count > 0,
  /// ascending. Counts sum to `count`.
  std::vector<std::pair<uint64_t, uint64_t>> buckets;

  double mean() const {
    return count == 0 ? 0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Log-linear latency histogram: each power-of-two octave splits into
/// 2^kSubBucketBits linear sub-buckets, so a bucket's width is at most
/// 1/2^kSubBucketBits of its value (12.5% at the default 3 bits) and
/// p50/p95/p99 interpolate to a few percent without storing samples.
/// Record() is wait-free: one bucket fetch_add, count/sum fetch_adds and a
/// CAS-loop max. Values are unit-agnostic; by convention registry names
/// carry the unit suffix (`_us`).
class Histogram {
 public:
  static constexpr int kSubBucketBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  /// Octaves [kSubBucketBits, 64) plus the exact small-value range.
  static constexpr int kBuckets = (64 - kSubBucketBits + 1) * kSubBuckets;

  void Record(uint64_t value);

  HistogramSnapshot Snapshot() const;
  void Reset();

  /// Bucket mapping, exposed for tests: BucketLowerBound(BucketIndex(v))
  /// <= v < BucketUpperBound(BucketIndex(v)).
  static int BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(int bucket);
  static uint64_t BucketUpperBound(int bucket);

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// One registry snapshot: every metric by name, ready for JSON or asserts.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  uint64_t counter(const std::string& name) const;
  const HistogramSnapshot* histogram(const std::string& name) const;

  /// Machine-readable dump:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,...}}}.
  std::string ToJson() const;
};

/// Name -> metric registry. Get* registers on first sight and returns a
/// stable pointer (metrics are never removed), so subsystems resolve their
/// metrics once and update lock-free; the mutex guards only registration
/// and snapshotting.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every counter and histogram. Phase-delta hygiene for benches;
  /// concurrent updates during a reset land in the new phase.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace aqe

#endif  // AQE_OBS_METRICS_H_
