#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace aqe {

namespace {

int Log2Floor(uint64_t v) {
  int log = 0;
  while (v >>= 1) ++log;
  return log;
}

}  // namespace

int Histogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) return static_cast<int>(value);
  const int octave = Log2Floor(value);
  const int sub = static_cast<int>((value - (uint64_t{1} << octave)) >>
                                   (octave - kSubBucketBits));
  return (octave - kSubBucketBits + 1) * kSubBuckets + sub;
}

uint64_t Histogram::BucketLowerBound(int bucket) {
  if (bucket < kSubBuckets) return static_cast<uint64_t>(bucket);
  const int octave = (bucket >> kSubBucketBits) + kSubBucketBits - 1;
  const uint64_t sub = static_cast<uint64_t>(bucket & (kSubBuckets - 1));
  return (uint64_t{1} << octave) + (sub << (octave - kSubBucketBits));
}

uint64_t Histogram::BucketUpperBound(int bucket) {
  if (bucket + 1 >= kBuckets) return UINT64_MAX;
  return BucketLowerBound(bucket + 1);
}

void Histogram::Record(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t cur = max_.load(std::memory_order_relaxed);
  while (cur < value && !max_.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  uint64_t buckets[kBuckets];
  uint64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) {
    buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    total += buckets[b];
  }
  HistogramSnapshot snap;
  snap.count = total;
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  if (total == 0) return snap;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets[b] != 0) {
      snap.buckets.emplace_back(BucketUpperBound(b), buckets[b]);
    }
  }

  // Percentiles by linear interpolation inside the log-linear bucket that
  // crosses the target rank; the top percentile clamps to the exact max.
  auto percentile = [&](double p) -> double {
    const double target = p * static_cast<double>(total);
    uint64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
      if (buckets[b] == 0) continue;
      const double before = static_cast<double>(cum);
      cum += buckets[b];
      if (static_cast<double>(cum) < target) continue;
      const double lower = static_cast<double>(BucketLowerBound(b));
      const double upper =
          std::min(static_cast<double>(BucketUpperBound(b)),
                   static_cast<double>(snap.max) + 1.0);
      const double frac =
          (target - before) / static_cast<double>(buckets[b]);
      return std::min(lower + frac * (upper - lower),
                      static_cast<double>(snap.max));
    }
    return static_cast<double>(snap.max);
  };
  snap.p50 = percentile(0.50);
  snap.p95 = percentile(0.95);
  snap.p99 = percentile(0.99);
  return snap;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

uint64_t MetricsSnapshot::counter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    const std::string& name) const {
  for (const auto& [n, h] : histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  char buf[256];
  bool first = true;
  for (const auto& [name, v] : counters) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", first ? "" : ",",
                  name.c_str(), static_cast<unsigned long long>(v));
    out += buf;
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%lld", first ? "" : ",",
                  name.c_str(), static_cast<long long>(v));
    out += buf;
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    // Never-recorded series stay out of exports (they still appear in the
    // in-memory Snapshot so callers can probe them by name).
    if (h.count == 0) continue;
    std::snprintf(
        buf, sizeof(buf),
        "%s\"%s\":{\"count\":%llu,\"sum\":%llu,\"max\":%llu,"
        "\"mean\":%.3f,\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f,"
        "\"buckets\":[",
        first ? "" : ",", name.c_str(),
        static_cast<unsigned long long>(h.count),
        static_cast<unsigned long long>(h.sum),
        static_cast<unsigned long long>(h.max), h.mean(), h.p50, h.p95,
        h.p99);
    out += buf;
    bool first_bucket = true;
    for (const auto& [upper, n] : h.buckets) {
      std::snprintf(buf, sizeof(buf), "%s[%llu,%llu]",
                    first_bucket ? "" : ",",
                    static_cast<unsigned long long>(upper),
                    static_cast<unsigned long long>(n));
      out += buf;
      first_bucket = false;
    }
    out += "]}";
    first = false;
  }
  out += "}}";
  return out;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->Snapshot());
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) c->Reset();
  for (const auto& [name, h] : histograms_) h->Reset();
}

}  // namespace aqe
