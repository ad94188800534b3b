#ifndef AQE_OBS_TRACER_H_
#define AQE_OBS_TRACER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/trace_ring.h"

namespace aqe {

/// A tracer's full event state at one moment: every non-empty lane with its
/// retained events (oldest first) plus drop accounting, and the timeline
/// origin the exporters subtract. `recorded` counts events *offered* to the
/// lane; `dropped = dropped_sampled + dropped_lost` splits what didn't
/// survive into deliberate pressure sampling of bulk events vs genuine
/// loss of lossless-class events (the CI gate requires the latter be 0).
struct TraceSnapshot {
  struct Lane {
    int lane = 0;
    uint64_t recorded = 0;
    uint64_t dropped = 0;
    uint64_t dropped_sampled = 0;
    uint64_t dropped_lost = 0;
    std::vector<TraceEvent> events;
  };
  int64_t origin_nanos = 0;
  std::vector<Lane> lanes;

  uint64_t total_recorded() const {
    uint64_t n = 0;
    for (const Lane& l : lanes) n += l.recorded;
    return n;
  }
  uint64_t total_dropped() const {
    uint64_t n = 0;
    for (const Lane& l : lanes) n += l.dropped;
    return n;
  }
  uint64_t total_dropped_sampled() const {
    uint64_t n = 0;
    for (const Lane& l : lanes) n += l.dropped_sampled;
    return n;
  }
  uint64_t total_dropped_lost() const {
    uint64_t n = 0;
    for (const Lane& l : lanes) n += l.dropped_lost;
    return n;
  }
};

/// Always-on, per-thread trace recorder: per scheduler worker a *pair* of
/// single-producer TraceRings, allocated lazily on a lane's first event so
/// idle lanes cost one atomic pointer. Record() is the hot path — callers
/// pass their own worker index as the lane and must be that lane's only
/// producer (worker indices are unique per live thread, so engine call
/// sites satisfy this by construction).
///
/// The pair splits the event vocabulary by loss tolerance:
///  - **bulk** (kMorsel, kTaskSlice): the high-frequency classes that
///    saturate rings under load. Once the bulk ring has wrapped, further
///    bulk events are sampled 1-in-kBulkSampleEvery; skipped events and
///    bulk-ring overwrites count as `dropped_sampled` — a deliberate,
///    accounted decimation, not data loss.
///  - **critical** (everything else: admission waits, mode switches,
///    compiles, cache traffic, anomalies, query/pipeline markers): sized
///    at max(kMinCriticalEvents, bulk/4) and kept lossless by sizing;
///    overwrites there count as `dropped_lost`, which obs_test's
///    ConcurrentQueriesRecordSafely holds at 0.
class EngineTracer {
 public:
  static constexpr int kMaxLanes = 64;
  static constexpr size_t kDefaultRingEvents = 4096;
  static constexpr uint64_t kBulkSampleEvery = 8;
  static constexpr size_t kMinCriticalEvents = 256;

  /// `ring_capacity` = bulk events retained per lane; 0 selects the
  /// AQE_TRACE_RING_EVENTS env override or the default. The critical ring
  /// gets max(kMinCriticalEvents, ring_capacity / 4).
  explicit EngineTracer(size_t ring_capacity = 0);

  EngineTracer(const EngineTracer&) = delete;
  EngineTracer& operator=(const EngineTracer&) = delete;
  ~EngineTracer();

  /// Records into `lane`'s ring pair (caller must be the lane's single
  /// producer; out-of-range lanes clamp to 0).
  void Record(int lane, const TraceEvent& event);

  /// Steady-clock origin (construction / last Reset); exporters emit
  /// timestamps relative to it.
  int64_t origin_nanos() const {
    return origin_nanos_.load(std::memory_order_relaxed);
  }

  /// Clears every lane and restarts the timeline. Quiescent producers
  /// only.
  void Reset();

  TraceSnapshot Snapshot() const;

  uint64_t total_recorded() const;
  uint64_t total_dropped() const;
  uint64_t total_dropped_sampled() const;
  uint64_t total_dropped_lost() const;

  /// Per-lane record/drop counters without copying events — cheap enough
  /// for every ObservabilitySnapshot(). Only allocated lanes appear.
  struct LaneStats {
    int lane = 0;
    uint64_t recorded = 0;
    uint64_t dropped = 0;
    uint64_t dropped_sampled = 0;
    uint64_t dropped_lost = 0;
  };
  std::vector<LaneStats> lane_stats() const;

 private:
  /// One lane's ring pair plus the offered/sampling accounting. The
  /// counters are written by the lane's single producer and read by
  /// snapshots from any thread, hence atomic with relaxed ordering.
  struct LaneRings {
    LaneRings(size_t bulk_capacity, size_t critical_capacity)
        : bulk(bulk_capacity), critical(critical_capacity) {}
    TraceRing bulk;
    TraceRing critical;
    std::atomic<uint64_t> offered{0};        ///< every event Record()ed
    std::atomic<uint64_t> sampled_seq{0};    ///< bulk events under pressure
    std::atomic<uint64_t> sampled_skips{0};  ///< bulk events decimated away

    uint64_t dropped_sampled() const {
      return sampled_skips.load(std::memory_order_relaxed) + bulk.dropped();
    }
    uint64_t dropped_lost() const { return critical.dropped(); }
  };

  LaneRings* Lane(int lane);

  size_t ring_capacity_;
  std::atomic<LaneRings*> lanes_[kMaxLanes] = {};
  std::mutex create_mu_;  ///< serializes lazy lane allocation only
  std::atomic<int64_t> origin_nanos_;
};

}  // namespace aqe

#endif  // AQE_OBS_TRACER_H_
