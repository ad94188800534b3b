#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "engine/query_engine_test_peer.h"
#include "index/table_index.h"
#include "obs/export.h"
#include "obs/memory_tracker.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/regression.h"
#include "obs/trace_ring.h"
#include "obs/tracer.h"
#include "queries/tpch_queries.h"
#include "runtime/agg_hash_table.h"
#include "runtime/join_hash_table.h"
#include "storage/dictionary.h"
#include "storage/table.h"
#include "tests/dictionary_test_util.h"
#include "tpch/tpch_gen.h"
#include "vm/interpreter.h"
#include "vm/translator.h"

namespace aqe {
namespace {

TraceEvent MakeEvent(uint64_t seq) {
  TraceEvent e;
  e.start_nanos = static_cast<int64_t>(seq * 100);
  e.end_nanos = static_cast<int64_t>(seq * 100 + 50);
  e.payload = seq;
  e.query_id = static_cast<uint32_t>(seq % 7 + 1);
  e.kind = TraceEventKind::kMorsel;
  return e;
}

// --- TraceRing -------------------------------------------------------------

TEST(TraceRingTest, RetainsEventsInOrder) {
  TraceRing ring(16);
  for (uint64_t i = 0; i < 10; ++i) ring.Push(MakeEvent(i));
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(events[i].payload, i);
}

TEST(TraceRingTest, WraparoundKeepsNewestAndCountsDrops) {
  TraceRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 0; i < 100; ++i) ring.Push(MakeEvent(i));
  EXPECT_EQ(ring.recorded(), 100u);
  EXPECT_EQ(ring.dropped(), 92u);
  std::vector<TraceEvent> events = ring.Snapshot();
  // Once wrapped, one slot is always reserved against a push the producer
  // might have in flight (it would alias the oldest retained seq), so a
  // snapshot returns the newest capacity-1 events, oldest first.
  ASSERT_EQ(events.size(), 7u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].payload, 93 + i);
  }
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  TraceRing ring(9);
  EXPECT_EQ(ring.capacity(), 16u);
  TraceRing tiny(1);
  EXPECT_EQ(tiny.capacity(), 8u);  // minimum
}

TEST(TraceRingTest, ClearRestartsTheRing) {
  TraceRing ring(8);
  for (uint64_t i = 0; i < 20; ++i) ring.Push(MakeEvent(i));
  ring.Clear();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
  ring.Push(MakeEvent(7));
  ASSERT_EQ(ring.Snapshot().size(), 1u);
  EXPECT_EQ(ring.Snapshot()[0].payload, 7u);
}

/// One producer hammers the ring while a reader snapshots concurrently —
/// the TSan matrix in CI runs this test; every snapshot must hold
/// internally consistent (non-torn) events.
TEST(TraceRingTest, ConcurrentSnapshotSeesNoTornEvents) {
  TraceRing ring(64);
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      TraceEvent e;
      // Self-checking event: fields derive from one counter.
      e.start_nanos = static_cast<int64_t>(i);
      e.end_nanos = static_cast<int64_t>(i + 1);
      e.payload = i;
      e.payload2 = ~i;
      e.query_id = static_cast<uint32_t>(i & 0xFFFFFFFF);
      e.kind = TraceEventKind::kMorsel;
      ring.Push(e);
      ++i;
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  uint64_t snapshots = 0, seen = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    std::vector<TraceEvent> events = ring.Snapshot();
    ++snapshots;
    seen += events.size();
    uint64_t prev = 0;
    bool first = true;
    for (const TraceEvent& e : events) {
      const uint64_t i = e.payload;
      ASSERT_EQ(e.payload2, ~i) << "torn event";
      ASSERT_EQ(e.start_nanos, static_cast<int64_t>(i));
      ASSERT_EQ(e.end_nanos, static_cast<int64_t>(i + 1));
      ASSERT_EQ(e.query_id, static_cast<uint32_t>(i & 0xFFFFFFFF));
      if (!first) ASSERT_EQ(i, prev + 1) << "events out of order";
      prev = i;
      first = false;
    }
  }
  stop.store(true);
  producer.join();
  EXPECT_GT(snapshots, 0u);
  EXPECT_GT(seen, 0u);
}

// --- EngineTracer ----------------------------------------------------------

TEST(EngineTracerTest, LanesAllocateLazilyAndSnapshotSkipsEmpty) {
  EngineTracer tracer(/*ring_capacity=*/16);
  EXPECT_EQ(tracer.Snapshot().lanes.size(), 0u);
  tracer.Record(3, MakeEvent(1));
  tracer.Record(5, MakeEvent(2));
  tracer.Record(3, MakeEvent(3));
  TraceSnapshot snap = tracer.Snapshot();
  ASSERT_EQ(snap.lanes.size(), 2u);
  EXPECT_EQ(snap.lanes[0].lane, 3);
  EXPECT_EQ(snap.lanes[0].events.size(), 2u);
  EXPECT_EQ(snap.lanes[1].lane, 5);
  EXPECT_EQ(snap.lanes[1].events.size(), 1u);
  EXPECT_EQ(snap.total_recorded(), 3u);
  EXPECT_EQ(snap.total_dropped(), 0u);
  tracer.Reset();
  EXPECT_EQ(tracer.total_recorded(), 0u);
}

TEST(EngineTracerTest, OutOfRangeLaneClampsInsteadOfCrashing) {
  EngineTracer tracer(16);
  tracer.Record(-1, MakeEvent(1));
  tracer.Record(EngineTracer::kMaxLanes + 10, MakeEvent(2));
  EXPECT_EQ(tracer.total_recorded(), 2u);
}

// --- Histogram -------------------------------------------------------------

TEST(HistogramTest, SmallValuesMapToExactBuckets) {
  // Below 2^kSubBucketBits every value gets its own bucket.
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    const int b = Histogram::BucketIndex(v);
    EXPECT_EQ(Histogram::BucketLowerBound(b), v);
    EXPECT_EQ(Histogram::BucketUpperBound(b), v + 1);
  }
}

TEST(HistogramTest, BucketBoundsBracketTheValue) {
  // Every probed value must land in [lower, upper) of its own bucket, and
  // bucket indices must be monotone in the value.
  int prev = -1;
  for (uint64_t v : {0ull, 1ull, 7ull, 8ull, 9ull, 15ull, 16ull, 100ull,
                     1000ull, 4095ull, 4096ull, 1000000ull,
                     (1ull << 40) + 12345, ~0ull}) {
    const int b = Histogram::BucketIndex(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, Histogram::kBuckets);
    EXPECT_LE(Histogram::BucketLowerBound(b), v) << "value " << v;
    if (v != ~0ull) {
      EXPECT_GT(Histogram::BucketUpperBound(b), v) << "value " << v;
    }
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(HistogramTest, BucketWidthIsBoundedRelativeError) {
  // Log-linear design point: width(bucket)/lower(bucket) <= 1/kSubBuckets
  // for all octave buckets, so percentiles interpolate within ~12.5%.
  for (uint64_t v = Histogram::kSubBuckets; v < (1ull << 30);
       v = v * 2 + v / 3 + 1) {
    const int b = Histogram::BucketIndex(v);
    const double lower = static_cast<double>(Histogram::BucketLowerBound(b));
    const double width =
        static_cast<double>(Histogram::BucketUpperBound(b)) - lower;
    EXPECT_LE(width / lower, 1.0 / Histogram::kSubBuckets + 1e-9)
        << "value " << v;
  }
}

TEST(HistogramTest, SnapshotPercentilesAndReset) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, 500500u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 500.5);
  // Uniform 1..1000: percentiles land within one bucket width (12.5%).
  EXPECT_NEAR(s.p50, 500.0, 500.0 * 0.13);
  EXPECT_NEAR(s.p95, 950.0, 950.0 * 0.13);
  EXPECT_NEAR(s.p99, 990.0, 990.0 * 0.13);
  // Percentiles never exceed the observed max.
  EXPECT_LE(s.p99, static_cast<double>(s.max));
  h.Reset();
  s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.p50, 0.0);
}

TEST(HistogramTest, SingleValuePercentilesClampToMax) {
  Histogram h;
  h.Record(1000000);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_LE(s.p50, 1000000.0);
  EXPECT_LE(s.p99, 1000000.0);
  EXPECT_GE(s.p50, 1000000.0 * (1.0 - 1.0 / Histogram::kSubBuckets));
}

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistryTest, SnapshotAndReset) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("test.counter");
  Histogram* h = reg.GetHistogram("test.histo");
  EXPECT_EQ(reg.GetCounter("test.counter"), c);  // stable pointers
  c->Add(41);
  c->Add();
  h->Record(100);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counter("test.counter"), 42u);
  EXPECT_EQ(snap.counter("test.missing"), 0u);
  const HistogramSnapshot* hs = snap.histogram("test.histo");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 1u);
  EXPECT_EQ(snap.histogram("test.missing"), nullptr);

  snap.gauges.emplace_back("test.gauge", -5);  // the engine adds gauges
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"test.counter\":42"), std::string::npos);
  EXPECT_NE(json.find("\"test.gauge\":-5"), std::string::npos);
  EXPECT_NE(json.find("\"test.histo\""), std::string::npos);

  reg.Reset();
  snap = reg.Snapshot();
  EXPECT_EQ(snap.counter("test.counter"), 0u);
  EXPECT_EQ(snap.histogram("test.histo")->count, 0u);
}

// --- Engine integration ----------------------------------------------------

class ObsEngineTest : public ::testing::Test {
 protected:
  static Catalog& catalog() {
    static Catalog* c = [] {
      auto* catalog = new Catalog();
      tpch::BuildTpchDatabase(catalog, /*sf=*/0.01);
      return catalog;
    }();
    return *c;
  }
};

// A query class outside 0..3 is clamped once, when the job takes it: the
// query returns the right rows, and every per-class record lands in the
// nearest class.
TEST_F(ObsEngineTest, OutOfRangeQueryClassesAreRecordedInTheNearestClass) {
  QueryEngine engine(&catalog(), /*num_threads=*/2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  QueryRunOptions options;
  options.query_class = 1;
  const std::vector<std::vector<int64_t>> reference =
      engine.Run(q6, options).rows;
  ASSERT_FALSE(reference.empty());
  for (int cls : {-1, 99}) {
    options.query_class = cls;
    EXPECT_EQ(engine.Run(q6, options).rows, reference) << "class " << cls;
  }

  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  for (int cls = 0; cls < kNumTaskClasses; ++cls) {
    const std::string suffix = ".class" + std::to_string(cls);
    const uint64_t queries = cls == 2 ? 0u : 1u;
    EXPECT_EQ(snap.histogram("admission.queue_wait_us" + suffix)->count,
              queries)
        << suffix;
    EXPECT_EQ(snap.histogram("engine.exec_latency_us" + suffix)->count,
              queries)
        << suffix;
    EXPECT_EQ(snap.histogram("mem.query_peak_bytes" + suffix)->count, queries)
        << suffix;
    EXPECT_EQ(snap.counter("sched.class_slices" + suffix) > 0, queries > 0)
        << suffix;
  }
}

TEST_F(ObsEngineTest, SnapshotReportsPerClassHistogramsAndCounters) {
  QueryEngine engine(&catalog(), /*num_threads=*/2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  QueryProgram q1 = BuildTpchQuery(1, catalog());
  QueryRunOptions options;
  options.query_class = 0;
  ASSERT_FALSE(engine.Run(q6, options).rows.empty());
  options.query_class = 2;
  ASSERT_FALSE(engine.Run(q1, options).rows.empty());

  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  EXPECT_EQ(snap.counter("engine.queries_submitted"), 2u);
  EXPECT_EQ(snap.counter("engine.queries_completed"), 2u);
  EXPECT_GT(snap.counter("exec.morsels"), 0u);
  EXPECT_GT(snap.counter("sched.executed_slices"), 0u);
  EXPECT_GT(snap.counter("sched.class_slices.class0"), 0u);
  EXPECT_GT(snap.counter("sched.class_slices.class2"), 0u);
  EXPECT_GT(snap.counter("translator.programs"), 0u);
  EXPECT_GT(snap.counter("trace.recorded"), 0u);

  // Queue-wait and exec-latency histograms per scheduling class: exactly
  // one query each in classes 0 and 2, none elsewhere.
  for (int cls : {0, 2}) {
    const auto* wait = snap.histogram("admission.queue_wait_us.class" +
                                      std::to_string(cls));
    const auto* lat = snap.histogram("engine.exec_latency_us.class" +
                                     std::to_string(cls));
    ASSERT_NE(wait, nullptr);
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(wait->count, 1u) << "class " << cls;
    EXPECT_EQ(lat->count, 1u) << "class " << cls;
    EXPECT_GT(lat->max, 0u) << "class " << cls;
  }
  for (int cls : {1, 3}) {
    EXPECT_EQ(snap.histogram("engine.exec_latency_us.class" +
                             std::to_string(cls))
                  ->count,
              0u);
  }

  // Cache counters fold in (one miss per pipeline on this cold engine).
  EXPECT_GT(snap.counter("cache.bytecode_misses"), 0u);
  EXPECT_EQ(snap.counter("cache.bytecode_misses"),
            engine.artifact_cache_stats().bytecode_misses);
}

TEST_F(ObsEngineTest, ResetObservabilityStatsZeroesEverything) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  ASSERT_FALSE(engine.Run(q6).rows.empty());
  ASSERT_GT(engine.ObservabilitySnapshot().counter("exec.morsels"), 0u);

  engine.ResetObservabilityStats();
  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  EXPECT_EQ(snap.counter("exec.morsels"), 0u);
  EXPECT_EQ(snap.counter("engine.queries_completed"), 0u);
  EXPECT_EQ(snap.counter("cache.bytecode_misses"), 0u);
  EXPECT_EQ(snap.counter("translator.programs"), 0u);
  EXPECT_EQ(snap.counter("trace.recorded"), 0u);
  EXPECT_EQ(snap.histogram("engine.exec_latency_us.class0")->count, 0u);
  // Residency gauges survive: the cache still holds the artifacts.
  int64_t entries = -1;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "cache.entries") entries = value;
  }
  EXPECT_GT(entries, 0);

  // The warm rerun now shows hits against clean counters.
  ASSERT_FALSE(engine.Run(q6).rows.empty());
  snap = engine.ObservabilitySnapshot();
  EXPECT_GT(snap.counter("cache.bytecode_hits"), 0u);
  EXPECT_EQ(snap.counter("cache.bytecode_misses"), 0u);
}

TEST_F(ObsEngineTest, ArtifactCacheStatsDeltaAndReset) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  ASSERT_FALSE(engine.Run(q6).rows.empty());
  const ArtifactCacheStats cold = engine.artifact_cache_stats();
  EXPECT_GT(cold.bytecode_misses, 0u);

  ASSERT_FALSE(engine.Run(q6).rows.empty());
  const ArtifactCacheStats warm = engine.artifact_cache_stats() - cold;
  EXPECT_GT(warm.bytecode_hits, 0u);
  EXPECT_EQ(warm.bytecode_misses, 0u);
  EXPECT_EQ(warm.entry_misses, 0u);
  // bytes/entries keep the current residency, not a delta.
  EXPECT_GT(warm.entries, 0u);
}

TEST_F(ObsEngineTest, CatalogFootprintGaugesMatchTheCatalog) {
  uint64_t column_bytes = 0;
  uint64_t dictionary_bytes = 0;
  uint64_t index_bytes = 0;
  for (const char* name : {"region", "nation", "supplier", "customer", "part",
                           "partsupp", "orders", "lineitem"}) {
    const Table* t = catalog().GetTable(name);
    for (int c = 0; c < t->num_columns(); ++c) {
      column_bytes += t->num_rows() *
                      static_cast<uint64_t>(DataTypeSize(t->column(c).type()));
      if (!t->has_dictionary(c)) continue;
      // A dictionary holds its front-coded blocks and their offsets.
      const Dictionary& dict = t->dictionary(c);
      EXPECT_EQ(dict.approx_bytes(),
                testutil::FrontCodedBytes(testutil::DecodeAll(dict)))
          << name << " column " << c;
      dictionary_bytes += dict.approx_bytes();
    }
    ASSERT_NE(t->indexes(), nullptr) << name;
    index_bytes += t->indexes()->approx_bytes;
  }
  QueryEngine engine(&catalog(), 1);
  int64_t column_gauge = -1;
  int64_t dictionary_gauge = -1;
  int64_t index_gauge = -1;
  for (const auto& [name, value] : engine.ObservabilitySnapshot().gauges) {
    if (name == "catalog.column_bytes") column_gauge = value;
    if (name == "catalog.dictionary_bytes") dictionary_gauge = value;
    if (name == "catalog.index_bytes") index_gauge = value;
  }
  EXPECT_EQ(column_gauge, static_cast<int64_t>(column_bytes));
  EXPECT_EQ(dictionary_gauge, static_cast<int64_t>(dictionary_bytes));
  EXPECT_GT(dictionary_gauge, 0);
  EXPECT_EQ(index_gauge, static_cast<int64_t>(index_bytes));
  EXPECT_GT(index_gauge, 0);
}

TEST_F(ObsEngineTest, VmOpcodeCountersAppearWhileProfiling) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  engine.set_vm_opcode_profiling(true);
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kBytecode;  // stay interpreted
  ASSERT_FALSE(engine.Run(q6, options).rows.empty());
  engine.set_vm_opcode_profiling(false);

  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  uint64_t vm_ops = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("vm.op.", 0) == 0) vm_ops += value;
  }
  EXPECT_GT(vm_ops, 0u) << "no vm.op.* counters in the snapshot";

  VmResetProfileCounts();
  EXPECT_TRUE(VmProfileCounts().empty());
}

/// Balanced braces and brackets outside strings, and every string closed:
/// a cheap well-formedness proxy without a JSON parser.
void ExpectBalancedJson(const std::string& json) {
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;  // the escaped character
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    in_string = ch == '"';
    braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
    ASSERT_GE(braces, 0) << "at " << i;
    ASSERT_GE(brackets, 0) << "at " << i;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST_F(ObsEngineTest, ChromeTraceExportIsWellFormedForAdaptiveRun) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  QueryProgram q1 = BuildTpchQuery(1, catalog());
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kAdaptive;
  options.adaptive_first_eval_seconds = 1e-6;  // force early mode decisions
  ASSERT_FALSE(engine.Run(q6, options).rows.empty());
  ASSERT_FALSE(engine.Run(q1, options).rows.empty());

  const std::string json = engine.ExportChromeTrace();
  // Golden structure: the stable skeleton every viewer needs. Event
  // counts and timestamps vary run to run; the shape must not.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"worker 0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"slice\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"morsel\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"admission-wait\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pipeline\""), std::string::npos);
  // Per-query flows: both queries start and finish.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  // ChromeTraceTest.JsonGolden pins the keys of every phase.
  ExpectBalancedJson(json);

  // The Fig 14 text renderer.
  const std::string text = engine.RenderTrace(/*width=*/80);
  EXPECT_NE(text.find("time ->"), std::string::npos);
  EXPECT_NE(text.find("thread 0 |"), std::string::npos);
  EXPECT_NE(text.find("total:"), std::string::npos);
}

// Golden output: a hand-built snapshot with one event of each kind on three
// worker lanes, and one query whose flow starts at its admission wait,
// steps through a slice on another worker and finishes at its completion. Every key of every phase (M, X, i, s, t, f) is pinned.
TEST(ChromeTraceTest, JsonGolden) {
  auto event = [](TraceEventKind kind, int64_t start_us, int64_t end_us) {
    TraceEvent e;
    e.kind = kind;
    e.start_nanos = 1000000 + start_us * 1000;
    e.end_nanos = 1000000 + end_us * 1000;
    return e;
  };
  TraceSnapshot snapshot;
  snapshot.origin_nanos = 1000000;

  TraceSnapshot::Lane worker0;
  worker0.lane = 0;
  TraceEvent wait = event(TraceEventKind::kAdmissionWait, 0, 250);
  wait.detail = 3;
  wait.query_id = 7;
  TraceEvent done = event(TraceEventKind::kQueryDone, 250, 800);
  done.payload = 1;
  done.d0 = 0.00025;
  done.d1 = 0.0008;
  done.query_id = 7;
  TraceEvent anomaly = event(TraceEventKind::kAnomaly, 800, 800);
  anomaly.payload = 0xabc;
  anomaly.detail = static_cast<uint8_t>(AnomalyCause::kCacheEvicted);
  anomaly.d0 = 0.4;
  anomaly.d1 = 2.0;
  anomaly.d2 = 0.25;
  anomaly.query_id = 7;
  worker0.events = {wait, done, anomaly};
  worker0.recorded = 3;

  TraceSnapshot::Lane worker1;
  worker1.lane = 1;
  TraceEvent slice = event(TraceEventKind::kTaskSlice, 250, 750);
  slice.detail = 3;
  slice.payload = 1;
  slice.query_id = 7;
  TraceEvent start = event(TraceEventKind::kPipelineStart, 300, 300);
  start.payload = 6000;
  TraceEvent prune = event(TraceEventKind::kScanPrune, 310, 310);
  prune.detail = static_cast<uint8_t>(AccessPathKind::kZoneMap);
  prune.payload = 4096;
  prune.payload2 = 6000;
  prune.d0 = 0.5;
  prune.d1 = 0.000125;
  prune.d2 = 12;
  TraceEvent miss = event(TraceEventKind::kCacheMiss, 320, 320);
  TraceEvent morsel = event(TraceEventKind::kMorsel, 400, 500);
  morsel.detail = static_cast<uint8_t>(ExecMode::kBytecode);
  morsel.payload = 4096;
  morsel.pipeline_id = 2;
  TraceEvent mode_switch = event(TraceEventKind::kModeSwitch, 510, 510);
  mode_switch.detail = static_cast<uint8_t>(ExecMode::kUnoptimized);
  mode_switch.payload = 1904;
  mode_switch.payload2 = TraceEventDoubleToBits(0.125);
  mode_switch.d0 = 40000000;
  mode_switch.d1 = 0.000047;
  mode_switch.d2 = 0.000021;
  TraceEvent hit = event(TraceEventKind::kCacheHit, 740, 740);
  hit.payload = 1;
  worker1.events = {slice, start, prune, miss, morsel, mode_switch, hit};
  worker1.recorded = 9;
  worker1.dropped = 2;
  worker1.dropped_sampled = 2;

  TraceSnapshot::Lane worker48;
  worker48.lane = 48;
  TraceEvent compile = event(TraceEventKind::kCompile, 520, 720);
  compile.detail = static_cast<uint8_t>(ExecMode::kUnoptimized);
  compile.payload = 812;
  TraceEvent publish = event(TraceEventKind::kCachePublish, 730, 730);
  publish.detail = static_cast<uint8_t>(ExecMode::kUnoptimized);
  worker48.events = {compile, publish};
  worker48.recorded = 3;
  worker48.dropped = 1;
  worker48.dropped_lost = 1;

  snapshot.lanes = {worker0, worker1, worker48};
  EXPECT_EQ(ChromeTraceJson(snapshot),
      "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":15,"
      "\"dropped\":3,\"dropped_sampled\":2,\"dropped_lost\":1},"
      "\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"worker 0\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_sort_index\","
      "\"args\":{\"sort_index\":0}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"worker 1\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_sort_index\","
      "\"args\":{\"sort_index\":1}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":48,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"worker 48\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":48,\"name\":\"thread_sort_index\","
      "\"args\":{\"sort_index\":48}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"admission-wait\","
      "\"cat\":\"engine\",\"ts\":0.000,\"dur\":250.000,\"args\":{\"class\":3,"
      "\"query\":7}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"query\",\"cat\":\"engine\","
      "\"ts\":250.000,\"dur\":550.000,\"args\":{\"rows\":1,"
      "\"queue_wait_s\":0.000250,\"total_s\":0.000800,\"query\":7}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"name\":\"anomaly\","
      "\"cat\":\"engine\",\"s\":\"t\",\"ts\":800.000,"
      "\"args\":{\"fingerprint\":\"0000000000000abc\",\"cause\":1,"
      "\"expected_ms\":0.400,\"observed_ms\":2.000,\"queue_wait_ms\":0.250,"
      "\"query\":7}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"slice\",\"cat\":\"engine\","
      "\"ts\":250.000,\"dur\":500.000,\"args\":{\"class\":3,\"stage\":1,"
      "\"query\":7}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"name\":\"pipeline\","
      "\"cat\":\"engine\",\"s\":\"t\",\"ts\":300.000,\"args\":{\"tuples\":6000,"
      "\"pipeline\":0}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"name\":\"scan-prune\","
      "\"cat\":\"engine\",\"s\":\"t\",\"ts\":310.000,"
      "\"args\":{\"path\":\"zone-map\",\"selected_rows\":4096,"
      "\"table_rows\":6000,\"selectivity\":0.500000,\"analysis_s\":0.000125,"
      "\"posting_entries\":12}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"name\":\"cache-miss\","
      "\"cat\":\"engine\",\"s\":\"t\",\"ts\":320.000,\"args\":{}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"morsel\","
      "\"cat\":\"engine\",\"ts\":400.000,\"dur\":100.000,"
      "\"args\":{\"mode\":\"bytecode\",\"tuples\":4096,\"pipeline\":2}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"name\":\"mode-switch\","
      "\"cat\":\"engine\",\"s\":\"t\",\"ts\":510.000,"
      "\"args\":{\"target\":\"unoptimized\",\"remaining_tuples\":1904,"
      "\"r0_tuples_per_s\":40000000.0,\"t_current_s\":0.000047,"
      "\"t_chosen_s\":0.000021,\"runtime_call_fraction\":0.1250}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"name\":\"cache-hit\","
      "\"cat\":\"engine\",\"s\":\"t\",\"ts\":740.000,"
      "\"args\":{\"artifact\":\"code\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":48,\"name\":\"compile\","
      "\"cat\":\"engine\",\"ts\":520.000,\"dur\":200.000,"
      "\"args\":{\"target\":\"unoptimized\",\"instructions\":812}},\n"
      "{\"ph\":\"i\",\"pid\":1,\"tid\":48,\"name\":\"cache-publish\","
      "\"cat\":\"engine\",\"s\":\"t\",\"ts\":730.000,"
      "\"args\":{\"mode\":\"unoptimized\"}},\n"
      "{\"ph\":\"s\",\"pid\":1,\"tid\":0,\"name\":\"query\",\"cat\":\"flow\","
      "\"id\":7,\"ts\":0.000},\n"
      "{\"ph\":\"t\",\"pid\":1,\"tid\":1,\"name\":\"query\",\"cat\":\"flow\","
      "\"id\":7,\"ts\":250.000},\n"
      "{\"ph\":\"f\",\"pid\":1,\"tid\":0,\"name\":\"query\",\"cat\":\"flow\","
      "\"id\":7,\"ts\":800.000,\"bp\":\"e\"}\n"
      "]}\n");
}

TEST_F(ObsEngineTest, QueryDoneIsTracedBeforeRunReturns) {
  // The last slice's events are recorded before the promise resolves, so
  // a trace snapshot taken right after Run() holds the query's finish.
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  for (int i = 0; i < 200; ++i) {
    const QueryRunResult result = engine.Run(q6);
    const uint32_t query_id = result.query_id;
    bool done = false;
    for (const auto& lane : engine.tracer().Snapshot().lanes) {
      for (const TraceEvent& e : lane.events) {
        done |= e.kind == TraceEventKind::kQueryDone && e.query_id == query_id;
      }
    }
    ASSERT_TRUE(done) << "query " << query_id << " (run " << i << ")";
  }
}

TEST_F(ObsEngineTest, ResultTimesAreTheTraceSpans) {
  // The result's times and the query's trace spans come from one clock:
  // the admission wait starts at the submit and ends at the first slice,
  // and kQueryDone ends where total_seconds was read.
  QueryEngine engine(&catalog(), 2);
  const QueryRunResult result = engine.Run(BuildTpchQuery(6, catalog()));
  const TraceSnapshot snap = engine.tracer().Snapshot();
  const TraceEvent* wait = nullptr;
  const TraceEvent* done = nullptr;
  for (const auto& lane : snap.lanes) {
    for (const TraceEvent& e : lane.events) {
      if (e.query_id != result.query_id) continue;
      if (e.kind == TraceEventKind::kAdmissionWait) wait = &e;
      if (e.kind == TraceEventKind::kQueryDone) done = &e;
    }
  }
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(done, nullptr);
  const int64_t submit = wait->start_nanos;
  EXPECT_DOUBLE_EQ(static_cast<double>(wait->end_nanos - submit) / 1e9,
                   result.queue_wait_seconds);
  EXPECT_DOUBLE_EQ(static_cast<double>(done->end_nanos - submit) / 1e9,
                   result.total_seconds);
}

TEST(EngineTracerTest, LaneStatsReportPerLaneRecordedAndDropped) {
  EngineTracer tracer(/*ring_capacity=*/8);
  for (uint64_t i = 0; i < 3; ++i) tracer.Record(0, MakeEvent(i));
  for (uint64_t i = 0; i < 20; ++i) tracer.Record(2, MakeEvent(i));
  std::vector<EngineTracer::LaneStats> stats = tracer.lane_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].lane, 0);
  EXPECT_EQ(stats[0].recorded, 3u);
  EXPECT_EQ(stats[0].dropped, 0u);
  EXPECT_EQ(stats[1].lane, 2);
  EXPECT_EQ(stats[1].recorded, 20u);
  EXPECT_EQ(stats[1].dropped, 12u);
}

// --- MetricsSnapshot serialization -----------------------------------------

TEST(MetricsRegistryTest, ToJsonKeepsStableKeyOrderAndBuckets) {
  MetricsRegistry reg;
  // Registered out of order on purpose: snapshots iterate the registry's
  // ordered map, so serialization order is name order, not insert order.
  reg.GetCounter("zz.last")->Add(1);
  reg.GetCounter("aa.first")->Add(2);
  reg.GetCounter("mm.middle")->Add(3);
  Histogram* h = reg.GetHistogram("t.h");
  h->Record(1);
  h->Record(1);
  h->Record(2);
  h->Record(100);

  MetricsSnapshot snap = reg.Snapshot();
  const std::string json = snap.ToJson();
  const size_t a = json.find("\"aa.first\":2");
  const size_t m = json.find("\"mm.middle\":3");
  const size_t z = json.find("\"zz.last\":1");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
  // Same input, same output: serialization is deterministic.
  EXPECT_EQ(json, reg.Snapshot().ToJson());
  // Three sections, and every histogram field in a fixed order.
  EXPECT_EQ(json.rfind("{\"counters\":{", 0), 0u) << json;
  EXPECT_NE(json.find("},\"gauges\":{},\"histograms\":{\"t.h\":{"
                      "\"count\":4,\"sum\":104,\"max\":100,\"mean\":26.000,"
                      "\"p50\":"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(",\"p95\":"), std::string::npos);
  EXPECT_NE(json.find(",\"p99\":"), std::string::npos);

  // Bucket serialization: (exclusive upper bound, count) pairs, ascending,
  // only non-empty buckets, counts summing to the histogram count.
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& hs = snap.histograms[0].second;
  ASSERT_EQ(hs.buckets.size(), 3u);
  EXPECT_EQ(hs.buckets[0], (std::pair<uint64_t, uint64_t>{2, 2}));
  EXPECT_EQ(hs.buckets[1], (std::pair<uint64_t, uint64_t>{3, 1}));
  const uint64_t upper100 =
      Histogram::BucketUpperBound(Histogram::BucketIndex(100));
  EXPECT_EQ(hs.buckets[2],
            (std::pair<uint64_t, uint64_t>{upper100, 1}));
  uint64_t in_buckets = 0;
  for (const auto& [upper, n] : hs.buckets) in_buckets += n;
  EXPECT_EQ(in_buckets, hs.count);
  const std::string expect_buckets =
      "\"buckets\":[[2,2],[3,1],[" + std::to_string(upper100) + ",1]]";
  EXPECT_NE(json.find(expect_buckets), std::string::npos) << json;
}

TEST(PrometheusTextTest, RendersCountersGaugesAndCumulativeHistograms) {
  MetricsRegistry reg;
  reg.GetCounter("engine.queries_completed")->Add(7);
  Histogram* h = reg.GetHistogram("exec_latency.us.class0");
  h->Record(1);
  h->Record(1);
  h->Record(5);

  MetricsSnapshot snap = reg.Snapshot();
  snap.gauges.emplace_back("cache.bytes", -3);
  const std::string text = PrometheusText(snap);
  EXPECT_NE(text.find("# TYPE aqe_engine_queries_completed counter\n"
                      "aqe_engine_queries_completed 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE aqe_cache_bytes gauge\naqe_cache_bytes -3\n"),
            std::string::npos);
  // Dots sanitize to underscores; buckets are cumulative and close with
  // +Inf == count, then _sum and _count.
  EXPECT_NE(text.find("# TYPE aqe_exec_latency_us_class0 histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqe_exec_latency_us_class0_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqe_exec_latency_us_class0_bucket{le=\"6\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqe_exec_latency_us_class0_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqe_exec_latency_us_class0_sum 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("aqe_exec_latency_us_class0_count 3\n"),
            std::string::npos);
}

// --- RegressionTracker -----------------------------------------------------

RegressionTracker::Observation MakeObs(uint64_t fp, double service_ms,
                                       double queue_ms = 0,
                                       ExecMode mode = ExecMode::kBytecode,
                                       bool cache_miss = false) {
  RegressionTracker::Observation o;
  o.fingerprint = fp;
  o.query_id = 1;
  o.service_ms = service_ms;
  o.queue_wait_ms = queue_ms;
  o.final_mode = mode;
  o.cache_miss = cache_miss;
  o.plan_name = "plan";
  return o;
}

TEST(RegressionTrackerTest, StaysSilentBeforeMinRunsAndOnStableLatency) {
  RegressionTracker tracker;
  // A huge second run must not alert: the baseline has no support yet.
  EXPECT_FALSE(tracker.Observe(MakeObs(1, 10.0), nullptr));
  EXPECT_FALSE(tracker.Observe(MakeObs(1, 1000.0), nullptr));
  // Stable latency never alerts regardless of run count.
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(tracker.Observe(MakeObs(2, 10.0), nullptr)) << "run " << i;
  }
  EXPECT_TRUE(tracker.RecentAnomalies().empty());
}

TEST(RegressionTrackerTest, FlagsDeviationAndNamesCauses) {
  RegressionTracker tracker;  // default factor 4.0
  // kUnknown: slow run with no probe evidence.
  for (int i = 0; i < 5; ++i) ASSERT_FALSE(tracker.Observe(MakeObs(1, 10.0), nullptr));
  AnomalyRecord rec;
  ASSERT_TRUE(tracker.Observe(MakeObs(1, 100.0), &rec));
  EXPECT_EQ(rec.cause, AnomalyCause::kUnknown);
  EXPECT_NEAR(rec.expected_ms, 10.0, 1e-9);
  EXPECT_NEAR(rec.observed_ms, 100.0, 1e-9);

  // kCacheEvicted (the run missed the cache although the plan has a
  // record) wins over every other cause.
  ASSERT_TRUE(tracker.Observe(MakeObs(1, 1000.0, /*queue_ms=*/5000.0,
                                      ExecMode::kBytecode,
                                      /*cache_miss=*/true),
                              &rec));
  EXPECT_EQ(rec.cause, AnomalyCause::kCacheEvicted);

  // kModeRegressed: the fingerprint used to reach optimized code.
  for (int i = 0; i < 5; ++i) {
    ASSERT_FALSE(tracker.Observe(
        MakeObs(2, 10.0, 0, ExecMode::kOptimized), nullptr));
  }
  ASSERT_TRUE(tracker.Observe(
      MakeObs(2, 100.0, 0, ExecMode::kBytecode), &rec));
  EXPECT_EQ(rec.cause, AnomalyCause::kModeRegressed);

  // kQueueWait: wait dominated the latency.
  for (int i = 0; i < 5; ++i) ASSERT_FALSE(tracker.Observe(MakeObs(3, 10.0), nullptr));
  ASSERT_TRUE(tracker.Observe(MakeObs(3, 100.0, /*queue_ms=*/500.0), &rec));
  EXPECT_EQ(rec.cause, AnomalyCause::kQueueWait);

  EXPECT_EQ(tracker.RecentAnomalies().size(), 4u);
  tracker.ResetAnomalies();
  EXPECT_TRUE(tracker.RecentAnomalies().empty());

  // Baselines survived the reset: the next slow run still alerts.
  ASSERT_TRUE(tracker.Observe(MakeObs(3, 10000.0), &rec));

  // A plan's first-ever run misses the cache too; that is no eviction, and
  // the bit names no later run's cause either.
  ASSERT_FALSE(tracker.Observe(
      MakeObs(4, 10.0, 0, ExecMode::kBytecode, /*cache_miss=*/true), nullptr));
  for (int i = 0; i < 5; ++i) ASSERT_FALSE(tracker.Observe(MakeObs(4, 10.0), nullptr));
  ASSERT_TRUE(tracker.Observe(MakeObs(4, 100.0), &rec));
  EXPECT_EQ(rec.cause, AnomalyCause::kUnknown);
}

TEST(RegressionTrackerTest, MadFloorSuppressesMicrosecondNoise) {
  // A plan whose EWMA sits at 50us: 4x the EWMA is only 0.2ms — below the
  // absolute guard, so scheduler noise on fast plans never alerts.
  RegressionTracker tracker;
  for (int i = 0; i < 10; ++i) ASSERT_FALSE(tracker.Observe(MakeObs(1, 0.05), nullptr));
  EXPECT_FALSE(tracker.Observe(MakeObs(1, 0.4), nullptr));
  // Beyond the floor's 4 x 0.25ms guard it does alert.
  EXPECT_TRUE(tracker.Observe(MakeObs(1, 5.0), nullptr));
}

TEST(RegressionTrackerTest, PlanRecordsAreABoundedLru) {
  constexpr size_t kCap = RegressionTracker::kMaxPlans;
  RegressionTracker tracker;
  for (int i = 0; i < 3; ++i) tracker.Observe(MakeObs(1, 10.0), nullptr);
  tracker.Observe(MakeObs(2, 20.0), nullptr);
  for (uint64_t k = 0; k + 2 < kCap; ++k) {
    tracker.Observe(MakeObs(100 + k, 5.0), nullptr);
  }
  ASSERT_EQ(tracker.plan_count(), kCap);
  // The admission read is a use: key 1 is now newer than key 2.
  ASSERT_TRUE(tracker.Lookup(1).has_value());
  tracker.Observe(MakeObs(100 + kCap, 5.0), nullptr);
  EXPECT_EQ(tracker.plan_count(), kCap);
  EXPECT_FALSE(tracker.Lookup(2).has_value());  // the oldest went
  const std::optional<PlanStats> kept = tracker.Lookup(1);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->runs, 3u);
  EXPECT_NEAR(kept->ewma_ms, 10.0, 1e-9);

  // A cap's worth of new keys pushes out every old one, key 1 included.
  for (uint64_t k = 0; k < kCap; ++k) {
    tracker.Observe(MakeObs(1'000'000 + k, 5.0), nullptr);
  }
  EXPECT_EQ(tracker.plan_count(), kCap);
  EXPECT_FALSE(tracker.Lookup(1).has_value());
  EXPECT_FALSE(tracker.Lookup(100 + kCap).has_value());
}

TEST(RegressionTrackerTest, BudgetFailureFoldsPeakAsLowerBound) {
  RegressionTracker tracker;
  constexpr uint64_t kMiB = 1 << 20;
  for (int i = 0; i < 5; ++i) {
    RegressionTracker::Observation o = MakeObs(1, 10.0);
    o.peak_bytes = 100 * kMiB;
    ASSERT_FALSE(tracker.Observe(o, nullptr));
  }
  // Killed at 400 MiB after 500 ms: the blend alone (190 MiB) would
  // understate a footprint already known to reach 400 MiB. The slow run
  // is no anomaly: no probe runs on this path.
  tracker.ObserveBudgetFailure(1, 500.0, 400 * kMiB);
  std::optional<PlanStats> stats = tracker.Lookup(1);
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->ewma_peak_bytes, 400.0 * kMiB);
  EXPECT_EQ(stats->runs, 6u);
  EXPECT_TRUE(tracker.RecentAnomalies().empty());

  // A plan whose only run was killed still gets a record.
  tracker.ObserveBudgetFailure(2, 1.0, kMiB);
  stats = tracker.Lookup(2);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->ewma_peak_bytes, static_cast<double>(kMiB));
  EXPECT_EQ(stats->runs, 1u);
}

TEST(RegressionTrackerTest, ConcurrentObserveAndLookupStayBounded) {
  // 4 threads interleave completions and admission reads over twice the
  // cap's worth of keys; the TSan CI leg runs this test.
  constexpr uint64_t kKeys = 2 * RegressionTracker::kMaxPlans;
  RegressionTracker tracker;
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([&tracker, t] {
      for (uint64_t i = 0; i < kKeys; ++i) {
        const uint64_t key = (i * 4 + t) % kKeys;
        tracker.Observe(MakeObs(key, 1.0 + static_cast<double>(t)), nullptr);
        const std::optional<PlanStats> stats = tracker.Lookup(key);
        if (stats.has_value()) EXPECT_GE(stats->runs, 1u);
        if (i % 7 == 0) tracker.ObserveBudgetFailure(key, 1.0, 4096);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(tracker.plan_count(), RegressionTracker::kMaxPlans);
}

/// The number after `"key":` in `text`, or nullopt when the key is absent.
std::optional<double> JsonNumber(const std::string& text,
                                 const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

TEST_F(ObsEngineTest, ConcurrentQueriesRecordSafely) {
  // Concurrent Submit stress under the obs layer: the TSan CI matrix runs
  // this test to prove slices/morsels/histograms record race-free. With
  // the rings sized for the run, the trace export loses no event, its
  // drop split adds up, no span runs backwards, and every query's flow
  // has a start point.
  setenv("AQE_TRACE_RING_EVENTS", "65536", 1);
  QueryEngine engine(&catalog(), 2);
  unsetenv("AQE_TRACE_RING_EVENTS");
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  constexpr int kClients = 4, kPerClient = 5;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        QueryRunOptions options;
        options.query_class = c % kNumTaskClasses;
        if (engine.Run(q6, options).rows.empty()) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  EXPECT_EQ(snap.counter("engine.queries_completed"),
            static_cast<uint64_t>(kClients * kPerClient));
  const std::string json = engine.ExportChromeTrace();
  EXPECT_NE(json.find("\"name\":\"slice\""), std::string::npos);

  // The exporter writes the header, then one event per line.
  const std::string header = json.substr(0, json.find('\n'));
  const auto dropped = JsonNumber(header, "dropped");
  const auto sampled = JsonNumber(header, "dropped_sampled");
  const auto lost = JsonNumber(header, "dropped_lost");
  ASSERT_TRUE(dropped && sampled && lost) << header;
  EXPECT_EQ(*lost, 0) << header;
  EXPECT_EQ(*dropped, *sampled + *lost) << header;

  std::set<uint32_t> flows, started;
  int finishes = 0;
  size_t pos = header.size() + 1;
  while (pos < json.size()) {
    size_t end = json.find('\n', pos);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind("{\"ph\":\"", 0) != 0) continue;
    const char ph = line[7];
    if (ph == 'X') {
      const auto dur = JsonNumber(line, "dur");
      ASSERT_TRUE(dur.has_value()) << line;
      ASSERT_GE(*dur, 0) << line;
    } else if (ph == 's' || ph == 't' || ph == 'f') {
      const auto id = JsonNumber(line, "id");
      ASSERT_TRUE(id.has_value()) << line;
      flows.insert(static_cast<uint32_t>(*id));
      if (ph == 's') started.insert(static_cast<uint32_t>(*id));
      finishes += ph == 'f';
    }
  }
  EXPECT_EQ(flows.size(), static_cast<size_t>(kClients * kPerClient));
  EXPECT_EQ(started, flows);
  EXPECT_GE(finishes, 1);
}

// --- Query profiles / EXPLAIN ANALYZE --------------------------------------

TEST_F(ObsEngineTest, DefaultRunRendersAModeLinePerPipeline) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  QueryRunResult result = engine.Run(q6);
  ASSERT_FALSE(result.pipelines.empty());
  size_t modes = 0;
  for (const PipelineReport& pp : result.pipelines) {
    EXPECT_FALSE(pp.modes.empty()) << pp.name;
    modes += pp.modes.size();
  }
  const std::string text = ExplainAnalyze(result);
  size_t mode_lines = 0;
  for (size_t pos = text.find("\n    mode "); pos != std::string::npos;
       pos = text.find("\n    mode ", pos + 1)) {
    ++mode_lines;
  }
  EXPECT_EQ(mode_lines, modes) << text;
}

// A volcano pipeline runs its worker in the handle's first mode
// throughout: EXPLAIN ANALYZE names the engine wherever it names that mode,
// and never claims bytecode ran.
TEST_F(ObsEngineTest, VolcanoExplainAnalyzeNamesTheEngine) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  QueryRunOptions volcano;
  volcano.engine = EngineKind::kVolcano;
  const QueryRunResult result = engine.Run(q6, volcano);
  EXPECT_EQ(result.engine, EngineKind::kVolcano);
  const std::string text = ExplainAnalyze(result);
  EXPECT_NE(text.find("volcano -> volcano"), std::string::npos) << text;
  EXPECT_NE(text.find("\n    mode volcano "), std::string::npos) << text;
  EXPECT_EQ(text.find("bytecode"), std::string::npos) << text;
  const std::string json = ExplainAnalyzeJson(result);
  EXPECT_NE(json.find("\"mode\":\"volcano\""), std::string::npos) << json;
  EXPECT_EQ(json.find("bytecode"), std::string::npos) << json;
}

/// Adaptive runs forced through a mode switch at the first evaluation:
/// free modeled compilation, huge modeled speedup.
QueryRunOptions ForcedSwitchOptions() {
  QueryRunOptions options;
  options.strategy = ExecutionStrategy::kAdaptive;
  options.adaptive_first_eval_seconds = 0;
  options.cost_model.unopt_base_seconds = 0;
  options.cost_model.unopt_per_instruction_seconds = 0;
  options.cost_model.opt_base_seconds = 0;
  options.cost_model.opt_per_instruction_seconds = 0;
  options.cost_model.unopt_speedup = 1.01;
  options.cost_model.opt_speedup = 100.0;
  return options;
}

TEST_F(ObsEngineTest, ExplainAnalyzeAccountsModeTimeAndSwitchVerdicts) {
  QueryEngine engine(&catalog(), 2);
  // Multi-pipeline adaptive query (Q3: two builds + probe).
  QueryProgram q3 = BuildTpchQuery(3, catalog());
  QueryRunOptions options = ForcedSwitchOptions();
  options.single_threaded = true;  // morsels never overlap a mode change
  QueryRunResult result = engine.Run(q3, options);
  ASSERT_FALSE(result.rows.empty());
  EXPECT_EQ(result.plan_name, "q3");
  ASSERT_GE(result.pipelines.size(), 2u);

  // The identity EXPLAIN ANALYZE rests on: mode wall time (which includes
  // blocking compiles) minus those compiles, plus the engine steps, is the
  // query's exec_seconds_total.
  double mode_wall_sum = 0;
  double blocking_compile = 0;
  double exec_only = 0;
  for (const PipelineReport& pp : result.pipelines) {
    EXPECT_FALSE(pp.modes.empty()) << pp.name;
    uint64_t tuples = 0;
    for (const ModeSliceProfile& m : pp.modes) {
      EXPECT_GT(m.morsels, 0u);
      EXPECT_LE(m.busy_seconds, m.wall_seconds);
      mode_wall_sum += m.wall_seconds;
      tuples += m.tuples;
    }
    // Every pipeline tuple went through exactly one mode's morsels.
    EXPECT_EQ(tuples, pp.tuples) << pp.name;
    blocking_compile += pp.exec_seconds - pp.exec_only_seconds;
    exec_only += pp.exec_only_seconds;
  }
  EXPECT_GT(mode_wall_sum, 0.0);
  const double engine_steps = result.exec_seconds_total - exec_only;
  EXPECT_GE(engine_steps, 0.0);
  EXPECT_NEAR(mode_wall_sum - blocking_compile + engine_steps,
              result.exec_seconds_total, 1e-6)
      << ExplainAnalyze(result);

  // At least one mode switch with a predicted-vs-realized verdict.
  size_t switches = 0;
  for (const PipelineReport& pp : result.pipelines) {
    for (const ModeSwitchRecord& sw : pp.mode_switches) {
      ++switches;
      EXPECT_EQ(sw.target, ExecMode::kOptimized);
      EXPECT_GT(sw.t_chosen_seconds, 0.0);
      EXPECT_GT(sw.t_current_seconds, 0.0);
      EXPECT_GT(sw.realized_seconds, 0.0);
      EXPECT_GT(sw.r0, 0.0);
      EXPECT_TRUE(std::isfinite(sw.error_pct()));
    }
  }
  EXPECT_GE(switches, 1u);

  const std::string text = ExplainAnalyze(result);
  EXPECT_NE(text.find("EXPLAIN ANALYZE  q3"), std::string::npos);
  EXPECT_NE(text.find("engine steps "), std::string::npos);
  EXPECT_NE(text.find("pipeline "), std::string::npos);
  EXPECT_NE(text.find("switch -> optimized: predicted"), std::string::npos);
  EXPECT_NE(text.find("realized"), std::string::npos);
  EXPECT_NE(text.find("error"), std::string::npos);

  const std::string json = ExplainAnalyzeJson(result);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"plan\":\"q3\""), std::string::npos);
  EXPECT_NE(json.find("\"pipelines\":["), std::string::npos);
  EXPECT_NE(json.find("\"switches\":["), std::string::npos);
}

// The per-mode counts come from the run itself, so they stay exact when
// the trace rings wrap: 64-event rings overflow within these few queries.
// The registry's morsel, compile and mode-switch metrics fold from the
// same result, so each query moves them by exactly its result's sums.
TEST_F(ObsEngineTest, ModeCountsStayExactWhenTraceRingsWrap) {
  setenv("AQE_TRACE_RING_EVENTS", "64", 1);
  QueryEngine engine(&catalog(), 2);
  unsetenv("AQE_TRACE_RING_EVENTS");
  const auto compile_us_count = [](const MetricsSnapshot& snap) {
    const HistogramSnapshot* h = snap.histogram("jit.compile_us");
    return h != nullptr ? h->count : 0;
  };
  uint64_t total_compiles = 0;  // warm runs seed cached code, compile none
  for (int number : {6, 3}) {
    QueryProgram program = BuildTpchQuery(number, catalog());
    for (bool single_threaded : {true, false}) {
      QueryRunOptions options = ForcedSwitchOptions();
      options.single_threaded = single_threaded;
      const MetricsSnapshot before = engine.ObservabilitySnapshot();
      QueryRunResult result = engine.Run(program, options);
      ASSERT_FALSE(result.rows.empty());
      const MetricsSnapshot after = engine.ObservabilitySnapshot();
      const auto delta = [&](const char* name) {
        return after.counter(name) - before.counter(name);
      };
      uint64_t morsels = 0;
      uint64_t compiles = 0;
      uint64_t switches = 0;
      for (const PipelineReport& pp : result.pipelines) {
        compiles += pp.compiles.size();
        switches += pp.mode_switches.size();
        uint64_t tuples = 0;
        double wall = 0;
        for (const ModeSliceProfile& m : pp.modes) {
          morsels += m.morsels;
          tuples += m.tuples;
          wall += m.wall_seconds;
        }
        EXPECT_EQ(tuples, pp.tuples) << result.plan_name << " " << pp.name;
        EXPECT_NEAR(wall, pp.exec_seconds, 1e-6)
            << result.plan_name << " " << pp.name;
      }
      const std::string where =
          result.plan_name + (single_threaded ? " single" : " 2 workers");
      EXPECT_EQ(morsels, delta("exec.morsels")) << where;
      EXPECT_EQ(compiles, delta("jit.compiles")) << where;
      EXPECT_EQ(compiles, compile_us_count(after) - compile_us_count(before))
          << where;
      EXPECT_EQ(switches, delta("adaptive.mode_switches")) << where;
      total_compiles += compiles;
    }
  }
  EXPECT_GT(total_compiles, 0u);
  uint64_t dropped = 0;
  for (const auto& lane : engine.tracer().lane_stats()) {
    dropped += lane.dropped;
  }
  EXPECT_GT(dropped, 0u);  // the rings really wrapped
}

// Golden output: a hand-built result (one pruned pipeline, two mode
// slices, one switch; a second pipeline whose switch's code never ran).
// Every JSON key and ExplainAnalyze line is pinned. Engine steps, compile
// time and the compile count are derived from it.
TEST(ExplainAnalyzeTest, JsonAndTextGolden) {
  QueryRunResult result;
  result.query_id = 7;
  result.plan_name = "golden \"plan\"";
  result.total_seconds = 0.0125;
  result.queue_wait_seconds = 0.0005;
  result.exec_seconds_total = 0.01;
  result.on_cpu_seconds = 0.015;
  result.compile_millis_total = 2;
  result.cache_hits = 2;
  result.peak_memory_bytes = 65536;
  PipelineReport pp;
  pp.name = "scan lineitem";
  pp.pipeline_index = 1;
  pp.tuples = 40000;
  pp.exec_seconds = 0.009;
  pp.exec_only_seconds = 0.007;
  pp.initial_mode = ExecMode::kBytecode;
  pp.final_mode = ExecMode::kOptimized;
  pp.artifact_cache_hit = true;
  // analyzed, table/selected rows, zone blocks total/pruned, candidate
  // rows, posting entries, domain ranges, path, analysis seconds.
  pp.pruning = {true, 160000, 40000, 40, 30, 0, 12, 5,
                AccessPathKind::kZoneMap, 0.00025};
  pp.pruning_cache_hit = true;
  // mode, morsels, tuples, busy, wall.
  pp.modes.push_back({ExecMode::kBytecode, 4, 10000, 0.004, 0.002});
  pp.modes.push_back({ExecMode::kOptimized, 6, 30000, 0.003, 0.0015});
  // target, decision, r0, remaining, T(current), T(chosen), realized.
  pp.mode_switches.push_back(
      {ExecMode::kOptimized, 0, 2500000, 30000, 0.006, 0.004, 0.005});
  pp.compiles.emplace_back(ExecMode::kOptimized, 0.002);
  result.pipelines.push_back(pp);
  // Its compile finished after the drain (or was aborted, or failed): the
  // switch has no compile in the report.
  PipelineReport late;
  late.name = "scan orders";
  late.pipeline_index = 2;
  late.tuples = 1000;
  late.exec_seconds = 0.001;
  late.exec_only_seconds = 0.001;
  late.modes.push_back({ExecMode::kBytecode, 1, 1000, 0.0005, 0.001});
  late.mode_switches.push_back(
      {ExecMode::kUnoptimized, 0, 2000000, 500, 0.00025, 0.0002, 0.0005});
  result.pipelines.push_back(late);

  EXPECT_EQ(ExplainAnalyzeJson(result),
      "{\"query\":7,\"plan\":\"golden \\\"plan\\\"\",\"total_s\":0.012500"
      ",\"queue_wait_s\":0.000500,\"exec_s\":0.010000"
      ",\"engine_step_s\":0.002000,\"on_cpu_s\":0.015000,\"compile_s\":0.002000"
      ",\"compiles\":1,\"cache_hits\":2,\"peak_memory_bytes\":65536"
      ",\"pipelines\":[{\"name\":\"scan lineitem\",\"index\":1,\"tuples\":40000"
      ",\"wall_s\":0.009000,\"exec_only_s\":0.007000"
      ",\"initial_mode\":\"bytecode\",\"final_mode\":\"optimized\""
      ",\"cache_hit\":true,\"pruning\":{\"path\":\"zone-map\""
      ",\"selected_rows\":40000,\"table_rows\":160000"
      ",\"selected_fraction\":0.250000,\"zone_blocks_pruned\":30"
      ",\"zone_blocks_total\":40,\"posting_entries\":12,\"domain_ranges\":5"
      ",\"analysis_s\":0.000250,\"cached\":true}"
      ",\"modes\":[{\"mode\":\"bytecode\",\"morsels\":4,\"tuples\":10000"
      ",\"busy_s\":0.004000,\"wall_s\":0.002000,\"tuples_per_s\":2500000}"
      ",{\"mode\":\"optimized\",\"morsels\":6,\"tuples\":30000"
      ",\"busy_s\":0.003000,\"wall_s\":0.001500,\"tuples_per_s\":10000000}]"
      ",\"switches\":[{\"target\":\"optimized\",\"r0\":2500000.0"
      ",\"remaining\":30000,\"t_current_s\":0.006000,\"predicted_s\":0.004000"
      ",\"realized_s\":0.005000,\"error_pct\":25.0,\"ran\":true}]}"
      ",{\"name\":\"scan orders\",\"index\":2,\"tuples\":1000"
      ",\"wall_s\":0.001000,\"exec_only_s\":0.001000"
      ",\"initial_mode\":\"bytecode\",\"final_mode\":\"bytecode\""
      ",\"cache_hit\":false"
      ",\"modes\":[{\"mode\":\"bytecode\",\"morsels\":1,\"tuples\":1000"
      ",\"busy_s\":0.000500,\"wall_s\":0.001000,\"tuples_per_s\":2000000}]"
      ",\"switches\":[{\"target\":\"unoptimized\",\"r0\":2000000.0"
      ",\"remaining\":500,\"t_current_s\":0.000250,\"predicted_s\":0.000200"
      ",\"realized_s\":0.000500,\"error_pct\":150.0,\"ran\":false}]}]}");
  EXPECT_EQ(ExplainAnalyze(result),
      "EXPLAIN ANALYZE  golden \"plan\"  (query 7)\n"
      "  total 12.500 ms = queue 0.500 ms + service 12.000 ms; "
      "exec 10.000 ms; on-cpu 15.000 ms\n"
      "  compile 2.000 ms this query (1 jits, 2 cache hits)\n"
      "  engine steps 2.000 ms (finalize / merge / top-k)\n"
      "  peak memory 65536 bytes\n"
      "  pipeline 1 \"scan lineitem\": 9.000 ms wall (7.000 ms exec-only), "
      "40000 tuples, bytecode -> optimized, cache hit\n"
      "    access path zone-map  : 40000 / 160000 rows scheduled (25.0%), "
      "30 / 40 zone blocks pruned, 12 posting entries, 5 ranges, "
      "analysis 0.250 ms  [cached decision]\n"
      "    mode bytecode   :      4 morsels,      10000 tuples, "
      "   4.000 ms busy,    2.000 ms wall,    2.50 M tuples/s\n"
      "    mode optimized  :      6 morsels,      30000 tuples, "
      "   3.000 ms busy,    1.500 ms wall,   10.00 M tuples/s\n"
      "    switch -> optimized: predicted 4.000 ms (stay: 6.000 ms), "
      "realized 5.000 ms, error +25.0%  [r0=2500000 t/s, "
      "30000 tuples remained]\n"
      "  pipeline 2 \"scan orders\": 1.000 ms wall (1.000 ms exec-only), "
      "1000 tuples, bytecode -> bytecode\n"
      "    mode bytecode   :      1 morsels,       1000 tuples, "
      "   0.500 ms busy,    1.000 ms wall,    2.00 M tuples/s\n"
      "    switch -> unoptimized: predicted 0.200 ms (stay: 0.250 ms), "
      "realized 0.500 ms, error +150.0%  [r0=2000000 t/s, "
      "500 tuples remained]  (its code never ran)\n");
}

// Plan names come from the caller of Submit, so they can be any length:
// names past the renderer's stack buffer come back whole, escaped, in JSON
// that still balances.
TEST(ExplainAnalyzeTest, LongNamesComeBackWhole) {
  QueryRunResult result;
  result.plan_name = std::string(600, 'p') + "\"\x01";
  PipelineReport pp;
  pp.name = std::string(600, 's') + "\\";
  result.pipelines.push_back(pp);

  const std::string json = ExplainAnalyzeJson(result);
  EXPECT_NE(json.find("\"plan\":\"" + std::string(600, 'p') +
                      "\\\"\\u0001\",\"total_s\":"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"" + std::string(600, 's') +
                      "\\\\\",\"index\":"),
            std::string::npos);
  EXPECT_EQ(json.back(), '}');
  ExpectBalancedJson(json);
}

// --- Regression sentinel ---------------------------------------------------

TEST_F(ObsEngineTest, SentinelFlagsCacheEvictionSlowdownAndNamesCause) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q3 = BuildTpchQuery(3, catalog());
  // Adaptive with a modeled 100x speedup, single-threaded so compilation
  // blocks the query: the cold run pays the JIT wall time, warm runs reuse
  // cached machine code, and a forced eviction pays it again.
  QueryRunOptions options = ForcedSwitchOptions();
  options.single_threaded = true;
  // The sentinel folds recorded service times, not live timing, so host
  // load cannot widen its MAD guard or flag a warm run. Recorded from this
  // sequence (ms, queue wait excluded) on a 4-core x86-64 VM: the cold
  // run, 24 warm runs, then the rerun after the eviction.
  const std::vector<double> recorded_ms = {
      30.41, 1.43, 1.40, 1.41, 1.36, 1.38, 1.20, 1.24, 1.21,
      1.22,  1.12, 0.99, 1.34, 1.19, 1.34, 1.20, 1.31, 1.27,
      1.14,  1.49, 1.33, 1.26, 1.44, 1.14, 1.36, 28.06};
  QueryEngineTestPeer::sentinel(engine).ReplayServiceTimes(recorded_ms);
  // Enough warm runs for the MAD guard to decay past the cold first run's
  // compile spike (the sentinel deliberately arms slowly after a cold
  // start so one-off compiles never alert).
  for (int i = 0; i < 25; ++i) {
    ASSERT_FALSE(engine.Run(q3, options).rows.empty());
  }
  // Warm phase is quiet at the default deviation factor.
  EXPECT_EQ(engine.ObservabilitySnapshot().counter("engine.anomalies"), 0u);
  EXPECT_TRUE(engine.RecentAnomalies().empty());

  // Evict everything: the rerun re-creates the plan's entry and pays
  // codegen + translation + compilation again, which dwarfs this plan's
  // warm service time.
  engine.set_anomaly_deviation_factor(1.3);
  engine.ClearArtifactCache();
  ASSERT_FALSE(engine.Run(q3, options).rows.empty());
  // Every run folded exactly one recorded time.
  EXPECT_EQ(QueryEngineTestPeer::sentinel(engine).observed_runs(),
            recorded_ms.size());

  bool flagged = false;
  for (const AnomalyRecord& a : engine.RecentAnomalies()) {
    if (a.cause != AnomalyCause::kCacheEvicted) continue;
    flagged = true;
    EXPECT_GT(a.observed_ms, a.expected_ms);
    EXPECT_EQ(a.plan_name, "q3");
  }
  ASSERT_TRUE(flagged);

  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  EXPECT_GE(snap.counter("engine.anomalies"), 1u);
  EXPECT_GE(snap.counter("engine.anomalies.cache_evicted"), 1u);
  EXPECT_EQ(snap.counter("engine.anomalies.mode_regressed"), 0u);

  // The kAnomaly instant landed in the trace for the exporters.
  bool traced = false;
  for (const auto& lane : engine.tracer().Snapshot().lanes) {
    for (const TraceEvent& e : lane.events) {
      if (e.kind == TraceEventKind::kAnomaly &&
          static_cast<AnomalyCause>(e.detail) ==
              AnomalyCause::kCacheEvicted) {
        traced = true;
        EXPECT_GT(e.d1, e.d0);  // observed > expected
      }
    }
  }
  EXPECT_TRUE(traced);
  EXPECT_NE(engine.ExportChromeTrace().find("\"name\":\"anomaly\""),
            std::string::npos);
}

// --- Snapshot / reset coherence --------------------------------------------

TEST_F(ObsEngineTest, SnapshotNeverObservesHalfAReset) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  constexpr uint64_t kQueries = 3;
  for (uint64_t i = 0; i < kQueries; ++i) {
    ASSERT_FALSE(engine.Run(q6).rows.empty());
  }
  // With the engine quiesced, engine.queries_completed and
  // cache.cost_feedback_updates are frozen and equal. A reset zeroes both under the stats epoch lock,
  // so every concurrent snapshot sees them equal — all-old or all-new,
  // never a mix. The TSan CI leg runs this test.
  std::atomic<bool> stop{false};
  std::thread resetter([&] {
    for (int i = 0; i < 100; ++i) engine.ResetObservabilityStats();
    stop.store(true);
  });
  uint64_t snapshots = 0;
  int64_t last_epoch = -1;
  while (!stop.load()) {
    MetricsSnapshot snap = engine.ObservabilitySnapshot();
    ++snapshots;
    const uint64_t completed = snap.counter("engine.queries_completed");
    ASSERT_TRUE(completed == 0 || completed == kQueries) << completed;
    ASSERT_EQ(completed, snap.counter("cache.cost_feedback_updates"));
    ASSERT_EQ(completed, snap.counter("engine.queries_submitted"));
    for (const auto& [name, value] : snap.gauges) {
      if (name == "obs.epoch") {
        ASSERT_GE(value, last_epoch);  // epochs only move forward
        last_epoch = value;
      }
    }
  }
  resetter.join();
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(engine.ObservabilitySnapshot().gauges.back().second, 100);
}

// --- QueryMemoryTracker ----------------------------------------------------

TEST(MemoryTrackerTest, LargeChargesAreExactAndPeakIsHighWater) {
  QueryMemoryTracker t;
  t.Charge(1u << 20);
  t.Charge(2u << 20);
  EXPECT_EQ(t.current_bytes(), 3u << 20);
  EXPECT_EQ(t.peak_bytes(), 3u << 20);
  t.Release(2u << 20);
  EXPECT_EQ(t.current_bytes(), 1u << 20);
  EXPECT_EQ(t.peak_bytes(), 3u << 20);  // high-water never recedes
  t.Release(1u << 20);
  EXPECT_EQ(t.current_bytes(), 0u);
}

TEST(MemoryTrackerTest, SmallChargesStayExactInCurrent) {
  QueryMemoryTracker t;
  for (int i = 0; i < 1000; ++i) t.Charge(100);
  EXPECT_EQ(t.current_bytes(), 100000u);
  EXPECT_GT(t.peak_bytes(), 0u);
  for (int i = 0; i < 1000; ++i) t.Release(100);
  EXPECT_EQ(t.current_bytes(), 0u);
}

TEST(MemoryTrackerTest, TransientChargeIsInThePeak) {
  // A charge released before any slice boundary still sets the peak.
  QueryMemoryTracker t;
  t.Charge(40u << 10);
  t.Release(40u << 10);
  EXPECT_EQ(t.current_bytes(), 0u);
  EXPECT_EQ(t.peak_bytes(), 40u << 10);
}

TEST(MemoryTrackerTest, SmallChargesLatchTheBudgetAtOnce) {
  // The charge that crosses the limit latches it, however small.
  QueryMemoryTracker t;
  t.set_soft_limit(10u << 10);
  t.Charge(4u << 10);
  t.Charge(4u << 10);
  EXPECT_FALSE(t.over_budget());
  t.Charge(4u << 10);
  EXPECT_TRUE(t.over_budget());
}

TEST(MemoryTrackerTest, SoftLimitLatchesAndNeverUnlatches) {
  QueryMemoryTracker t;
  t.set_soft_limit(1u << 20);
  EXPECT_FALSE(t.over_budget());
  t.Charge(512u << 10);
  EXPECT_FALSE(t.over_budget());
  t.Charge(1u << 20);  // crosses the limit
  EXPECT_TRUE(t.over_budget());
  // Releasing below the limit does not unlatch: a query that ever exceeded
  // its budget is failed, not forgiven.
  t.Release(1u << 20);
  t.Release(512u << 10);
  EXPECT_EQ(t.current_bytes(), 0u);
  EXPECT_TRUE(t.over_budget());
}

TEST(MemoryTrackerTest, ConcurrentChargeReleaseBalancesToZero) {
  // TSan matrix target: threads hammer matched charge/release pairs on the
  // one counter; the books must balance exactly afterwards.
  QueryMemoryTracker t;
  constexpr int kThreads = 4, kIters = 20000;
  std::vector<std::thread> threads;
  for (int c = 0; c < kThreads; ++c) {
    threads.emplace_back([&t] {
      for (int i = 0; i < kIters; ++i) {
        t.Charge(4096);
        t.Charge(96 << 10);
        t.Release(96 << 10);
        t.Release(4096);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.current_bytes(), 0u);
  // Each thread held at most 100 KB.
  EXPECT_GT(t.peak_bytes(), 0u);
  EXPECT_LE(t.peak_bytes(), static_cast<uint64_t>(kThreads) * (100u << 10));
}

// --- Trace-ring saturation: bulk sampling vs lossless criticals ------------

TEST(EngineTracerTest, BulkSamplingUnderPressureKeepsCriticalsLossless) {
  EngineTracer tracer(/*ring_capacity=*/8);
  // 40 bulk morsel events into a capacity-8 ring: once wrapped, further
  // bulk events are decimated 1-in-kBulkSampleEvery and the skips are
  // accounted as dropped_sampled — deliberate sampling, not loss.
  for (uint64_t i = 0; i < 40; ++i) tracer.Record(1, MakeEvent(i));
  // Critical events land in their own ring and must all survive.
  for (uint64_t i = 0; i < 5; ++i) {
    TraceEvent e = MakeEvent(100 + i);
    e.kind = TraceEventKind::kModeSwitch;
    tracer.Record(1, e);
  }
  EXPECT_EQ(tracer.total_recorded(), 45u);
  EXPECT_GT(tracer.total_dropped_sampled(), 0u);
  EXPECT_EQ(tracer.total_dropped_lost(), 0u);
  EXPECT_EQ(tracer.total_dropped(),
            tracer.total_dropped_sampled() + tracer.total_dropped_lost());

  TraceSnapshot snap = tracer.Snapshot();
  size_t switches = 0, morsels = 0;
  for (const auto& lane : snap.lanes) {
    EXPECT_EQ(lane.dropped, lane.dropped_sampled + lane.dropped_lost);
    for (const TraceEvent& e : lane.events) {
      switches += e.kind == TraceEventKind::kModeSwitch;
      morsels += e.kind == TraceEventKind::kMorsel;
    }
  }
  EXPECT_EQ(switches, 5u);  // every critical event retained
  EXPECT_GT(morsels, 0u);   // a sampled residue of the bulk stream remains
}

// --- Zero-count histogram suppression in exports ---------------------------

TEST(MetricsRegistryTest, ZeroCountHistogramsOmittedFromExportsOnly) {
  MetricsRegistry reg;
  reg.GetHistogram("empty.h");  // registered, never recorded
  reg.GetHistogram("used.h")->Record(5);
  MetricsSnapshot snap = reg.Snapshot();
  // The in-memory snapshot keeps both (programmatic consumers see the
  // registry as-is) ...
  ASSERT_EQ(snap.histograms.size(), 2u);
  ASSERT_NE(snap.histogram("empty.h"), nullptr);
  // ... but the serialized exports skip count == 0 series so per-class
  // histogram families don't bloat /metrics with empty classes.
  const std::string json = snap.ToJson();
  EXPECT_EQ(json.find("empty.h"), std::string::npos);
  EXPECT_NE(json.find("used.h"), std::string::npos);
  const std::string prom = PrometheusText(snap);
  EXPECT_EQ(prom.find("aqe_empty_h"), std::string::npos);
  EXPECT_NE(prom.find("aqe_used_h"), std::string::npos);
}

// --- Per-class memory budgets (engine) -------------------------------------

TEST_F(ObsEngineTest, QueryResultsReportPeakMemory) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q1 = BuildTpchQuery(1, catalog());
  QueryRunResult r = engine.Run(q1);
  ASSERT_FALSE(r.rows.empty());
  // Q1 builds an aggregation table and output chunks — all tracked.
  EXPECT_GT(r.peak_memory_bytes, 0u);
  const std::string text = ExplainAnalyze(r);
  EXPECT_NE(text.find("(query " + std::to_string(r.query_id) + ")"),
            std::string::npos);
  EXPECT_NE(text.find("peak memory " + std::to_string(r.peak_memory_bytes) +
                      " bytes"),
            std::string::npos);

  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  const auto* h = snap.histogram("mem.query_peak_bytes.class0");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(h->max, r.peak_memory_bytes);
  int64_t peak_gauge = -1, current_gauge = -1;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "mem.peak_bytes") peak_gauge = value;
    if (name == "mem.current_bytes") current_gauge = value;
  }
  EXPECT_EQ(peak_gauge, static_cast<int64_t>(r.peak_memory_bytes));
  EXPECT_GE(current_gauge, 0);
}

TEST_F(ObsEngineTest, PeakMemoryCoversMergedAggregationTable) {
  // Q18 groups lineitem by orderkey, one group per order. Each worker's
  // table stays within kAggTableBytes and spills to 16 runs of 16-byte
  // [key, sum] entries, and the merge folds each run in place. So the peak
  // holds every group once in the runs, but no table of every group, and
  // each more worker adds at most its own table.
  QueryRunOptions single;
  single.single_threaded = true;
  QueryEngine one(&catalog(), 1);
  const uint64_t peak1 =
      one.Run(BuildTpchQuery(18, catalog()), single).peak_memory_bytes;
  QueryEngine four(&catalog(), 4);
  const uint64_t peak4 =
      four.Run(BuildTpchQuery(18, catalog())).peak_memory_bytes;

  const uint64_t groups = catalog().GetTable("orders")->num_rows();
  const uint64_t run_bytes = groups * 16;
  // The table a single worker grew before tables were capped: 17 bytes a
  // slot (8 key, 8 sum, 1 occupancy), at most 3/4 full.
  uint64_t slots = 64;
  while (groups * 4 > slots * 3) slots *= 2;
  const uint64_t table_bytes = slots * 17;
  for (const uint64_t peak : {peak1, peak4}) EXPECT_GE(peak, run_bytes);
  EXPECT_LT(peak1, table_bytes);
  EXPECT_LE(peak4, peak1 + 3 * kAggTableBytes);
}

TEST_F(ObsEngineTest, AdmissionRejectsOverBudgetClassAndSparesOthers) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  QueryRunOptions options;
  options.query_class = 3;
  // Learn the footprint: warm runs seed the fingerprint's peak EWMA that
  // admission consults.
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(engine.Run(q6, options).rows.empty());
  }

  engine.set_class_memory_budget(3, 1024);  // far below any real footprint
  bool threw = false;
  try {
    engine.Run(q6, options);
  } catch (const MemoryBudgetExceeded& e) {
    threw = true;
    EXPECT_TRUE(e.at_admission());
    EXPECT_EQ(e.query_class(), 3);
    EXPECT_EQ(e.budget_bytes(), 1024u);
    EXPECT_GT(e.attempted_bytes(), 1024u);
    EXPECT_NE(std::string(e.what()).find("admission"), std::string::npos);
  }
  ASSERT_TRUE(threw);
  // The uncapped class is untouched by class 3's budget.
  QueryRunOptions class0;
  class0.query_class = 0;
  EXPECT_FALSE(engine.Run(q6, class0).rows.empty());

  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  EXPECT_EQ(snap.counter("mem.budget_rejections.admission"), 1u);
  EXPECT_EQ(snap.counter("mem.budget_rejections.runtime"), 0u);
  // A rejected query never ran: submitted 5, completed 4.
  EXPECT_EQ(snap.counter("engine.queries_submitted"), 5u);
  EXPECT_EQ(snap.counter("engine.queries_completed"), 4u);

  // Lifting the budget readmits the class.
  engine.set_class_memory_budget(3, 0);
  EXPECT_FALSE(engine.Run(q6, options).rows.empty());
}

TEST_F(ObsEngineTest, AdmissionEstimateSurvivesCacheEviction) {
  QueryEngine engine(&catalog(), 2);
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  QueryRunOptions options;
  options.query_class = 3;
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(engine.Run(q6, options).rows.empty());
  }
  // Evicting the plan's artifacts must not forget its learned footprint:
  // the next submit is rejected at admission, not admitted to fail at its
  // first allocation.
  engine.ClearArtifactCache();
  ASSERT_EQ(engine.artifact_cache_stats().entries, 0u);
  engine.set_class_memory_budget(3, 1024);
  bool threw = false;
  try {
    engine.Run(q6, options);
  } catch (const MemoryBudgetExceeded& e) {
    threw = true;
    EXPECT_TRUE(e.at_admission());
    EXPECT_EQ(e.query_class(), 3);
  }
  ASSERT_TRUE(threw);
  MetricsSnapshot snap = engine.ObservabilitySnapshot();
  EXPECT_EQ(snap.counter("mem.budget_rejections.admission"), 1u);
  EXPECT_EQ(snap.counter("mem.budget_rejections.runtime"), 0u);
}

TEST_F(ObsEngineTest, RuntimeBudgetCrossingFailsTypedMidQuery) {
  // Fresh engine: no learned footprint, so a tiny budget passes admission
  // (estimate 0) and the tracker crosses it at the first allocation; the
  // engine fails the query at a slice boundary with at_admission()==false.
  QueryEngine engine(&catalog(), 2);
  engine.set_class_memory_budget(2, 1);
  QueryProgram q1 = BuildTpchQuery(1, catalog());
  QueryRunOptions options;
  options.query_class = 2;
  bool threw = false;
  try {
    engine.Run(q1, options);
  } catch (const MemoryBudgetExceeded& e) {
    threw = true;
    EXPECT_FALSE(e.at_admission());
    EXPECT_EQ(e.query_class(), 2);
    EXPECT_EQ(e.budget_bytes(), 1u);
    EXPECT_GT(e.attempted_bytes(), 1u);
  }
  ASSERT_TRUE(threw);
  EXPECT_GE(engine.ObservabilitySnapshot().counter(
                "mem.budget_rejections.runtime"),
            1u);
  // The runtime failure fed the observed peak back into the fingerprint's
  // admission estimate: resubmitting the same plan under the same budget
  // is rejected at admission, without executing to the failure point.
  threw = false;
  try {
    engine.Run(q1, options);
  } catch (const MemoryBudgetExceeded& e) {
    threw = true;
    EXPECT_TRUE(e.at_admission());
    EXPECT_EQ(e.query_class(), 2);
  }
  ASSERT_TRUE(threw);
  EXPECT_GE(engine.ObservabilitySnapshot().counter(
                "mem.budget_rejections.admission"),
            1u);
  // The engine stays healthy: the same query completes once uncapped.
  engine.set_class_memory_budget(2, 0);
  EXPECT_FALSE(engine.Run(q1, options).rows.empty());
}

/// What the flamegraph must hold after `results` ran, computed from the
/// results alone: per query and stack, the llround in µs of the times the
/// result holds, summed over queries; zero-weight stacks have no line.
/// `frame` maps a plan name to its escaped flamegraph frame.
std::map<std::string, uint64_t> ExpectedStacks(
    const std::vector<QueryRunResult>& results,
    const std::function<std::string(const std::string&)>& frame) {
  std::map<std::string, uint64_t> stacks;
  for (const QueryRunResult& r : results) {
    const std::string plan = "engine;" + frame(r.plan_name) + ";";
    std::map<std::string, double> seconds;
    double exec_only = 0;
    for (const PipelineReport& pp : r.pipelines) {
      const std::string pipeline =
          plan + "pipeline" + std::to_string(pp.pipeline_index) + ";";
      for (const ModeSliceProfile& m : pp.modes) {
        // A baseline's morsels are named for its engine.
        const char* mode = r.engine == EngineKind::kCompiled
                               ? ExecModeName(m.mode)
                               : EngineKindName(r.engine);
        seconds[pipeline + mode + ";morsel"] += m.busy_seconds;
      }
      for (const auto& [mode, compile_seconds] : pp.compiles) {
        seconds[pipeline + ExecModeName(mode) + ";compile"] +=
            compile_seconds;
      }
      seconds[pipeline + "codegen"] +=
          (pp.codegen_millis + pp.translate_millis) / 1e3;
      exec_only += pp.exec_only_seconds;
    }
    seconds[plan + "engine-step"] =
        std::max(0.0, r.exec_seconds_total - exec_only);
    for (const auto& [stack, sec] : seconds) {
      stacks[stack] += static_cast<uint64_t>(std::llround(sec * 1e6));
    }
  }
  for (auto it = stacks.begin(); it != stacks.end();) {
    it = it->second == 0 ? stacks.erase(it) : std::next(it);
  }
  return stacks;
}

/// Parses collapsed-stack text, checking each line's shape.
std::map<std::string, uint64_t> ParseStacks(const std::string& text) {
  const std::regex collapsed_line("[^ ;]+(;[^ ;]+)* [0-9]+");
  std::map<std::string, uint64_t> stacks;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    EXPECT_TRUE(std::regex_match(line, collapsed_line)) << line;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    EXPECT_TRUE(stacks
                    .emplace(line.substr(0, space),
                             std::stoull(line.substr(space + 1)))
                    .second)
        << "duplicate stack: " << line;
  }
  return stacks;
}

bool HasStackEndingIn(const std::map<std::string, uint64_t>& stacks,
                      const std::string& suffix) {
  for (const auto& entry : stacks) {
    const std::string& stack = entry.first;
    if (stack.size() >= suffix.size() &&
        stack.compare(stack.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return true;
    }
  }
  return false;
}

// The flamegraph is exact: each frame's weight is the sum over the queries
// that ran of one rounded µs figure their results already hold, so it can
// be checked to the microsecond with no sampling and no waiting.
TEST_F(ObsEngineTest, FlamegraphIsTheSumOfEachRunsExactTimes) {
  QueryEngine engine(&catalog(), 2);
  std::vector<QueryRunResult> results;
  for (int number : {1, 3, 6}) {
    QueryProgram program = BuildTpchQuery(number, catalog());
    // Q6 single-threaded: its forced switch compiles inline, so its report
    // holds a compile. On 2 workers a compile may end after its pipeline
    // drained, and then adds nothing to the report.
    QueryRunOptions options = ForcedSwitchOptions();
    options.single_threaded = number == 6;
    results.push_back(engine.Run(program, options));
    ASSERT_FALSE(results.back().rows.empty());
  }
  QueryProgram q6 = BuildTpchQuery(6, catalog());
  QueryRunOptions volcano;
  volcano.engine = EngineKind::kVolcano;
  results.push_back(engine.Run(q6, volcano));

  // A caller-chosen plan name with a space, a ';', a control byte and
  // more bytes than any fixed frame buffer: escaped, never truncated.
  const std::string odd_name = "a b;c\x01" + std::string(300, 'x');
  const std::string odd_frame = "a_b_c_" + std::string(300, 'x');
  QueryProgram odd(odd_name);
  {
    const Table* lineitem = catalog().GetTable("lineitem");
    PipelineSpec scan;
    scan.name = "scan lineitem";
    scan.source_table = odd.DeclareBaseTable("lineitem");
    scan.scan_columns = {lineitem->ColumnIndex("l_quantity")};
    std::vector<AggItem> items;
    items.push_back({AggKind::kSum, Slot(0), true});
    SinkAgg sink;
    sink.agg = odd.DeclareAggSet({AggKind::kSum});
    sink.key = I64(0);
    sink.items = std::move(items);
    scan.sink = std::move(sink);
    odd.AddPipeline(std::move(scan));
  }
  results.push_back(engine.Run(odd));

  const std::map<std::string, uint64_t> stacks =
      ParseStacks(engine.CollapsedStacks());
  EXPECT_EQ(stacks, ExpectedStacks(results, [&](const std::string& name) {
              return name == odd_name ? odd_frame : name;
            }));
  // Every kind of frame is present: morsels per mode and a volcano
  // pipeline's morsels, the forced switches' compiles, codegen and engine
  // steps.
  for (const char* suffix : {";bytecode;morsel", ";volcano;morsel", ";compile",
                             ";codegen", ";engine-step"}) {
    EXPECT_TRUE(HasStackEndingIn(stacks, suffix)) << suffix;
  }
  EXPECT_TRUE(stacks.count("engine;" + odd_frame + ";pipeline0;codegen"));

  engine.ResetObservabilityStats();
  EXPECT_EQ(engine.CollapsedStacks(), "");
}

TEST(FlamegraphTest, NewStacksPastTheBoundGoToOverflow) {
  Flamegraph flamegraph;
  const size_t plans = Flamegraph::kMaxStacks + 4;
  for (size_t i = 0; i < plans; ++i) {
    QueryRunResult result;  // no pipelines: one engine-step stack of 2 µs
    result.plan_name = "p" + std::to_string(i);
    result.exec_seconds_total = 2e-6;
    flamegraph.Add(result);
  }
  QueryRunResult known;
  known.plan_name = "p0";
  known.exec_seconds_total = 3e-6;
  flamegraph.Add(known);  // an existing stack still grows
  const std::map<std::string, uint64_t> stacks =
      ParseStacks(flamegraph.CollapsedStacks());
  EXPECT_EQ(stacks.size(), Flamegraph::kMaxStacks + 1);
  EXPECT_EQ(stacks.at("engine;p0;engine-step"), 5u);
  EXPECT_EQ(stacks.at("engine;overflow"), 4u * 2);
  flamegraph.Clear();
  EXPECT_EQ(flamegraph.CollapsedStacks(), "");
}

// --- Stats server ----------------------------------------------------------

std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  ::send(fd, req.data(), req.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(ObsEngineTest, StatsServerServesMetricsTraceAndProfiles) {
  QueryEngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.stats_port = 0;  // ephemeral
  QueryEngine engine(&catalog(), engine_options);
  ASSERT_GT(engine.stats_port(), 0);

  QueryProgram q6 = BuildTpchQuery(6, catalog());
  const QueryRunResult result = engine.Run(q6);
  ASSERT_FALSE(result.rows.empty());

  const std::string metrics = HttpGet(engine.stats_port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE aqe_engine_queries_completed counter\n"
                         "aqe_engine_queries_completed 1\n"),
            std::string::npos);
  EXPECT_NE(metrics.find("aqe_engine_exec_latency_us_class0_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("aqe_cache_bytes "), std::string::npos);
  // Prometheus text 0.0.4, line by line: a TYPE line of a known type or a
  // sample, and every histogram closes with a +Inf bucket.
  const std::regex type_line(
      "# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)");
  const std::regex sample_line(
      "[a-zA-Z_:][a-zA-Z0-9_:]*(\\{[^{}]*\\})? "
      "(-?[0-9]+(\\.[0-9]+)?([eE][+-]?[0-9]+)?|\\+Inf|-Inf|NaN)");
  std::map<std::string, std::string> series;
  std::map<std::string, double> samples;
  std::istringstream body(metrics.substr(metrics.find("\r\n\r\n") + 4));
  for (std::string line; std::getline(body, line);) {
    std::smatch m;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      ASSERT_TRUE(std::regex_match(line, m, type_line)) << line;
      series[m[1]] = m[2];
    } else {
      ASSERT_TRUE(std::regex_match(line, sample_line)) << line;
      const size_t space = line.rfind(' ');
      samples[line.substr(0, space)] = std::atof(line.c_str() + space + 1);
    }
  }
  EXPECT_GE(series.size(), 30u);  // well over the bar even on one query
  for (const auto& [name, type] : series) {
    if (type == "histogram") {
      EXPECT_EQ(samples.count(name + "_bucket{le=\"+Inf\"}"), 1u) << name;
    }
  }
  // The memory gauges, and the catalog footprint split out of peak RSS.
  for (const char* gauge : {"aqe_mem_current_bytes", "aqe_mem_peak_bytes",
                            "aqe_catalog_column_bytes",
                            "aqe_catalog_dictionary_bytes",
                            "aqe_catalog_index_bytes"}) {
    EXPECT_EQ(series[gauge], "gauge") << gauge;
  }
  EXPECT_GT(samples["aqe_catalog_column_bytes"], 0);
  EXPECT_GT(samples["aqe_catalog_dictionary_bytes"], 0);
  EXPECT_GT(samples["aqe_catalog_index_bytes"], 0);

  // Behind the text: names are unique per section, and each histogram's
  // buckets ascend and sum to its count.
  const MetricsSnapshot snap = engine.ObservabilitySnapshot();
  auto expect_unique = [](const auto& section) {
    std::set<std::string> names;
    for (const auto& entry : section) {
      EXPECT_TRUE(names.insert(entry.first).second) << entry.first;
    }
  };
  expect_unique(snap.counters);
  expect_unique(snap.gauges);
  expect_unique(snap.histograms);
  for (const auto& [name, h] : snap.histograms) {
    uint64_t in_buckets = 0, last_upper = 0;
    for (const auto& [upper, n] : h.buckets) {
      EXPECT_GT(upper, last_upper) << name;
      last_upper = upper;
      in_buckets += n;
    }
    EXPECT_EQ(in_buckets, h.count) << name;
  }

  const std::string trace = HttpGet(engine.stats_port(), "/trace.json");
  EXPECT_NE(trace.find("application/json"), std::string::npos);
  EXPECT_NE(trace.find("{\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"morsel\""), std::string::npos);

  const std::string profiles = HttpGet(engine.stats_port(), "/profiles");
  EXPECT_NE(profiles.find("application/json"), std::string::npos);
  EXPECT_NE(profiles.find("\"profiles\":[{"), std::string::npos);
  EXPECT_NE(profiles.find("{\"query\":" + std::to_string(result.query_id) +
                          ",\"plan\":\"q6\""),
            std::string::npos);
  EXPECT_NE(profiles.find("\"anomalies\":[]"), std::string::npos);

  // The flamegraph: collapsed stacks as text, one `frame;frame µs` per
  // line; the one completed query is already in it.
  const std::string profile = HttpGet(engine.stats_port(), "/profile");
  EXPECT_NE(profile.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(profile.find("Content-Type: text/plain\r\n"), std::string::npos);
  const std::map<std::string, uint64_t> stacks =
      ParseStacks(profile.substr(profile.find("\r\n\r\n") + 4));
  EXPECT_TRUE(HasStackEndingIn(stacks, ";morsel"));

  const std::string missing = HttpGet(engine.stats_port(), "/nope");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);
}

size_t ProcessThreads() {
  size_t threads = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++threads;
  }
  ::closedir(dir);
  return threads;
}

TEST_F(ObsEngineTest, StatsServerOffByDefault) {
  const Catalog* tpch = &catalog();  // generated before counting threads
  const size_t threads_before = ProcessThreads();
  ASSERT_GT(threads_before, 0u);
  QueryEngine engine(tpch, 2);
  EXPECT_EQ(engine.stats_port(), -1);
  // The engine's only threads are its scheduler's workers.
  EXPECT_EQ(ProcessThreads() - threads_before, 2u);
}

}  // namespace
}  // namespace aqe
