#ifndef AQE_CACHE_ARTIFACT_CACHE_H_
#define AQE_CACHE_ARTIFACT_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adaptive/controller.h"
#include "cache/fingerprint.h"
#include "exec/function_handle.h"
#include "exec/morsel.h"
#include "index/access_path.h"
#include "jit/jit_compiler.h"
#include "vm/bytecode.h"

namespace aqe {

/// Counters of the plan-keyed artifact cache (QueryEngine's stats API).
/// `bytes`/`entries` are resident footprint; the rest are monotonic.
struct ArtifactCacheStats {
  uint64_t entry_hits = 0;      ///< Submit found the plan's entry
  uint64_t entry_misses = 0;    ///< Submit created a fresh entry
  uint64_t bytecode_hits = 0;   ///< pipeline reused cached bytecode
  /// Always 0: bytecode no longer depends on literals, so every reuse is a
  /// bytecode hit. Kept because the benchmark harness still reads it.
  uint64_t patched_hits = 0;
  uint64_t bytecode_misses = 0; ///< pipeline had to translate
  uint64_t code_hits = 0;       ///< pipeline seeded cached machine code
  uint64_t publishes = 0;       ///< artifacts written back
  uint64_t evictions = 0;       ///< entries dropped by the LRU byte budget
  /// Completed cached queries folded into their plan's record (PlanStats,
  /// obs/regression.h), whose service-time EWMA is what WFQ admission
  /// charges the plan's next submit. Counted by the record keeper
  /// (RegressionTracker::observed_runs); QueryEngine fills it in.
  uint64_t cost_feedback_updates = 0;
  uint64_t bytes = 0;
  uint64_t entries = 0;
};

/// Difference of the monotonic counters (phase deltas: snapshot before a
/// phase, subtract after). `bytes`/`entries` describe the current residency
/// and keep the left-hand side's values.
inline ArtifactCacheStats operator-(const ArtifactCacheStats& a,
                                    const ArtifactCacheStats& b) {
  ArtifactCacheStats d = a;
  d.entry_hits -= b.entry_hits;
  d.entry_misses -= b.entry_misses;
  d.bytecode_hits -= b.bytecode_hits;
  d.bytecode_misses -= b.bytecode_misses;
  d.code_hits -= b.code_hits;
  d.publishes -= b.publishes;
  d.evictions -= b.evictions;
  d.cost_feedback_updates -= b.cost_feedback_updates;
  return d;
}

/// One JIT compilation kept alive by shared ownership: the cache holds a
/// reference while the artifact is resident, every query that uses or
/// produced the code holds another — so LRU eviction can never free machine
/// code a query is still executing.
struct CachedCode {
  std::unique_ptr<CompiledModule> module;
  WorkerFn fn = nullptr;
  uint64_t code_bytes = 0;  ///< CompiledModule::code_bytes()
};

/// At most `kMax` values, each under its own key: inserting an unseen key
/// into a full list replaces the least recently used value. A linear scan:
/// the list is tiny, and its owner's mutex is held around every call.
template <typename Key, typename Value, size_t kMax>
class VariantList {
 public:
  /// The value stored under `key`, or null; `use` makes a found value the
  /// most recently used.
  Value* Find(const Key& key, bool use = false) {
    for (Slot& s : slots_) {
      if (s.key != key) continue;
      if (use) s.last_use = ++clock_;
      return &s.value;
    }
    return nullptr;
  }

  /// The value stored under `key`, made the most recently used. An unseen
  /// key gets a default value; when the list is full it takes the slot of
  /// the least recently used one, whose value moves into `*evicted`.
  Value& Insert(const Key& key, Value* evicted) {
    if (Value* value = Find(key, /*use=*/true)) return *value;
    Slot* slot = nullptr;
    if (slots_.size() < kMax) {
      slot = &slots_.emplace_back();
    } else {
      slot = &*std::min_element(
          slots_.begin(), slots_.end(),
          [](const Slot& a, const Slot& b) { return a.last_use < b.last_use; });
      *evicted = std::move(slot->value);
    }
    *slot = Slot{key, Value{}, ++clock_};
    return slot->value;
  }

  size_t size() const { return slots_.size(); }

 private:
  struct Slot {
    Key key;
    Value value;
    uint64_t last_use = 0;
  };
  std::vector<Slot> slots_;
  uint64_t clock_ = 0;
};

/// Machine code compiled for one exact constant vector (code embeds the
/// literals; bytecode reads them from the binding array).
struct CodeVariant {
  std::shared_ptr<CachedCode> unopt;
  std::shared_ptr<CachedCode> opt;
};

/// One cached scan-pruning decision (src/index/access_path.h).
struct PruningDecision {
  std::shared_ptr<const ScanDomain> domain;  ///< null = full scan decided
  PruningStats stats;
};

/// Cached artifacts of one pipeline, filled in by ArtifactCache's publishes
/// under the owning CacheEntry's mutex.
struct PipelineArtifact {
  /// Position-independent bytecode, written once. It reads the plan's
  /// literals from the binding array, so every literal variant shares it.
  std::shared_ptr<const BcProgram> bytecode;
  uint64_t instructions = 0;  ///< LLVM instruction count (cost model input)
  /// Runtime-call density of the worker's loop body (cost model input;
  /// recorded at first publish so cache hits skip IR generation entirely).
  double runtime_call_fraction = 0;

  /// Machine-code variants, keyed by the exact constant vector each embeds,
  /// so queries alternating between a few parameter values don't evict
  /// each other's compilations. The bytecode slot above needs no such
  /// list: one program serves all literal variants.
  static constexpr size_t kMaxCodeVariants = 4;
  VariantList<std::vector<uint64_t>, CodeVariant, kMaxCodeVariants>
      code_variants;

  /// Scan-pruning decisions, keyed by the constants *and* the pruning key:
  /// bytecode is shared across literal variants, and LIKE patterns and
  /// predicate bitmaps are not constants at all, so two runs sharing this
  /// artifact may select very different rows.
  static constexpr size_t kMaxPruningVariants = 4;
  VariantList<std::pair<std::vector<uint64_t>, uint64_t>, PruningDecision,
              kMaxPruningVariants>
      pruning_variants;
};

/// One cached plan's artifacts. Entries are handed out as shared_ptr:
/// eviction only unlinks them from the cache index — queries mid-flight
/// keep using (and publishing into) their snapshot safely. What the plan's
/// runs cost is not kept here but in its PlanStats record
/// (obs/regression.h), which outlives eviction.
struct CacheEntry {
  uint64_t key = 0;  ///< ArtifactCacheKey(fingerprint, translator options)
  std::string plan_name;

  std::mutex mu;  ///< guards `pipelines`
  std::vector<PipelineArtifact> pipelines;

  /// Every pipeline has bytecode or machine code resident.
  bool FullyCached();
};

/// What one run of a pipeline asks of its plan's entry.
struct ArtifactRequest {
  size_t pipeline = 0;
  /// The pipeline's slice of the fingerprint constants: machine code and
  /// pruning decisions are kept per exact vector; bytecode ignores it.
  std::vector<uint64_t> constants;
  uint64_t pruning_key = 0;  ///< PlanFingerprint::pruning_key
  /// Picks what is looked up: bytecode for kBytecode and kAdaptive,
  /// machine code in the modes the strategy runs.
  ExecutionStrategy strategy = ExecutionStrategy::kAdaptive;
  VmDispatch dispatch = VmDispatch::kDefault;  ///< the run's VM dispatch
  bool pruning = false;  ///< the run decides scan pruning
};

/// What ArtifactCache::Lookup found: only what the run will use.
struct CachedArtifacts {
  /// The program to run, or null when the run must translate: the cache's
  /// own program (`bytecode_shared`), or a clone when the dispatch differs.
  std::shared_ptr<const BcProgram> bytecode;
  bool bytecode_shared = false;
  /// Code for the run's constants in the best mode its strategy runs.
  std::shared_ptr<CachedCode> seed_code;
  ExecMode seed_mode = ExecMode::kBytecode;
  uint64_t instructions = 0;  ///< 0 until a publish recorded it
  double runtime_call_fraction = 0;
  std::optional<PruningDecision> pruning;  ///< when asked for and resident
};

/// Concurrent plan-fingerprint → artifact map: sharded locks, per-shard LRU
/// under a global byte budget, hit/miss/evict counters. See
/// src/cache/DESIGN.md for the engine/controller handshake.
class ArtifactCache {
 public:
  static constexpr int kNumShards = 8;
  static constexpr uint64_t kDefaultByteBudget = 256ull << 20;

  explicit ArtifactCache(uint64_t byte_budget = kDefaultByteBudget);

  /// Returns the entry for `key`, creating it (with `num_pipelines` empty
  /// artifact slots) when it is not resident; `*created` says which. Counts
  /// an entry hit or miss and bumps the entry's LRU position. Returns null
  /// when the resident entry belongs to another plan (a 64-bit key
  /// collision: its name or pipeline count differs); such a run goes
  /// uncached.
  std::shared_ptr<CacheEntry> Intern(uint64_t key, size_t num_pipelines,
                                     const std::string& plan_name,
                                     bool* created);

  // One pipeline run's traffic: a Lookup when the pipeline starts, then
  // at most one publish of each kind. Each call takes the entry's lock
  // once; none translates, compiles or analyzes under it.

  /// What `entry` holds for `request`, counting a bytecode hit or miss when
  /// the strategy runs bytecode, and a code hit when machine code is
  /// seeded. Touches the code and pruning variants used.
  CachedArtifacts Lookup(CacheEntry& entry, const ArtifactRequest& request);

  /// Stores a fresh translation of the request's pipeline unless bytecode
  /// is already resident. Returns whether it was stored (and counted as a
  /// publish).
  bool PublishBytecode(CacheEntry& entry, const ArtifactRequest& request,
                       std::shared_ptr<const BcProgram> program,
                       uint64_t instructions, double runtime_call_fraction);

  /// Stores machine code compiled in `mode` for the request's constants,
  /// evicting the least recently used code variant when the pipeline has
  /// kMaxCodeVariants others. Counted as a publish.
  void PublishCode(CacheEntry& entry, const ArtifactRequest& request,
                   ExecMode mode, std::shared_ptr<CachedCode> code,
                   uint64_t instructions, double runtime_call_fraction);

  /// Stores the scan-pruning decision for the request's constants and
  /// pruning key unless one is resident, evicting the least recently used
  /// when the pipeline has kMaxPruningVariants others. Decisions are small
  /// and neither charged to the byte budget nor counted as publishes.
  void PublishPruning(CacheEntry& entry, const ArtifactRequest& request,
                      PruningDecision decision);

  /// Lookup without creating; nullptr on miss. Does not touch counters
  /// (introspection / tests).
  std::shared_ptr<CacheEntry> Peek(uint64_t key) const;

  void set_byte_budget(uint64_t bytes);

  /// Evicts every entry (ops flush / deterministic eviction in tests).
  /// In-flight queries keep their entries alive via shared ownership.
  void Clear();

  ArtifactCacheStats stats() const;

  /// Zeroes the monotonic counters (residency is untouched — artifacts stay
  /// cached). Benches call this between a cold and a warm phase so warm
  /// hit/miss numbers aren't polluted by cold-phase traffic.
  void ResetStats();

 private:
  /// A resident entry's cache-side bookkeeping, all under the shard lock
  /// (entry *contents* stay under the entry mutex). The stored iterator
  /// makes the per-submission LRU bump O(1).
  struct Resident {
    std::shared_ptr<CacheEntry> entry;
    std::list<uint64_t>::iterator lru_pos;
    uint64_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Resident> map;
    std::list<uint64_t> lru;  ///< keys, most recent first
    uint64_t bytes = 0;
  };

  /// Records that artifacts worth `delta` bytes were added to (or, negative,
  /// replaced in) `entry`, then enforces the byte budget by evicting
  /// least-recently-used entries (the most recent entry is never evicted).
  void OnBytesChanged(const CacheEntry& entry, int64_t delta);

  Shard& ShardFor(uint64_t key) { return shards_[key % kNumShards]; }
  const Shard& ShardFor(uint64_t key) const { return shards_[key % kNumShards]; }
  void EvictOverBudgetLocked(Shard* shard);

  Shard shards_[kNumShards];
  std::atomic<uint64_t> byte_budget_;

  mutable std::atomic<uint64_t> entry_hits_{0}, entry_misses_{0};
  std::atomic<uint64_t> bytecode_hits_{0}, bytecode_misses_{0};
  std::atomic<uint64_t> code_hits_{0};
  std::atomic<uint64_t> publishes_{0}, evictions_{0};
};

/// Approximate resident footprint of a translated program.
uint64_t BcProgramBytes(const BcProgram& program);

}  // namespace aqe

#endif  // AQE_CACHE_ARTIFACT_CACHE_H_
