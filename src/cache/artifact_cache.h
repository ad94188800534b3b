#ifndef AQE_CACHE_ARTIFACT_CACHE_H_
#define AQE_CACHE_ARTIFACT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

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
  uint64_t bytecode_hits = 0;   ///< pipeline reused cached bytecode as-is
  uint64_t patched_hits = 0;    ///< ...via the constant-patch table
  uint64_t bytecode_misses = 0; ///< pipeline had to translate
  uint64_t code_hits = 0;       ///< pipeline seeded cached machine code
  uint64_t publishes = 0;       ///< artifacts written back
  uint64_t evictions = 0;       ///< entries dropped by the LRU byte budget
  /// Completed cached queries folded into their plan's record (PlanStats,
  /// obs/regression.h), whose service-time EWMA is what WFQ admission
  /// charges the plan's next submit.
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
  d.patched_hits -= b.patched_hits;
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

/// Machine code compiled for one exact constant vector (code embeds the
/// literals; only the bytecode is patchable). A pipeline keeps a small set
/// of these so queries alternating between a few parameter values don't
/// evict each other's compilations.
struct CodeVariant {
  std::vector<uint64_t> constants;
  std::shared_ptr<CachedCode> unopt;
  std::shared_ptr<CachedCode> opt;
  uint64_t last_use = 0;  ///< PipelineArtifact::variant_clock at last touch
};

/// Cached artifacts of one pipeline, filled in as stages complete. All
/// fields are guarded by the owning CacheEntry's mutex.
struct PipelineArtifact {
  /// Position-independent bytecode (dispatch = kDefault). Shared directly
  /// on exact-constant hits; cloned + patched for literal-only variants.
  std::shared_ptr<const BcProgram> bytecode;
  /// The pipeline-constant values `bytecode` was translated with (the
  /// pipeline's slice of the inserting query's fingerprint constants).
  std::vector<uint64_t> bytecode_constants;
  bool patchable = false;
  std::vector<uint32_t> patch_slots;  ///< per-constant constant_pool index
  uint64_t instructions = 0;  ///< LLVM instruction count (cost model input)
  /// Runtime-call density of the worker's loop body (cost model input;
  /// recorded at first publish so cache hits skip IR generation entirely).
  double runtime_call_fraction = 0;

  /// Machine-code variants, keyed by the exact constant vector each embeds.
  /// Bounded: publishing an unseen variant when full evicts the
  /// least-recently-used one. The bytecode slot above needs no such map —
  /// one program patch-shares across all literal variants.
  static constexpr size_t kMaxCodeVariants = 4;
  std::vector<CodeVariant> code_variants;
  uint64_t variant_clock = 0;  ///< bumped on every variant touch

  /// Linear scan (the map is tiny and the entry mutex is already held).
  CodeVariant* FindVariant(const std::vector<uint64_t>& constants) {
    for (CodeVariant& v : code_variants) {
      if (v.constants == constants) return &v;
    }
    return nullptr;
  }

  /// One cached scan-pruning decision (src/index/access_path.h). Keyed by
  /// the pipeline's constant slice *plus* an auxiliary hash over the run's
  /// string literals and predicate bitmaps: bytecode patch-shares across
  /// literal variants and LIKE patterns are not constants at all, so the
  /// constants alone under-key the pruning outcome (two runs sharing this
  /// artifact may select very different rows).
  struct PruningVariant {
    std::vector<uint64_t> constants;
    uint64_t aux_hash = 0;
    std::shared_ptr<const ScanDomain> domain;  ///< null = full scan decided
    PruningStats stats;
    uint64_t last_use = 0;  ///< pruning_clock at last touch
  };
  static constexpr size_t kMaxPruningVariants = 4;
  std::vector<PruningVariant> pruning_variants;
  uint64_t pruning_clock = 0;

  PruningVariant* FindPruning(const std::vector<uint64_t>& constants,
                              uint64_t aux_hash) {
    for (PruningVariant& v : pruning_variants) {
      if (v.aux_hash == aux_hash && v.constants == constants) return &v;
    }
    return nullptr;
  }

  ExecMode best_mode = ExecMode::kBytecode;  ///< best mode ever reached
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
  /// an entry hit or miss and bumps the entry's LRU position.
  std::shared_ptr<CacheEntry> Intern(uint64_t key, size_t num_pipelines,
                                     const std::string& plan_name,
                                     bool* created);

  /// Lookup without creating; nullptr on miss. Does not touch counters
  /// (introspection / tests).
  std::shared_ptr<CacheEntry> Peek(uint64_t key) const;

  /// Records that artifacts worth `delta` bytes were added to (or, negative,
  /// replaced in) `entry`, then enforces the byte budget by evicting
  /// least-recently-used entries (the most recent entry is never evicted).
  void OnBytesChanged(const CacheEntry& entry, int64_t delta);

  void set_byte_budget(uint64_t bytes);
  uint64_t byte_budget() const { return byte_budget_.load(); }

  /// Evicts every entry (ops flush / deterministic eviction in tests).
  /// In-flight queries keep their entries alive via shared ownership.
  void Clear();

  ArtifactCacheStats stats() const;

  /// Zeroes the monotonic counters (residency is untouched — artifacts stay
  /// cached). Benches call this between a cold and a warm phase so warm
  /// hit/miss numbers aren't polluted by cold-phase traffic.
  void ResetStats();

  // Pipeline-granular counters (bumped by the engine integration).
  void CountBytecodeHit(bool patched) {
    patched ? ++patched_hits_ : ++bytecode_hits_;
  }
  void CountBytecodeMiss() { ++bytecode_misses_; }
  void CountCodeHit() { ++code_hits_; }
  void CountPublish() { ++publishes_; }
  void CountCostFeedback() { ++cost_feedback_updates_; }

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

  Shard& ShardFor(uint64_t key) { return shards_[key % kNumShards]; }
  const Shard& ShardFor(uint64_t key) const { return shards_[key % kNumShards]; }
  void EvictOverBudgetLocked(Shard* shard);

  Shard shards_[kNumShards];
  std::atomic<uint64_t> byte_budget_;

  mutable std::atomic<uint64_t> entry_hits_{0}, entry_misses_{0};
  std::atomic<uint64_t> bytecode_hits_{0}, patched_hits_{0};
  std::atomic<uint64_t> bytecode_misses_{0}, code_hits_{0};
  std::atomic<uint64_t> publishes_{0}, evictions_{0};
  std::atomic<uint64_t> cost_feedback_updates_{0};
};

/// Approximate resident footprint of a translated program.
uint64_t BcProgramBytes(const BcProgram& program);

}  // namespace aqe

#endif  // AQE_CACHE_ARTIFACT_CACHE_H_
