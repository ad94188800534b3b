#include "cache/artifact_cache.h"

#include <algorithm>

#include "common/status.h"
#include "vm/interpreter.h"

namespace aqe {
namespace {

/// The first publish of a pipeline records its cost-model inputs.
void NoteCostInputs(PipelineArtifact* a, uint64_t instructions,
                    double runtime_call_fraction) {
  if (a->instructions == 0) a->instructions = instructions;
  if (a->runtime_call_fraction == 0) {
    a->runtime_call_fraction = runtime_call_fraction;
  }
}

/// `bc` when its resolved dispatch already matches `want`, else a clone
/// running `want` — cached programs are immutable while queries run them.
std::shared_ptr<const BcProgram> ProgramForDispatch(
    std::shared_ptr<const BcProgram> bc, VmDispatch want) {
  if (VmResolveDispatch(want) == VmResolveDispatch(bc->dispatch)) return bc;
  auto copy = std::make_shared<BcProgram>(*bc);
  copy->dispatch = want;
  return copy;
}

}  // namespace

uint64_t BcProgramBytes(const BcProgram& program) {
  return sizeof(BcProgram) + program.code.size() * sizeof(BcInstruction) +
         program.constant_pool.size() * sizeof(BcProgram::PoolEntry) +
         program.literal_pool.size() * sizeof(uint64_t) +
         program.arg_offsets.size() * sizeof(uint32_t);
}

bool CacheEntry::FullyCached() {
  std::lock_guard<std::mutex> lock(mu);
  return std::all_of(pipelines.begin(), pipelines.end(),
                     [](const PipelineArtifact& a) {
                       return a.bytecode != nullptr ||
                              a.code_variants.size() > 0;
                     });
}

ArtifactCache::ArtifactCache(uint64_t byte_budget)
    : byte_budget_(byte_budget) {}

std::shared_ptr<CacheEntry> ArtifactCache::Intern(
    uint64_t key, size_t num_pipelines, const std::string& plan_name,
    bool* created) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  *created = it == shard.map.end();
  if (!*created) {
    ++entry_hits_;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    const std::shared_ptr<CacheEntry>& entry = it->second.entry;
    if (entry->plan_name != plan_name ||
        entry->pipelines.size() != num_pipelines) {
      return nullptr;
    }
    return entry;
  }
  ++entry_misses_;
  auto entry = std::make_shared<CacheEntry>();
  entry->key = key;
  entry->plan_name = plan_name;
  entry->pipelines.resize(num_pipelines);
  shard.lru.push_front(key);
  shard.map.emplace(key, Resident{entry, shard.lru.begin(), 0});
  return entry;
}

CachedArtifacts ArtifactCache::Lookup(CacheEntry& entry,
                                      const ArtifactRequest& request) {
  CachedArtifacts found;
  const bool runs_bytecode =
      request.strategy == ExecutionStrategy::kBytecode ||
      request.strategy == ExecutionStrategy::kAdaptive;
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    PipelineArtifact& a = entry.pipelines[request.pipeline];
    found.instructions = a.instructions;
    found.runtime_call_fraction = a.runtime_call_fraction;
    if (runs_bytecode && a.bytecode != nullptr) {
      found.bytecode = ProgramForDispatch(a.bytecode, request.dispatch);
      found.bytecode_shared = found.bytecode == a.bytecode;
    }
    // Machine code is only reusable for the exact literals it embeds;
    // adaptive starts in the best mode the plan reached.
    if (const CodeVariant* v =
            a.code_variants.Find(request.constants, /*use=*/true)) {
      const ExecutionStrategy s = request.strategy;
      if (v->opt != nullptr && (s == ExecutionStrategy::kAdaptive ||
                                s == ExecutionStrategy::kOptimized)) {
        found.seed_code = v->opt;
        found.seed_mode = ExecMode::kOptimized;
      } else if (v->unopt != nullptr &&
                 (s == ExecutionStrategy::kAdaptive ||
                  s == ExecutionStrategy::kUnoptimized)) {
        found.seed_code = v->unopt;
        found.seed_mode = ExecMode::kUnoptimized;
      }
    }
    if (request.pruning) {
      if (const PruningDecision* d = a.pruning_variants.Find(
              {request.constants, request.pruning_key}, /*use=*/true)) {
        found.pruning = *d;
      }
    }
  }
  if (runs_bytecode) {
    ++(found.bytecode == nullptr ? bytecode_misses_ : bytecode_hits_);
  }
  if (found.seed_code != nullptr) ++code_hits_;
  return found;
}

bool ArtifactCache::PublishBytecode(CacheEntry& entry,
                                    const ArtifactRequest& request,
                                    std::shared_ptr<const BcProgram> program,
                                    uint64_t instructions,
                                    double runtime_call_fraction) {
  const auto bytes = static_cast<int64_t>(BcProgramBytes(*program));
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    PipelineArtifact& a = entry.pipelines[request.pipeline];
    if (a.bytecode != nullptr) return false;
    a.bytecode = std::move(program);
    NoteCostInputs(&a, instructions, runtime_call_fraction);
  }
  OnBytesChanged(entry, bytes);
  ++publishes_;
  return true;
}

void ArtifactCache::PublishCode(CacheEntry& entry,
                                const ArtifactRequest& request, ExecMode mode,
                                std::shared_ptr<CachedCode> code,
                                uint64_t instructions,
                                double runtime_call_fraction) {
  int64_t delta = static_cast<int64_t>(code->code_bytes);
  // Dropped code is released after the lock: the last reference unmaps it.
  CodeVariant evicted;
  std::shared_ptr<CachedCode> replaced;
  {
    std::lock_guard<std::mutex> lock(entry.mu);
    PipelineArtifact& a = entry.pipelines[request.pipeline];
    CodeVariant& v = a.code_variants.Insert(request.constants, &evicted);
    replaced = std::exchange(mode == ExecMode::kOptimized ? v.opt : v.unopt,
                             std::move(code));
    NoteCostInputs(&a, instructions, runtime_call_fraction);
  }
  for (const auto& dropped : {evicted.unopt, evicted.opt, replaced}) {
    if (dropped != nullptr) delta -= static_cast<int64_t>(dropped->code_bytes);
  }
  OnBytesChanged(entry, delta);
  ++publishes_;
}

void ArtifactCache::PublishPruning(CacheEntry& entry,
                                   const ArtifactRequest& request,
                                   PruningDecision decision) {
  const std::pair key{request.constants, request.pruning_key};
  PruningDecision evicted;
  std::lock_guard<std::mutex> lock(entry.mu);
  PipelineArtifact& a = entry.pipelines[request.pipeline];
  if (a.pruning_variants.Find(key) != nullptr) return;
  a.pruning_variants.Insert(key, &evicted) = std::move(decision);
}

std::shared_ptr<CacheEntry> ArtifactCache::Peek(uint64_t key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  return it == shard.map.end() ? nullptr : it->second.entry;
}

void ArtifactCache::OnBytesChanged(const CacheEntry& entry, int64_t delta) {
  Shard& shard = ShardFor(entry.key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(entry.key);
  // Publishing into an evicted entry — including one whose key has since
  // been re-interned as a *different* CacheEntry — must not be charged to
  // the shard: those artifacts die with the queries holding the old entry.
  // The identity check makes accounting follow the object, not the key.
  if (it == shard.map.end() || it->second.entry.get() != &entry) return;
  int64_t updated = static_cast<int64_t>(it->second.bytes) + delta;
  it->second.bytes = static_cast<uint64_t>(std::max<int64_t>(updated, 0));
  int64_t total = static_cast<int64_t>(shard.bytes) + delta;
  shard.bytes = static_cast<uint64_t>(std::max<int64_t>(total, 0));
  EvictOverBudgetLocked(&shard);
}

void ArtifactCache::set_byte_budget(uint64_t bytes) {
  byte_budget_.store(bytes);
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    EvictOverBudgetLocked(&shard);
  }
}

void ArtifactCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    evictions_ += shard.map.size();
    shard.map.clear();
    shard.lru.clear();
    shard.bytes = 0;
  }
}

void ArtifactCache::EvictOverBudgetLocked(Shard* shard) {
  const uint64_t shard_budget =
      std::max<uint64_t>(byte_budget_.load() / kNumShards, 1);
  // Evict from the cold end; the most recently touched entry always stays
  // (a single over-budget plan must remain usable).
  while (shard->bytes > shard_budget && shard->lru.size() > 1) {
    uint64_t victim = shard->lru.back();
    shard->lru.pop_back();
    auto it = shard->map.find(victim);
    AQE_CHECK(it != shard->map.end());
    shard->bytes -= std::min(shard->bytes, it->second.bytes);
    shard->map.erase(it);
    ++evictions_;
  }
}

ArtifactCacheStats ArtifactCache::stats() const {
  ArtifactCacheStats s;
  s.entry_hits = entry_hits_.load();
  s.entry_misses = entry_misses_.load();
  s.bytecode_hits = bytecode_hits_.load();
  s.bytecode_misses = bytecode_misses_.load();
  s.code_hits = code_hits_.load();
  s.publishes = publishes_.load();
  s.evictions = evictions_.load();
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.bytes += shard.bytes;
    s.entries += shard.map.size();
  }
  return s;
}

void ArtifactCache::ResetStats() {
  entry_hits_.store(0);
  entry_misses_.store(0);
  bytecode_hits_.store(0);
  bytecode_misses_.store(0);
  code_hits_.store(0);
  publishes_.store(0);
  evictions_.store(0);
}

}  // namespace aqe
