#include "cache/artifact_cache.h"

#include <algorithm>

#include "common/status.h"

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

}  // namespace

uint64_t BcProgramBytes(const BcProgram& program) {
  return sizeof(BcProgram) + program.code.size() * sizeof(BcInstruction) +
         program.constant_pool.size() * sizeof(BcProgram::PoolEntry) +
         program.literal_pool.size() * sizeof(uint64_t) +
         program.arg_offsets.size() * sizeof(uint32_t);
}

ArtifactCache::ArtifactCache(uint64_t byte_budget)
    : byte_budget_(byte_budget) {}

std::shared_ptr<CacheEntry> ArtifactCache::Intern(
    uint64_t key, size_t num_pipelines, const std::string& plan_name,
    bool* created) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  *created = it == map_.end();
  if (!*created) {
    ++entry_hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
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
  lru_.push_front(key);
  map_.emplace(key, Resident{entry, lru_.begin(), 0});
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
      found.bytecode = a.bytecode;
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
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : it->second.entry;
}

void ArtifactCache::OnBytesChanged(const CacheEntry& entry, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(entry.key);
  // Publishing into an evicted entry — including one whose key has since
  // been re-interned as a *different* CacheEntry — must not be charged to
  // the cache: those artifacts die with the queries holding the old entry.
  // The identity check makes accounting follow the object, not the key.
  if (it == map_.end() || it->second.entry.get() != &entry) return;
  int64_t updated = static_cast<int64_t>(it->second.bytes) + delta;
  it->second.bytes = static_cast<uint64_t>(std::max<int64_t>(updated, 0));
  int64_t total = static_cast<int64_t>(bytes_) + delta;
  bytes_ = static_cast<uint64_t>(std::max<int64_t>(total, 0));
  EvictOverBudgetLocked();
}

void ArtifactCache::set_byte_budget(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  byte_budget_ = bytes;
  EvictOverBudgetLocked();
}

void ArtifactCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  evictions_ += map_.size();
  map_.clear();
  lru_.clear();
  bytes_ = 0;
}

void ArtifactCache::EvictOverBudgetLocked() {
  // Evict from the cold end; the most recently touched entry always stays
  // (a single over-budget plan must remain usable).
  while (bytes_ > byte_budget_ && lru_.size() > 1) {
    auto it = map_.find(lru_.back());
    AQE_CHECK(it != map_.end());
    lru_.pop_back();
    bytes_ -= std::min(bytes_, it->second.bytes);
    map_.erase(it);
    ++evictions_;
  }
}

ArtifactCacheStats ArtifactCache::stats() const {
  ArtifactCacheStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.entry_hits = entry_hits_;
    s.entry_misses = entry_misses_;
    s.evictions = evictions_;
    s.bytes = bytes_;
    s.entries = map_.size();
  }
  s.bytecode_hits = bytecode_hits_.load();
  s.bytecode_misses = bytecode_misses_.load();
  s.code_hits = code_hits_.load();
  s.publishes = publishes_.load();
  return s;
}

void ArtifactCache::ResetStats() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry_hits_ = entry_misses_ = evictions_ = 0;
  }
  bytecode_hits_.store(0);
  bytecode_misses_.store(0);
  code_hits_.store(0);
  publishes_.store(0);
}

}  // namespace aqe
