#include "cache/artifact_cache.h"

#include <algorithm>

#include "common/status.h"

namespace aqe {

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
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  *created = it == shard.map.end();
  if (!*created) {
    ++entry_hits_;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    return it->second.entry;
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
  s.patched_hits = patched_hits_.load();
  s.bytecode_misses = bytecode_misses_.load();
  s.code_hits = code_hits_.load();
  s.publishes = publishes_.load();
  s.evictions = evictions_.load();
  s.cost_feedback_updates = cost_feedback_updates_.load();
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
  patched_hits_.store(0);
  bytecode_misses_.store(0);
  code_hits_.store(0);
  publishes_.store(0);
  evictions_.store(0);
  cost_feedback_updates_.store(0);
}

}  // namespace aqe
