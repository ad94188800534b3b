#include "runtime/agg_hash_table.h"

#include <algorithm>
#include <cstring>

#include "common/status.h"
#include "obs/memory_tracker.h"

namespace aqe {

int64_t AggInitValue(AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kCount: return 0;
    case AggKind::kMin: return INT64_MAX;
    case AggKind::kMax: return INT64_MIN;
  }
  AQE_UNREACHABLE("bad AggKind");
}

namespace {
/// A fresh table's slots per partition: 64 slots in all, so a handful of
/// groups (Q1's 4, Q6's 1) costs one small table.
constexpr uint32_t kMinPartBits = 2;
}  // namespace

AggHashTable::AggHashTable(uint32_t payload_slots,
                           std::vector<int64_t> init_values,
                           QueryMemoryTracker* tracker)
    : payload_slots_(payload_slots),
      init_values_(std::move(init_values)),
      tracker_(tracker) {
  AQE_CHECK(init_values_.size() == payload_slots_);
  Allocate(kMinPartBits);
  Charge(footprint());
}

AggHashTable::AggHashTable(uint32_t payload_slots,
                           std::vector<int64_t> init_values,
                           QueryMemoryTracker* tracker, uint32_t part_bits)
    : payload_slots_(payload_slots),
      init_values_(std::move(init_values)),
      tracker_(tracker) {
  AQE_CHECK(init_values_.size() == payload_slots_);
  Allocate(part_bits);
  Charge(occupied_.size());
}

AggHashTable::~AggHashTable() { Release(charged_bytes_.load()); }

void AggHashTable::Charge(uint64_t bytes) {
  charged_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (tracker_ != nullptr && bytes > 0) tracker_->Charge(bytes);
}

void AggHashTable::Release(uint64_t bytes) {
  charged_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  if (tracker_ != nullptr && bytes > 0) tracker_->Release(bytes);
}

uint32_t AggHashTable::PartBitsFor(uint64_t groups) {
  // FindOrInsert grows when an insert finds its partition 3/4 full.
  uint32_t bits = kMinPartBits;
  while (groups > 0 && (groups - 1) * 4 >= (uint64_t{3} << bits)) ++bits;
  return bits;
}

uint64_t AggHashTable::size() const {
  uint64_t groups = 0;
  for (uint64_t part : sizes_) groups += part;
  return groups;
}

void* AggHashTable::InsertAt(uint64_t slot, int64_t key, uint64_t& size) {
  occupied_[slot] = 1;
  uint8_t* entry = EntryAt(slot);
  *reinterpret_cast<int64_t*>(entry) = key;
  std::memcpy(entry + 8, init_values_.data(), payload_slots_ * 8);
  ++size;
  return entry + 8;
}

void* AggHashTable::GrowAndInsert(int64_t key) {
  Grow();
  return FindOrInsert(key);
}

void* AggHashTable::Find(int64_t key) const {
  const uint64_t hash = Hash(key);
  const uint64_t first = static_cast<uint64_t>(PartitionOf(hash))
                         << part_bits_;
  uint64_t slot = hash & part_mask_;
  for (;;) {
    if (!occupied_[first + slot]) return nullptr;
    uint8_t* entry = EntryAt(first + slot);
    if (*reinterpret_cast<const int64_t*>(entry) == key) return entry + 8;
    slot = (slot + 1) & part_mask_;
  }
}

void AggHashTable::Allocate(uint32_t part_bits) {
  part_bits_ = part_bits;
  part_mask_ = (uint64_t{1} << part_bits) - 1;
  grow_at_ = uint64_t{3} << (part_bits - 2);
  const uint64_t slots = uint64_t{kAggPartitions} << part_bits;
  data_.resize(slots * entry_bytes());
  occupied_.assign(slots, 0);
}

void AggHashTable::Grow() {
  auto old_data = std::move(data_);
  auto old_occupied = std::move(occupied_);
  const uint32_t old_bits = part_bits_;
  const uint64_t old_slots = uint64_t{1} << old_bits;
  const uint64_t old_bytes = old_data.size() + old_occupied.size();
  data_ = {};
  occupied_ = {};
  Allocate(old_bits + 1);
  Charge(occupied_.size());
  uint64_t released = 0;
  for (int p = 0; p < kAggPartitions; ++p) {
    Charge(partition_data_bytes());
    const uint64_t first = static_cast<uint64_t>(p) << old_bits;
    const uint64_t new_first = static_cast<uint64_t>(p) << part_bits_;
    ForEachOccupied(old_occupied.data() + first, old_slots, [&](uint64_t i) {
      const uint8_t* entry = old_data.data() + (first + i) * entry_bytes();
      uint64_t slot = Hash(*reinterpret_cast<const int64_t*>(entry)) &
                      part_mask_;
      while (occupied_[new_first + slot]) slot = (slot + 1) & part_mask_;
      occupied_[new_first + slot] = 1;
      std::memcpy(EntryAt(new_first + slot), entry, entry_bytes());
    });
    // The old partition is dead: give its pages back before the next one
    // moves.
    const uint64_t bytes =
        DiscardPages(old_data, first * entry_bytes(),
                     old_slots * entry_bytes()) +
        DiscardPages(old_occupied, first, old_slots);
    Release(bytes);
    released += bytes;
  }
  old_data = {};
  old_occupied = {};
  Release(old_bytes - released);
}

void AggHashTable::ReleasePartition(int p) {
  const uint64_t first = static_cast<uint64_t>(p) << part_bits_;
  const uint64_t slots = uint64_t{1} << part_bits_;
  Release(DiscardPages(data_, first * entry_bytes(), slots * entry_bytes()) +
          DiscardPages(occupied_, first, slots));
  sizes_[p] = 0;
}

AggHashTableSet::AggHashTableSet(std::vector<AggKind> kinds,
                                 QueryMemoryTracker* tracker, int max_threads)
    : kinds_(std::move(kinds)), tracker_(tracker) {
  for (AggKind kind : kinds_) init_values_.push_back(AggInitValue(kind));
  tables_.resize(static_cast<size_t>(max_threads));
}

AggHashTable* AggHashTableSet::Local() {
  int index = runtime_internal::GetThreadIndex();
  AQE_CHECK(static_cast<size_t>(index) < tables_.size());
  auto& table = tables_[static_cast<size_t>(index)];
  if (table == nullptr) {
    table = std::make_unique<AggHashTable>(
        static_cast<uint32_t>(kinds_.size()), init_values_, tracker_);
  }
  return table.get();
}

uint64_t AggHashTableSet::BeginMerge() {
  AQE_CHECK_MSG(partitions_left_.load() == 0, "merge already in flight");
  if (merged_ != nullptr) sources_.push_back(std::move(merged_));
  for (auto& table : tables_) {
    if (table != nullptr) sources_.push_back(std::move(table));
  }
  // A table that saw no groups has nothing to give.
  sources_.erase(std::remove_if(sources_.begin(), sources_.end(),
                                [](const auto& t) { return t->size() == 0; }),
                 sources_.end());
  if (sources_.size() <= 1) {
    if (!sources_.empty()) merged_ = std::move(sources_[0]);
    sources_.clear();
    return 0;
  }
  uint64_t groups = 0;
  uint64_t largest = 0;
  for (int p = 0; p < kAggPartitions; ++p) {
    uint64_t part = 0;
    for (const auto& source : sources_) part += source->partition_size(p);
    groups += part;
    largest = std::max(largest, part);
  }
  merged_.reset(new AggHashTable(static_cast<uint32_t>(kinds_.size()),
                                 init_values_, tracker_,
                                 AggHashTable::PartBitsFor(largest)));
  partitions_left_.store(kAggPartitions);
  return groups;
}

void AggHashTableSet::MergePartition(int p) {
  if (partitions_left_.load(std::memory_order_acquire) == 0) return;
  AggHashTable& merged = *merged_;
  merged.ChargePartition();
  const auto slots = static_cast<uint32_t>(kinds_.size());
  uint64_t groups = 0;
  for (const auto& source : sources_) {
    source->ForEachInPartition(p, [&](int64_t key, void* payload) {
      const auto* src = static_cast<const int64_t*>(payload);
      auto* dst = static_cast<int64_t*>(merged.FindOrInsertInPartition(
          p, key, AggHashTable::Hash(key), groups));
      for (uint32_t s = 0; s < slots; ++s) {
        switch (kinds_[s]) {
          case AggKind::kSum:
          case AggKind::kCount: dst[s] += src[s]; break;
          case AggKind::kMin: dst[s] = std::min(dst[s], src[s]); break;
          case AggKind::kMax: dst[s] = std::max(dst[s], src[s]); break;
        }
      }
    });
    source->ReleasePartition(p);
  }
  merged.sizes_[p] = groups;
  // The last partition's merge frees the sources: every other merge has
  // finished with them.
  if (partitions_left_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    sources_.clear();
  }
}

void AggHashTableSet::Merge() {
  if (BeginMerge() == 0) return;
  for (int p = 0; p < kAggPartitions; ++p) MergePartition(p);
}

void AggHashTableSet::CheckMerged() const {
  bool pending = partitions_left_.load(std::memory_order_acquire) != 0;
  for (const auto& table : tables_) pending |= table != nullptr;
  AQE_CHECK_MSG(!pending, "aggregation read before Merge");
}

uint64_t AggHashTableSet::size() const {
  CheckMerged();
  return merged_ != nullptr ? merged_->size() : 0;
}

uint64_t AggHashTableSet::footprint() const {
  CheckMerged();
  return merged_ != nullptr ? merged_->footprint() : 0;
}

void* AggHashTableSet::Find(int64_t key) const {
  CheckMerged();
  return merged_ != nullptr ? merged_->Find(key) : nullptr;
}

}  // namespace aqe
