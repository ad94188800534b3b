#include "runtime/agg_hash_table.h"

#include <algorithm>
#include <cstring>

#include "common/status.h"
#include "obs/memory_tracker.h"
#include "runtime/thread_index.h"

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
/// A run is not folded in the pipeline before it could hold twice this
/// many distinct keys, so a run of a few spills is not folded again and
/// again.
constexpr uint64_t kMinFoldEntries = 1024;

}  // namespace

AggHashTable::AggHashTable(AggHashTableSet* set)
    : set_(set), entry_bytes_(set->entry_bytes_), max_part_bits_(kMinPartBits) {
  while ((uint64_t{kAggPartitions} << (max_part_bits_ + 1)) *
             (entry_bytes_ + 1) <=
         kAggTableBytes) {
    ++max_part_bits_;
  }
  Allocate(kMinPartBits);
}

AggHashTable::~AggHashTable() {
  if (set_->tracker_ != nullptr) set_->tracker_->Release(footprint());
}

uint64_t AggHashTable::size() const {
  uint64_t groups = 0;
  for (uint64_t part : sizes_) groups += part;
  return groups;
}

void AggHashTable::Allocate(uint32_t part_bits) {
  part_bits_ = part_bits;
  part_mask_ = (uint64_t{1} << part_bits) - 1;
  grow_at_ = uint64_t{3} << (part_bits - 2);
  const uint64_t slots = uint64_t{kAggPartitions} << part_bits;
  data_ = PageVector<uint8_t>(slots * entry_bytes_);
  occupied_.assign(slots, 0);
  if (set_->tracker_ != nullptr) set_->tracker_->Charge(footprint());
}

void* AggHashTable::InsertAt(uint64_t slot, int64_t key, int p) {
  if (sizes_[p] >= grow_at_) {
    if (part_bits_ < max_part_bits_) {
      Grow();
    } else {
      Spill(p, /*fold_when_doubled=*/true);
    }
    return FindOrInsert(key);
  }
  occupied_[slot] = 1;
  uint8_t* entry = EntryAt(slot);
  *reinterpret_cast<int64_t*>(entry) = key;
  std::memcpy(entry + 8, set_->init_values_.data(), entry_bytes_ - 8);
  ++sizes_[p];
  return entry + 8;
}

void AggHashTable::Grow() {
  const auto old_data = std::move(data_);
  const auto old_occupied = std::move(occupied_);
  const uint32_t old_bits = part_bits_;
  const uint64_t old_slots = uint64_t{1} << old_bits;
  Allocate(old_bits + 1);
  for (int p = 0; p < kAggPartitions; ++p) {
    const uint64_t first = static_cast<uint64_t>(p) << old_bits;
    const uint64_t new_first = static_cast<uint64_t>(p) << part_bits_;
    for (uint64_t i = first; i < first + old_slots; ++i) {
      if (!old_occupied[i]) continue;
      const uint8_t* entry = old_data.data() + i * entry_bytes_;
      uint64_t slot =
          Hash(*reinterpret_cast<const int64_t*>(entry)) & part_mask_;
      while (occupied_[new_first + slot]) slot = (slot + 1) & part_mask_;
      occupied_[new_first + slot] = 1;
      std::memcpy(EntryAt(new_first + slot), entry, entry_bytes_);
    }
  }
  if (set_->tracker_ != nullptr) {
    set_->tracker_->Release(old_data.size() + old_occupied.size());
  }
}

void AggHashTable::Spill(int p, bool fold_when_doubled) {
  set_->Spill(*this, p, fold_when_doubled);
  const uint64_t first = static_cast<uint64_t>(p) << part_bits_;
  std::memset(occupied_.data() + first, 0, uint64_t{1} << part_bits_);
  sizes_[p] = 0;
}

AggHashTableSet::AggHashTableSet(std::vector<AggKind> kinds,
                                 QueryMemoryTracker* tracker, int max_threads)
    : kinds_(std::move(kinds)),
      entry_bytes_(static_cast<uint32_t>(8 + 8 * kinds_.size())),
      tracker_(tracker) {
  for (AggKind kind : kinds_) init_values_.push_back(AggInitValue(kind));
  tables_.resize(static_cast<size_t>(max_threads));
  for (auto& part : parts_) {
    part = std::make_unique<Partition>(entry_bytes_, tracker_);
    part->fold_at = FoldAt(0);
  }
}

uint64_t AggHashTableSet::FoldAt(uint64_t distinct) const {
  // The smallest run whose entries and fold index take twice the bytes of
  // `distinct` entries: n * E + 4/3 * n * 4 >= 2 * E * distinct.
  const uint64_t bytes = entry_bytes_;
  return 6 * bytes * std::max(distinct, kMinFoldEntries) / (3 * bytes + 16);
}

AggHashTableSet::~AggHashTableSet() = default;

AggHashTable* AggHashTableSet::Local() {
  int index = runtime_internal::GetThreadIndex();
  AQE_CHECK(static_cast<size_t>(index) < tables_.size());
  auto& table = tables_[static_cast<size_t>(index)];
  if (table == nullptr) table.reset(new AggHashTable(this));
  return table.get();
}

void AggHashTableSet::Spill(const AggHashTable& table, int p,
                            bool fold_when_doubled) {
  Partition& part = *parts_[p];
  std::lock_guard<std::mutex> lock(part.mutex);
  const bool empty = part.run.size() == 0;
  table.ForEachInPartition(p, [&](const uint8_t* entry) {
    std::memcpy(part.run.Append(), entry, entry_bytes_);
  });
  // One table's partition holds each of its keys once.
  if (empty) part.distinct = part.run.size();
  if (fold_when_doubled && part.run.size() >= part.fold_at) Fold(part);
}

void AggHashTableSet::FoldSlots(int64_t* dst, const int64_t* src) const {
  for (size_t s = 0; s < kinds_.size(); ++s) {
    switch (kinds_[s]) {
      case AggKind::kSum:
      case AggKind::kCount: dst[s] += src[s]; break;
      case AggKind::kMin: dst[s] = std::min(dst[s], src[s]); break;
      case AggKind::kMax: dst[s] = std::max(dst[s], src[s]); break;
    }
  }
}

void AggHashTableSet::Fold(Partition& part) {
  EntryArena& run = part.run;
  const uint64_t n = run.size();
  if (part.distinct < n) {
    AQE_CHECK(n < UINT32_MAX);
    // Each cell holds a kept entry's number + 1 in its low bits (0 for an
    // empty cell) and, above them, a tag of the key's hash, so most probes
    // that pass a different key do not read the run. At most 3/4 full. The
    // run's keys share their hash's partition bits, so the cell comes from
    // the bits below them.
    const uint64_t cells = n + n / 3 + 1;
    const int number_bits = 64 - __builtin_clzll(n);
    const uint32_t number_mask =
        static_cast<uint32_t>((uint64_t{1} << number_bits) - 1);
    PageVector<uint32_t> index(cells, 0);
    if (tracker_ != nullptr) tracker_->Charge(cells * sizeof(uint32_t));
    uint64_t kept = 0;
    uint64_t seen = 0;
    run.ForEachChunk([&](uint8_t* entry, uint64_t count) {
      for (uint64_t i = 0; i < count; ++i, ++seen, entry += entry_bytes_) {
        const int64_t key = *reinterpret_cast<const int64_t*>(entry);
        const uint64_t hash = AggHashTable::Hash(key);
        const uint32_t tag = static_cast<uint32_t>(hash) & ~number_mask;
        auto cell = static_cast<uint64_t>(
            (static_cast<unsigned __int128>(hash << kAggPartitionBits) *
             cells) >>
            64);
        for (;; cell = cell + 1 == cells ? 0 : cell + 1) {
          const uint32_t value = index[cell];
          if (value == 0) {
            // A new key moves down to the next kept entry: kept <= seen, so
            // no entry is overwritten before it is read.
            if (kept != seen) std::memcpy(run.At(kept), entry, entry_bytes_);
            index[cell] = tag | static_cast<uint32_t>(++kept);
            break;
          }
          if ((value & ~number_mask) != tag) continue;
          auto* dst =
              reinterpret_cast<int64_t*>(run.At((value & number_mask) - 1));
          if (dst[0] != key) continue;
          FoldSlots(dst + 1, reinterpret_cast<const int64_t*>(entry) + 1);
          break;
        }
      }
    });
    run.Truncate(kept);
    index = {};
    if (tracker_ != nullptr) tracker_->Release(cells * sizeof(uint32_t));
  }
  part.distinct = run.size();
  part.fold_at = FoldAt(part.distinct);
}

uint64_t AggHashTableSet::BeginMerge() {
  for (auto& table : tables_) {
    if (table == nullptr) continue;
    for (int p = 0; p < kAggPartitions; ++p) {
      if (table->sizes_[p] > 0) Spill(*table, p, /*fold_when_doubled=*/false);
    }
    table.reset();
  }
  uint64_t entries = 0;
  for (const auto& part : parts_) {
    if (part->distinct < part->run.size()) entries += part->run.size();
  }
  return entries;
}

void AggHashTableSet::MergePartition(int p) {
  Partition& part = *parts_[p];
  std::lock_guard<std::mutex> lock(part.mutex);
  Fold(part);
}

void AggHashTableSet::Merge() {
  if (BeginMerge() == 0) return;
  for (int p = 0; p < kAggPartitions; ++p) MergePartition(p);
}

void AggHashTableSet::CheckMerged() const {
  bool pending = false;
  for (const auto& table : tables_) pending |= table != nullptr;
  for (const auto& part : parts_) pending |= part->distinct < part->run.size();
  AQE_CHECK_MSG(!pending, "aggregation read before Merge");
}

uint64_t AggHashTableSet::size() const {
  CheckMerged();
  uint64_t groups = 0;
  for (const auto& part : parts_) groups += part->run.size();
  return groups;
}

uint64_t AggHashTableSet::footprint() const {
  CheckMerged();
  uint64_t bytes = 0;
  for (const auto& part : parts_) bytes += part->run.charged_bytes();
  return bytes;
}

}  // namespace aqe
