#include "runtime/agg_hash_table.h"

#include <cstring>

#include "common/status.h"
#include "obs/memory_tracker.h"

namespace aqe {

namespace {
uint64_t HashKey(int64_t key) {
  uint64_t h = static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return h;
}
}  // namespace

AggHashTable::AggHashTable(uint32_t payload_slots,
                           std::vector<int64_t> init_values,
                           QueryMemoryTracker* tracker)
    : payload_slots_(payload_slots),
      init_values_(std::move(init_values)),
      tracker_(tracker) {
  AQE_CHECK(init_values_.size() == payload_slots_);
  Allocate(64);
  if (tracker_ != nullptr) {
    charged_bytes_ = footprint();
    tracker_->Charge(charged_bytes_);
  }
}

AggHashTable::~AggHashTable() {
  if (tracker_ != nullptr && charged_bytes_ > 0) {
    tracker_->Release(charged_bytes_);
  }
}

AggHashTable::AggHashTable(AggHashTable&& other) noexcept
    : payload_slots_(other.payload_slots_),
      init_values_(std::move(other.init_values_)),
      capacity_(other.capacity_),
      mask_(other.mask_),
      size_(other.size_),
      data_(std::move(other.data_)),
      occupied_(std::move(other.occupied_)),
      tracker_(other.tracker_),
      charged_bytes_(other.charged_bytes_) {
  // The charge moves with the storage; the source must not double-release.
  other.tracker_ = nullptr;
  other.charged_bytes_ = 0;
}

AggHashTable& AggHashTable::operator=(AggHashTable&& other) noexcept {
  if (this == &other) return *this;
  if (tracker_ != nullptr && charged_bytes_ > 0) {
    tracker_->Release(charged_bytes_);
  }
  payload_slots_ = other.payload_slots_;
  init_values_ = std::move(other.init_values_);
  capacity_ = other.capacity_;
  mask_ = other.mask_;
  size_ = other.size_;
  data_ = std::move(other.data_);
  occupied_ = std::move(other.occupied_);
  tracker_ = other.tracker_;
  charged_bytes_ = other.charged_bytes_;
  other.tracker_ = nullptr;
  other.charged_bytes_ = 0;
  return *this;
}

void* AggHashTable::FindOrInsert(int64_t key) {
  if (size_ * 4 >= capacity_ * 3) Grow();
  uint64_t slot = HashKey(key) & mask_;
  for (;;) {
    if (!occupied_[slot]) {
      occupied_[slot] = 1;
      uint8_t* entry = EntryAt(slot);
      *reinterpret_cast<int64_t*>(entry) = key;
      std::memcpy(entry + 8, init_values_.data(), payload_slots_ * 8);
      ++size_;
      return entry + 8;
    }
    if (*reinterpret_cast<const int64_t*>(EntryAt(slot)) == key) {
      return EntryAt(slot) + 8;
    }
    slot = (slot + 1) & mask_;
  }
}

void* AggHashTable::Find(int64_t key) const {
  uint64_t slot = HashKey(key) & mask_;
  for (;;) {
    if (!occupied_[slot]) return nullptr;
    if (*reinterpret_cast<const int64_t*>(EntryAt(slot)) == key) {
      return EntryAt(slot) + 8;
    }
    slot = (slot + 1) & mask_;
  }
}

void AggHashTable::Allocate(uint64_t capacity) {
  capacity_ = capacity;
  mask_ = capacity - 1;
  data_.resize(capacity * entry_bytes());
  occupied_.assign(capacity, 0);
}

void AggHashTable::Grow() {
  const uint64_t old_capacity = capacity_;
  auto old_data = std::move(data_);
  auto old_occupied = std::move(occupied_);
  Allocate(capacity_ * 2);
  // Both generations are live during the rehash: charge the new arrays
  // now and release the old ones only after the last entry has moved.
  if (tracker_ != nullptr) tracker_->Charge(footprint());
  const uint8_t* old_base = old_data.data();
  for (uint64_t i = 0; i < old_capacity; ++i) {
    if (!old_occupied[i]) continue;
    const uint8_t* entry = old_base + i * entry_bytes();
    int64_t key = *reinterpret_cast<const int64_t*>(entry);
    uint64_t slot = HashKey(key) & mask_;
    while (occupied_[slot]) slot = (slot + 1) & mask_;
    occupied_[slot] = 1;
    std::memcpy(EntryAt(slot), entry, entry_bytes());
  }
  if (tracker_ != nullptr) {
    tracker_->Release(charged_bytes_);
    charged_bytes_ = footprint();
  }
}

void AggHashTable::ForEach(
    const std::function<void(int64_t, void*)>& fn) const {
  for (uint64_t i = 0; i < capacity_; ++i) {
    if (!occupied_[i]) continue;
    uint8_t* entry = EntryAt(i);
    fn(*reinterpret_cast<const int64_t*>(entry), entry + 8);
  }
}

AggHashTableSet::AggHashTableSet(uint32_t payload_slots,
                                 std::vector<int64_t> init_values,
                                 int max_threads)
    : payload_slots_(payload_slots), init_values_(std::move(init_values)) {
  tables_.resize(static_cast<size_t>(max_threads));
}

AggHashTable* AggHashTableSet::Local() {
  int index = runtime_internal::GetThreadIndex();
  AQE_CHECK(static_cast<size_t>(index) < tables_.size());
  auto& table = tables_[static_cast<size_t>(index)];
  if (table == nullptr) {
    table = std::make_unique<AggHashTable>(payload_slots_, init_values_,
                                           tracker_);
  }
  return table.get();
}

std::vector<AggHashTable*> AggHashTableSet::NonEmptyTables() const {
  std::vector<AggHashTable*> result;
  for (const auto& table : tables_) {
    if (table != nullptr && table->size() > 0) result.push_back(table.get());
  }
  return result;
}

void AggHashTableSet::MergeInto(
    AggHashTable* target,
    const std::function<void(uint32_t, int64_t*, int64_t)>& merge) {
  if (target->size() == 0) {
    std::unique_ptr<AggHashTable>* largest = nullptr;
    for (auto& table : tables_) {
      if (table != nullptr &&
          (largest == nullptr || table->size() > (*largest)->size())) {
        largest = &table;
      }
    }
    if (largest != nullptr) {
      *target = std::move(**largest);
      largest->reset();
    }
  }
  for (auto& table : tables_) {
    if (table == nullptr) continue;
    table->ForEach([&](int64_t key, void* payload) {
      auto* src = reinterpret_cast<const int64_t*>(payload);
      auto* dst = reinterpret_cast<int64_t*>(target->FindOrInsert(key));
      for (uint32_t s = 0; s < payload_slots_; ++s) {
        merge(s, &dst[s], src[s]);
      }
    });
    table.reset();
  }
}

}  // namespace aqe
