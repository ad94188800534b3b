#include "exec/morsel.h"

#include <algorithm>

#include "common/status.h"

namespace aqe {

std::shared_ptr<const ScanDomain> ScanDomain::Make(
    std::vector<MorselRange> ranges, uint64_t table_rows) {
  std::sort(ranges.begin(), ranges.end(),
            [](const MorselRange& a, const MorselRange& b) {
              return a.begin < b.begin;
            });
  auto domain = std::make_shared<ScanDomain>();
  domain->table_rows = table_rows;
  for (const MorselRange& r : ranges) {
    const uint64_t begin = r.begin;
    const uint64_t end = std::min(r.end, table_rows);
    if (begin >= end) continue;
    if (!domain->ranges.empty() && begin <= domain->ranges.back().end) {
      domain->ranges.back().end = std::max(domain->ranges.back().end, end);
    } else {
      domain->ranges.push_back({begin, end});
    }
  }
  domain->prefix.reserve(domain->ranges.size() + 1);
  uint64_t selected = 0;
  domain->prefix.push_back(0);
  for (const MorselRange& r : domain->ranges) {
    selected += r.end - r.begin;
    domain->prefix.push_back(selected);
  }
  return domain;
}

size_t ScanDomain::RangeIndexFor(uint64_t v) const {
  AQE_CHECK(v < selected());
  // First prefix entry strictly greater than v belongs to the next range.
  auto it = std::upper_bound(prefix.begin(), prefix.end(), v);
  return static_cast<size_t>(it - prefix.begin()) - 1;
}

MorselQueue::MorselQueue(std::shared_ptr<const ScanDomain> domain,
                         uint64_t vbase, uint64_t vend, uint64_t initial_size,
                         uint64_t max_size, uint64_t grow_every)
    : total_(vend - vbase),
      initial_size_(std::max<uint64_t>(1, initial_size)),
      max_size_(std::max(initial_size_, max_size)),
      grow_every_(std::max<uint64_t>(1, grow_every)),
      domain_(std::move(domain)),
      vbase_(vbase) {
  AQE_CHECK(domain_ != nullptr && vbase <= vend && vend <= domain_->selected());
}

uint64_t MorselQueue::SizeAt(uint64_t offset) const {
  // The first `grow_every_` morsels have size s0 and cover [0, g*s0); the
  // next `grow_every_` have size 2*s0; and so on until max_size_.
  uint64_t size = initial_size_;
  uint64_t boundary = grow_every_ * size;
  while (offset >= boundary && size < max_size_) {
    size = std::min(size * 2, max_size_);
    boundary += grow_every_ * size;
  }
  return size;
}

bool MorselQueue::Next(MorselBatch* out) {
  uint64_t begin = cursor_.load(std::memory_order_relaxed);
  uint64_t size;
  size_t first_idx;
  do {
    if (begin >= total_) return false;
    size = std::min(SizeAt(begin), total_ - begin);
    const uint64_t v = vbase_ + begin;
    first_idx = domain_->RangeIndexFor(v);
    // Clamp the claim at the farthest boundary the batch can hold, so the
    // cursor advances by exactly the rows handed out below.
    const size_t last = std::min(first_idx + MorselBatch::kMaxRanges,
                                 domain_->ranges.size());
    size = std::min(size, domain_->prefix[last] - vbase_ - begin);
  } while (!cursor_.compare_exchange_weak(begin, begin + size,
                                          std::memory_order_relaxed));
  out->count = 0;
  out->rows = size;
  uint64_t v = vbase_ + begin;
  uint64_t left = size;
  for (size_t idx = first_idx; left > 0; ++idx) {
    const MorselRange& range = domain_->ranges[idx];
    const uint64_t offset_in_range = v - domain_->prefix[idx];
    const uint64_t take =
        std::min(left, (range.end - range.begin) - offset_in_range);
    out->ranges[out->count++] = {range.begin + offset_in_range,
                                 range.begin + offset_in_range + take};
    v += take;
    left -= take;
  }
  return true;
}

ShardedMorselQueue::ShardedMorselQueue(std::shared_ptr<const ScanDomain> domain,
                                       int num_shards, uint64_t initial_size,
                                       uint64_t max_size, uint64_t grow_every)
    : total_(domain ? domain->selected() : 0) {
  AQE_CHECK(domain != nullptr && num_shards >= 1);
  const uint64_t n = static_cast<uint64_t>(num_shards);
  const uint64_t per_shard = total_ / n;
  uint64_t vbase = 0;
  shards_.reserve(static_cast<size_t>(num_shards));
  for (uint64_t s = 0; s < n; ++s) {
    const uint64_t rows = s + 1 == n ? total_ - vbase : per_shard;
    shards_.push_back(std::make_unique<MorselQueue>(
        domain, vbase, vbase + rows, initial_size, max_size, grow_every));
    vbase += rows;
  }
}

bool ShardedMorselQueue::Next(int shard, MorselBatch* out) {
  AQE_CHECK(shard >= 0 && shard < num_shards());
  if (shards_[static_cast<size_t>(shard)]->Next(out)) return true;
  // Own shard dry: steal from the shard with the most remaining rows.
  // Loop because a near-empty victim can be drained between the size scan
  // and the claim.
  for (;;) {
    size_t victim = shards_.size();
    uint64_t victim_remaining = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      uint64_t r = shards_[s]->remaining();
      if (r > victim_remaining) {
        victim_remaining = r;
        victim = s;
      }
    }
    if (victim == shards_.size()) return false;
    if (shards_[victim]->Next(out)) return true;
  }
}

uint64_t ShardedMorselQueue::remaining() const {
  uint64_t sum = 0;
  for (const auto& shard : shards_) sum += shard->remaining();
  return sum;
}

uint64_t ShardedMorselQueue::shard_remaining(int shard) const {
  AQE_CHECK(shard >= 0 && shard < num_shards());
  return shards_[static_cast<size_t>(shard)]->remaining();
}

}  // namespace aqe
