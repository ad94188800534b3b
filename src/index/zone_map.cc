#include "index/zone_map.h"

#include <algorithm>
#include <utility>

#include "common/status.h"
#include "storage/table.h"

namespace aqe {

namespace {

/// splitmix64 finalizer: cheap, well-mixed hash for the presence filter.
uint64_t MixHash(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The two presence-filter bits of `value`, each in [0, kPresenceWords * 64).
std::pair<uint32_t, uint32_t> PresenceBits(int64_t value) {
  const uint64_t h = MixHash(static_cast<uint64_t>(value));
  constexpr uint32_t kBits = ZoneMaps::kPresenceWords * 64;
  return {static_cast<uint32_t>(h) % kBits,
          static_cast<uint32_t>(h >> 32) % kBits};
}

/// Fills `cz`'s per-block min/max, and its presence filter if it has one,
/// from a column of `rows` > 0 values of type T.
template <typename T>
void FillZones(const T* values, uint64_t rows, uint32_t block_rows,
               ZoneMaps::ColumnZones* cz) {
  const uint64_t num_blocks = (rows + block_rows - 1) / block_rows;
  cz->min.resize(num_blocks);
  cz->max.resize(num_blocks);
  if (cz->has_presence) {
    cz->presence.assign(num_blocks * ZoneMaps::kPresenceWords, 0);
  }
  for (uint64_t b = 0; b < num_blocks; ++b) {
    const uint64_t begin = b * block_rows;
    const uint64_t end = std::min(rows, begin + block_rows);
    T lo = values[begin];
    T hi = values[begin];
    for (uint64_t r = begin + 1; r < end; ++r) {
      lo = std::min(lo, values[r]);
      hi = std::max(hi, values[r]);
    }
    cz->min[b] = lo;
    cz->max[b] = hi;
    if (!cz->has_presence) continue;
    uint64_t* words = cz->presence.data() + b * ZoneMaps::kPresenceWords;
    for (uint64_t r = begin; r < end; ++r) {
      const auto [b0, b1] = PresenceBits(values[r]);
      words[b0 / 64] |= 1ull << (b0 % 64);
      words[b1 / 64] |= 1ull << (b1 % 64);
    }
  }
}

}  // namespace

bool ZoneMaps::PresenceMayContain(const uint64_t* words, int64_t value) {
  const auto [b0, b1] = PresenceBits(value);
  return (words[b0 / 64] >> (b0 % 64) & 1) && (words[b1 / 64] >> (b1 % 64) & 1);
}

ZoneMaps ZoneMaps::Build(const Table& table, uint32_t block_rows) {
  AQE_CHECK(block_rows > 0);
  ZoneMaps zones;
  zones.block_rows_ = block_rows;
  const uint64_t rows = table.num_rows();
  zones.num_blocks_ = (rows + block_rows - 1) / block_rows;
  for (int c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    if (col.type() == DataType::kF64 || rows == 0) continue;
    ColumnZones cz;
    cz.column = c;
    cz.has_presence = table.has_dictionary(c);
    VisitIntColumn(col, [&](const auto* values) {
      FillZones(values, rows, block_rows, &cz);
    });
    zones.columns_.push_back(std::move(cz));
  }
  return zones;
}

const ZoneMaps::ColumnZones* ZoneMaps::ForColumn(int column) const {
  for (const ColumnZones& cz : columns_) {
    if (cz.column == column) return &cz;
  }
  return nullptr;
}

uint64_t ZoneMaps::approx_bytes() const {
  uint64_t bytes = 0;
  for (const ColumnZones& cz : columns_) {
    bytes += cz.min.size() * sizeof(int64_t) * 2 +
             cz.presence.size() * sizeof(uint64_t);
  }
  return bytes;
}

}  // namespace aqe
