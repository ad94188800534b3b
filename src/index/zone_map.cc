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

/// Sets the presence bits of the `rows` > 0 values of one block, whose
/// least and greatest are lo and hi, in the block's kPresenceWords `words`.
/// Each distinct value's bits are set once: a bitset over [lo, hi] in
/// `seen` marks the values present first, unless it would have more words
/// than the block has rows (a column of mostly distinct, spread-out codes),
/// where the per-row loop is cheaper. Either way the bits are the same.
template <typename T>
void FillPresence(const T* values, uint64_t rows, T lo, T hi,
                  PageVector<uint64_t>* seen, uint64_t* words) {
  std::fill_n(words, ZoneMaps::kPresenceWords, 0);
  const auto base = static_cast<uint64_t>(static_cast<int64_t>(lo));
  const auto offset = [base](T value) {
    return static_cast<uint64_t>(static_cast<int64_t>(value)) - base;
  };
  const uint64_t seen_words = offset(hi) / 64 + 1;
  if (seen_words > rows) {
    for (uint64_t r = 0; r < rows; ++r) ZoneMaps::PresenceAdd(words, values[r]);
    return;
  }
  seen->assign(seen_words, 0);
  for (uint64_t r = 0; r < rows; ++r) {
    const uint64_t d = offset(values[r]);
    (*seen)[d / 64] |= 1ull << (d % 64);
  }
  for (uint64_t w = 0; w < seen_words; ++w) {
    for (uint64_t word = (*seen)[w]; word != 0; word &= word - 1) {
      ZoneMaps::PresenceAdd(
          words, static_cast<int64_t>(base + 64 * w + __builtin_ctzll(word)));
    }
  }
}

/// Fills `cz`'s per-block min/max, and its presence filter if it has one,
/// from a column of `rows` > 0 values of type T, into the arrays Prepare
/// sized.
template <typename T>
void FillZones(const T* values, uint64_t rows, uint32_t block_rows,
               ZoneMaps::ColumnZones* cz) {
  PageVector<uint64_t> seen;
  for (uint64_t b = 0; b < cz->min.size(); ++b) {
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
    if (cz->has_presence) {
      FillPresence(values + begin, end - begin, lo, hi, &seen,
                   cz->presence.data() + b * ZoneMaps::kPresenceWords);
    }
  }
}

}  // namespace

void ZoneMaps::PresenceAdd(uint64_t* words, int64_t value) {
  const auto [b0, b1] = PresenceBits(value);
  words[b0 / 64] |= 1ull << (b0 % 64);
  words[b1 / 64] |= 1ull << (b1 % 64);
}

bool ZoneMaps::PresenceMayContain(const uint64_t* words, int64_t value) {
  const auto [b0, b1] = PresenceBits(value);
  return (words[b0 / 64] >> (b0 % 64) & 1) && (words[b1 / 64] >> (b1 % 64) & 1);
}

ZoneMaps ZoneMaps::Prepare(const Table& table, uint32_t block_rows) {
  AQE_CHECK(block_rows > 0);
  ZoneMaps zones;
  zones.block_rows_ = block_rows;
  const uint64_t rows = table.num_rows();
  zones.num_blocks_ = (rows + block_rows - 1) / block_rows;
  for (int c = 0; c < table.num_columns(); ++c) {
    if (table.column(c).type() == DataType::kF64 || rows == 0) continue;
    ColumnZones& cz = zones.columns_.emplace_back();
    cz.column = c;
    cz.has_presence = table.has_dictionary(c);
    cz.min.resize(zones.num_blocks_);
    cz.max.resize(zones.num_blocks_);
    if (cz.has_presence) cz.presence.resize(zones.num_blocks_ * kPresenceWords);
  }
  return zones;
}

void ZoneMaps::FillColumn(const Table& table, size_t i) {
  AQE_CHECK((table.num_rows() + block_rows_ - 1) / block_rows_ ==
            num_blocks_);
  ColumnZones& cz = columns_[i];
  VisitIntColumn(table.column(cz.column), [&](const auto* values) {
    FillZones(values, table.num_rows(), block_rows_, &cz);
  });
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
