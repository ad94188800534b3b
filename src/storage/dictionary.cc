#include "storage/dictionary.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/fork_join.h"
#include "common/status.h"
#include "simd/simd.h"

namespace aqe {

namespace {

constexpr size_t kMinTableSize = 16;

}  // namespace

size_t Dictionary::Slot(std::string_view s) const {
  const size_t mask = table_.size() - 1;
  for (size_t i = std::hash<std::string_view>{}(s) & mask;; i = (i + 1) & mask) {
    const int32_t code = table_[i];
    if (code == kEmpty || View(static_cast<size_t>(code)) == s) return i;
  }
}

void Dictionary::Rehash(size_t capacity) {
  table_.assign(capacity, kEmpty);
  const size_t mask = capacity - 1;
  for (size_t code = 0; code < ends_.size(); ++code) {
    size_t i = std::hash<std::string_view>{}(View(code)) & mask;
    while (table_[i] != kEmpty) i = (i + 1) & mask;
    table_[i] = static_cast<int32_t>(code);
  }
}

int32_t Dictionary::GetOrAdd(std::string_view s) {
  // Grow before probing so the insert below keeps the load at most 1/2.
  if (2 * (ends_.size() + 1) > table_.size()) {
    Rehash(std::max(kMinTableSize, 2 * table_.size()));
  }
  const size_t slot = Slot(s);
  if (table_[slot] != kEmpty) return table_[slot];
  AQE_CHECK_MSG(ends_.size() < static_cast<size_t>(
                                   std::numeric_limits<int32_t>::max()),
                "dictionary code space exhausted");
  const int32_t code = size();
  if (code > 0 && sorted_ && s < View(static_cast<size_t>(code - 1))) {
    sorted_ = false;
  }
  AppendToArena(s);  // may move the arena; `s` is not used again
  ends_.push_back(arena_.size());
  table_[slot] = code;
  return code;
}

void Dictionary::AppendToArena(std::string_view s) {
  const size_t at = arena_.size();
  if (at + s.size() <= arena_.capacity()) {
    arena_.resize(at + s.size());  // in place: `s` stays valid
    std::copy(s.begin(), s.end(), arena_.begin() + at);
    return;
  }
  // Fill the grown buffer before the old one is freed: `s` may view it.
  PageVector<char> grown;
  grown.reserve(std::max(2 * arena_.capacity(), at + s.size()));
  grown.resize(at + s.size());
  std::copy(arena_.begin(), arena_.end(), grown.begin());
  std::copy(s.begin(), s.end(), grown.begin() + at);
  arena_.swap(grown);
}

int32_t Dictionary::Find(std::string_view s) const {
  if (table_.empty()) return -1;
  return table_[Slot(s)];  // kEmpty == -1
}

std::string_view Dictionary::Get(int32_t code) const {
  AQE_CHECK(code >= 0 && code < size());
  return View(static_cast<size_t>(code));
}

template <typename Matches>
std::vector<uint8_t> Dictionary::BitmapOf(const Matches& matches) const {
  std::vector<uint8_t> bitmap(ends_.size(), 0);
  for (size_t code = 0; code < ends_.size(); ++code) {
    bitmap[code] = matches(View(code)) ? 1 : 0;
  }
  return bitmap;
}

std::vector<uint8_t> Dictionary::MatchPrefix(std::string_view prefix) const {
  return BitmapOf([prefix](std::string_view s) {
    return s.substr(0, prefix.size()) == prefix;
  });
}

std::vector<uint8_t> Dictionary::MatchContains(std::string_view infix) const {
  if (infix.empty()) return std::vector<uint8_t>(ends_.size(), 1);
  return BitmapOf([infix](std::string_view s) {
    return FindSubstr(s.data(), s.size(), infix.data(), infix.size()) !=
           SIZE_MAX;
  });
}

std::vector<uint8_t> Dictionary::MatchIn(
    const std::vector<std::string>& values) const {
  std::vector<uint8_t> bitmap(ends_.size(), 0);
  for (const std::string& v : values) {
    int32_t code = Find(v);
    if (code >= 0) bitmap[static_cast<size_t>(code)] = 1;
  }
  return bitmap;
}

std::vector<uint8_t> Dictionary::MatchBitmap(
    const std::function<bool(std::string_view)>& predicate) const {
  return BitmapOf(predicate);
}

PageVector<int32_t> Dictionary::SortCodes() {
  const size_t n = ends_.size();
  PageVector<int32_t> order(n);  // new code -> old code
  std::iota(order.begin(), order.end(), 0);
  const auto less = [this](int32_t a, int32_t b) {
    return View(static_cast<size_t>(a)) < View(static_cast<size_t>(b));
  };
  // Sort chunks in parallel, then merge pairs of sorted runs round by round,
  // each round's merges in parallel too.
  const size_t chunks =
      n < static_cast<size_t>(kParallelSortCodes) ? 1 : ForkJoinWidth();
  std::vector<size_t> bounds(chunks + 1);
  for (size_t c = 0; c <= chunks; ++c) bounds[c] = n * c / chunks;
  ForkJoin(chunks, [&](size_t c) {
    std::sort(order.begin() + bounds[c], order.begin() + bounds[c + 1], less);
  });
  PageVector<int32_t> merged(chunks > 1 ? n : 0);
  for (size_t run = 1; run < chunks; run *= 2) {
    ForkJoin((chunks + 2 * run - 1) / (2 * run), [&](size_t pair) {
      const size_t first = pair * 2 * run;
      const auto lo = order.begin() + bounds[first];
      const auto mid = order.begin() + bounds[std::min(chunks, first + run)];
      const auto hi = order.begin() + bounds[std::min(chunks, first + 2 * run)];
      std::merge(lo, mid, mid, hi, merged.begin() + bounds[first], less);
    });
    order.swap(merged);
  }
  // One pass into exact-size buffers: the load-time slack of both goes.
  PageVector<char> arena(arena_.size());
  PageVector<uint64_t> ends(n);
  PageVector<int32_t> remap(n);  // old code -> new code
  uint64_t end = 0;
  for (size_t new_code = 0; new_code < n; ++new_code) {
    const auto old_code = static_cast<size_t>(order[new_code]);
    const std::string_view s = View(old_code);
    std::copy(s.begin(), s.end(), arena.begin() + end);
    end += s.size();
    ends[new_code] = end;
    remap[old_code] = static_cast<int32_t>(new_code);
  }
  arena_ = std::move(arena);
  ends_ = std::move(ends);
  Rehash(table_.size());
  sorted_ = true;
  return remap;
}

std::pair<int32_t, int32_t> Dictionary::PrefixRange(
    std::string_view prefix) const {
  // First code in [lo, size()) whose string fails `before`; `before` must
  // hold on a prefix of the (sorted) code range.
  auto partition_point = [this](int32_t lo, auto before) {
    int32_t hi = size();
    while (lo < hi) {
      const int32_t mid = lo + (hi - lo) / 2;
      if (before(View(static_cast<size_t>(mid)))) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  const int32_t lo =
      partition_point(0, [prefix](std::string_view s) { return s < prefix; });
  const int32_t hi = partition_point(lo, [prefix](std::string_view s) {
    return s.substr(0, prefix.size()) <= prefix;
  });
  return {lo, hi};
}

}  // namespace aqe
