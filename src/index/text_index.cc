#include "index/text_index.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/fork_join.h"
#include "storage/dictionary.h"

namespace aqe {

namespace {

bool IsTokenByte(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

/// One range's vocabulary: token -> id, ids in first-seen order. Open
/// addressing on a hash of a token's first 8 bytes and its length: a text
/// column's tokens are few and short, and every token of every string is
/// looked up here.
class TokenIds {
 public:
  /// The id of `token`, added if new. `token` must outlive the table.
  uint32_t IdOf(std::string_view token) {
    if (2 * (tokens_.size() + 1) > slots_.size()) Grow();
    size_t i = Home(token);
    for (; slots_[i] != kEmpty; i = (i + 1) & (slots_.size() - 1)) {
      if (tokens_[slots_[i]] == token) return slots_[i];
    }
    slots_[i] = static_cast<uint32_t>(tokens_.size());
    tokens_.push_back(token);
    return slots_[i];
  }

  /// Every token, by id.
  const PageVector<std::string_view>& tokens() const { return tokens_; }

 private:
  static constexpr uint32_t kEmpty = ~uint32_t{0};

  size_t Home(std::string_view token) const {
    uint64_t head = 0;
    std::memcpy(&head, token.data(), std::min<size_t>(token.size(), 8));
    return ((head ^ token.size()) * 0x9e3779b97f4a7c15ull) >> 32 &
           (slots_.size() - 1);
  }

  void Grow() {
    slots_.assign(std::max<size_t>(64, 2 * slots_.size()), kEmpty);
    for (uint32_t id = 0; id < tokens_.size(); ++id) {
      size_t i = Home(tokens_[id]);
      while (slots_[i] != kEmpty) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = id;
    }
  }

  PageVector<std::string_view> tokens_;
  PageVector<uint32_t> slots_;  ///< ids, kEmpty for a free slot
};

}  // namespace

TokenIndex TokenIndex::Build(const Dictionary& dict) {
  // Each range of codes tokenizes its strings into one list of postings in
  // code order, and the ranges' postings of a token are concatenated in
  // range order, so a token's codes stay ascending and the layout is a
  // serial build's. The merged vocabulary is a std::map, so the flattened
  // tokens are sorted whatever the hash seeds. Every map key views the
  // dictionary's strings, which `dict` (const here) keeps in place, so a
  // token is copied only once, into the flattened vocabulary. Build time is
  // dominated by tokenizing the distinct strings. The per-range buffers
  // are data-sized and built on helper threads, so they come from
  // PageAllocator.
  struct Posting {
    uint32_t token;  ///< the range's own id of the token
    int32_t code;
  };
  struct Range {
    TokenIds ids;
    PageVector<uint64_t> counts;  ///< postings per id
    PageVector<Posting> postings;
  };
  const auto n = static_cast<size_t>(dict.size());
  const size_t num_ranges =
      n < kParallelBuildCodes ? 1 : 4 * ForkJoinWidth();
  std::vector<Range> ranges(num_ranges);
  ForkJoin(num_ranges, [&](size_t r) {
    Range& range = ranges[r];
    const size_t first = n * r / num_ranges, end = n * (r + 1) / num_ranges;
    // A string of b bytes holds at most (b + 1) / 2 tokens, each posted at
    // most once: the bound sizes the postings once, so they are never
    // regrown (each regrowth would map, copy and unmap pages).
    size_t bound = end - first;
    for (size_t code = first; code < end; ++code) {
      bound += dict.Get(static_cast<int32_t>(code)).size();
    }
    range.postings.reserve(bound / 2);
    PageVector<int32_t> last_code;  // per id: the code it was last posted for
    for (size_t code = first; code < end; ++code) {
      const auto c = static_cast<int32_t>(code);
      // The maximal alphanumeric runs of the string.
      const std::string_view s = dict.Get(c);
      size_t i = 0;
      while (i < s.size()) {
        while (i < s.size() && !IsTokenByte(s[i])) ++i;
        const size_t begin = i;
        while (i < s.size() && IsTokenByte(s[i])) ++i;
        if (i == begin) continue;
        const uint32_t id = range.ids.IdOf(s.substr(begin, i - begin));
        if (id == last_code.size()) {
          last_code.push_back(-1);
          range.counts.push_back(0);
        }
        // A token repeated within one string is posted once.
        if (last_code[id] == c) continue;
        last_code[id] = c;
        ++range.counts[id];
        range.postings.push_back({id, c});
      }
    }
  });
  // slot[token]: first the token's posting count, then the next free slot
  // of its postings in the flattened codes.
  std::map<std::string_view, uint64_t> slot;
  for (const Range& range : ranges) {
    for (uint32_t id = 0; id < range.ids.tokens().size(); ++id) {
      slot[range.ids.tokens()[id]] += range.counts[id];
    }
  }
  TokenIndex index;
  index.tokens_.reserve(slot.size());
  index.offsets_.reserve(slot.size() + 1);
  index.offsets_.push_back(0);
  for (auto& [token, next] : slot) {
    const uint64_t first = index.offsets_.back();
    index.tokens_.emplace_back(token);
    index.offsets_.push_back(first + next);
    next = first;
  }
  // Each range's counts become the slots its tokens' postings start at.
  for (Range& range : ranges) {
    for (uint32_t id = 0; id < range.ids.tokens().size(); ++id) {
      uint64_t& next = slot[range.ids.tokens()[id]];
      const uint64_t count = range.counts[id];
      range.counts[id] = next;
      next += count;
    }
  }
  index.codes_.resize(index.offsets_.back());
  ForkJoin(num_ranges, [&](size_t r) {
    Range& range = ranges[r];
    for (const Posting& p : range.postings) {
      index.codes_[range.counts[p.token]++] = p.code;
    }
  });
  return index;
}

std::vector<std::string> TokenIndex::PatternParts(std::string_view pattern) {
  std::vector<std::string> parts;
  std::string current;
  auto flush = [&]() {
    if (current.size() >= kMinSubpart) parts.push_back(current);
    current.clear();
  };
  for (char c : pattern) {
    // '%' and '_' end the literal chunk ('_' can match a separator, so a
    // sub-part may not continue across it); separator bytes end the
    // sub-part within a chunk.
    if (c == '%' || c == '_' || !IsTokenByte(c)) {
      flush();
    } else {
      current.push_back(c);
    }
  }
  flush();
  return parts;
}

bool TokenIndex::CandidateCodes(std::string_view pattern,
                                std::vector<int32_t>* out,
                                uint64_t* posting_entries_touched) const {
  const std::vector<std::string> parts = PatternParts(pattern);
  if (parts.empty()) return false;
  out->clear();
  std::vector<int32_t> part_codes;
  std::vector<int32_t> merged;
  for (size_t p = 0; p < parts.size(); ++p) {
    // Union of postings over tokens containing the sub-part: a substring
    // scan of the (small) token vocabulary.
    part_codes.clear();
    for (size_t t = 0; t < tokens_.size(); ++t) {
      if (tokens_[t].find(parts[p]) == std::string::npos) continue;
      const size_t begin = offsets_[t], end = offsets_[t + 1];
      part_codes.insert(part_codes.end(), codes_.begin() + begin,
                        codes_.begin() + end);
      if (posting_entries_touched != nullptr) {
        *posting_entries_touched += end - begin;
      }
    }
    std::sort(part_codes.begin(), part_codes.end());
    part_codes.erase(std::unique(part_codes.begin(), part_codes.end()),
                     part_codes.end());
    if (p == 0) {
      *out = part_codes;
    } else {
      merged.clear();
      std::set_intersection(out->begin(), out->end(), part_codes.begin(),
                            part_codes.end(), std::back_inserter(merged));
      out->swap(merged);
    }
    if (out->empty()) break;  // conjunction already empty
  }
  return true;
}

uint64_t TokenIndex::approx_bytes() const {
  uint64_t bytes = offsets_.size() * sizeof(uint64_t) +
                   codes_.size() * sizeof(int32_t);
  for (const std::string& t : tokens_) bytes += t.size() + sizeof(std::string);
  return bytes;
}

}  // namespace aqe
