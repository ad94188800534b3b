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
/// looked up here. The table keeps a copy of each token's bytes, as the
/// strings it is fed are decoded into a reused buffer.
class TokenIds {
 public:
  /// The id of `token`, added if new.
  uint32_t IdOf(std::string_view token) {
    if (2 * (size() + 1) > slots_.size()) Grow();
    size_t i = Home(token);
    for (; slots_[i] != kEmpty; i = (i + 1) & (slots_.size() - 1)) {
      if (Token(slots_[i]) == token) return slots_[i];
    }
    slots_[i] = static_cast<uint32_t>(size());
    bytes_.insert(bytes_.end(), token.begin(), token.end());
    ends_.push_back(bytes_.size());
    return slots_[i];
  }

  size_t size() const { return ends_.size(); }

  /// The token of `id`; the view is valid until the next IdOf.
  std::string_view Token(uint32_t id) const {
    const size_t begin = id == 0 ? 0 : ends_[id - 1];
    return {bytes_.data() + begin, ends_[id] - begin};
  }

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
    for (uint32_t id = 0; id < size(); ++id) {
      size_t i = Home(Token(id));
      while (slots_[i] != kEmpty) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = id;
    }
  }

  /// Every token back to back: token id is bytes_[ends_[id-1], ends_[id])
  /// (ends_[-1] reads as 0).
  PageVector<char> bytes_;
  PageVector<size_t> ends_;
  PageVector<uint32_t> slots_;  ///< ids, kEmpty for a free slot
};

/// One token's codes within one range of a build: an ascending array until
/// it would outgrow the range's bitmap words (TokenIndex's container rule,
/// applied to the range), then a bitmap of those words, bit i for the
/// range's i-th code.
struct RangeCodes {
  uint64_t count = 0;
  int32_t last = -1;          ///< the code it was last posted for
  PageVector<int32_t> codes;  ///< while an array
  PageVector<uint64_t> bits;  ///< once a bitmap
};

}  // namespace

TokenIndex TokenIndex::Build(const Dictionary& dict) {
  // Each range of codes tokenizes its strings and keeps each token's codes
  // in a container of its own (RangeCodes), in code order. A token's final
  // container follows from its total count. Its ranges' codes are gathered
  // in range order: an array token appends each range's array, or the set
  // bits of its bitmap; a bitmap token copies each range's bitmap, or sets
  // the bits of its array, into the words of that range, as the ranges
  // start on multiples of 64 codes. Either way the layout is a serial
  // build's. The merged vocabulary is a std::map, so the flattened tokens
  // are sorted whatever the hash seeds. Every map key views a range's copy
  // of the token, so a token is copied once per range that holds it, and
  // once more into the flattened vocabulary. Build time is dominated by
  // tokenizing the distinct strings. The ranges run on helper threads, so
  // their buffers come from PageAllocator; a range's containers are at
  // most its bitmap's size, one bit per code of the range.
  struct Range {
    TokenIds ids;
    PageVector<RangeCodes> tokens;  ///< by id
  };
  const auto n = static_cast<size_t>(dict.size());
  const size_t num_ranges =
      n < kParallelBuildCodes ? 1 : 4 * ForkJoinWidth();
  const auto range_begin = [n, num_ranges](size_t r) {
    return std::min(n, (n * r / num_ranges + 63) / 64 * 64);
  };
  std::vector<Range> ranges(num_ranges);
  ForkJoin(num_ranges, [&](size_t r) {
    Range& range = ranges[r];
    const size_t first = range_begin(r), end = range_begin(r + 1);
    const uint64_t words = (end - first + 63) / 64;
    const auto set = [first](PageVector<uint64_t>* bits, int32_t code) {
      const uint64_t bit = static_cast<uint64_t>(code) - first;
      (*bits)[bit / 64] |= uint64_t{1} << (bit % 64);
    };
    // The range starts on a block head, so its strings are decoded once.
    dict.ForEach(static_cast<int32_t>(first), static_cast<int32_t>(end),
                 [&](int32_t c, std::string_view s) {
      // The maximal alphanumeric runs of the string.
      size_t i = 0;
      while (i < s.size()) {
        while (i < s.size() && !IsTokenByte(s[i])) ++i;
        const size_t begin = i;
        while (i < s.size() && IsTokenByte(s[i])) ++i;
        if (i == begin) continue;
        const uint32_t id = range.ids.IdOf(s.substr(begin, i - begin));
        if (id == range.tokens.size()) range.tokens.emplace_back();
        RangeCodes& token = range.tokens[id];
        // A token repeated within one string is posted once.
        if (token.last == c) continue;
        token.last = c;
        ++token.count;
        if (!token.bits.empty()) {
          set(&token.bits, c);
        } else if (!IsBitmap(token.count, words)) {
          token.codes.push_back(c);
        } else {
          token.bits.assign(words, 0);
          for (const int32_t code : token.codes) set(&token.bits, code);
          set(&token.bits, c);
          token.codes = PageVector<int32_t>();
        }
      }
    });
  });
  // token[t]: first the token's posting count, then its index in the
  // flattened vocabulary.
  std::map<std::string_view, uint64_t> token;
  for (const Range& range : ranges) {
    for (uint32_t id = 0; id < range.ids.size(); ++id) {
      token[range.ids.Token(id)] += range.tokens[id].count;
    }
  }
  TokenIndex index;
  index.num_codes_ = n;
  const uint64_t words = index.bitmap_words();
  index.tokens_.reserve(token.size());
  index.postings_.reserve(token.size());
  uint64_t array_codes = 0, bitmaps = 0;
  for (auto& [text, count_then_index] : token) {
    const uint64_t count = count_then_index;
    count_then_index = index.tokens_.size();
    index.tokens_.emplace_back(text);
    if (IsBitmap(count, words)) {
      index.postings_.push_back({count, bitmaps++ * words});
    } else {
      index.postings_.push_back({count, array_codes});
      array_codes += count;
    }
    index.posting_entries_ += count;
  }
  // The ranges' containers are gathered in range order; next[t] is the
  // codes_ slot an array token's next code goes to.
  std::vector<uint64_t> next(index.postings_.size());
  for (size_t t = 0; t < next.size(); ++t) next[t] = index.postings_[t].first;
  index.codes_.resize(array_codes);
  index.words_.assign(bitmaps * words, 0);
  for (size_t r = 0; r < num_ranges; ++r) {
    const Range& range = ranges[r];
    const size_t first = range_begin(r);
    for (uint32_t id = 0; id < range.ids.size(); ++id) {
      const RangeCodes& codes = range.tokens[id];
      const uint64_t t = token[range.ids.Token(id)];
      const Postings& postings = index.postings_[t];
      if (IsBitmap(postings.count, words)) {
        uint64_t* slice = index.words_.data() + postings.first + first / 64;
        for (size_t w = 0; w < codes.bits.size(); ++w) slice[w] |= codes.bits[w];
        for (const int32_t code : codes.codes) {
          const uint64_t bit = static_cast<uint64_t>(code) - first;
          slice[bit / 64] |= uint64_t{1} << (bit % 64);
        }
        continue;
      }
      int32_t* out = index.codes_.data() + next[t];
      out = std::copy(codes.codes.begin(), codes.codes.end(), out);
      for (size_t w = 0; w < codes.bits.size(); ++w) {
        for (uint64_t word = codes.bits[w]; word != 0; word &= word - 1) {
          *out++ = static_cast<int32_t>(first + 64 * w + __builtin_ctzll(word));
        }
      }
      next[t] = static_cast<uint64_t>(out - index.codes_.data());
    }
  }
  return index;
}

size_t TokenIndex::num_bitmaps() const {
  return static_cast<size_t>(
      std::count_if(postings_.begin(), postings_.end(), [this](const Postings& p) {
        return IsBitmap(p.count, bitmap_words());
      }));
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

void TokenIndex::OrInto(size_t t, uint64_t* bits) const {
  const Postings& postings = postings_[t];
  if (IsBitmap(postings.count, bitmap_words())) {
    const uint64_t* words = words_.data() + postings.first;
    for (uint64_t w = 0; w < bitmap_words(); ++w) bits[w] |= words[w];
    return;
  }
  for (uint64_t i = postings.first; i < postings.first + postings.count; ++i) {
    const auto code = static_cast<uint64_t>(codes_[i]);
    bits[code / 64] |= uint64_t{1} << (code % 64);
  }
}

bool TokenIndex::CandidateCodes(std::string_view pattern,
                                std::vector<int32_t>* out,
                                uint64_t* posting_entries_touched) const {
  const std::vector<std::string> parts = PatternParts(pattern);
  if (parts.empty()) return false;
  out->clear();
  // `all` holds the intersection so far, `part` each later sub-part's
  // union.
  std::vector<uint64_t> all(bitmap_words()), part;
  bool empty = false;
  for (size_t p = 0; p < parts.size() && !empty; ++p) {
    uint64_t* bits = all.data();
    if (p > 0) {
      part.assign(all.size(), 0);
      bits = part.data();
    }
    // Union of postings over tokens containing the sub-part: a substring
    // scan of the (small) token vocabulary.
    for (size_t t = 0; t < tokens_.size(); ++t) {
      if (tokens_[t].find(parts[p]) == std::string::npos) continue;
      OrInto(t, bits);
      if (posting_entries_touched != nullptr) {
        *posting_entries_touched += postings_[t].count;
      }
    }
    uint64_t any = 0;
    for (size_t w = 0; w < all.size(); ++w) {
      if (p > 0) all[w] &= part[w];
      any |= all[w];
    }
    empty = any == 0;  // the conjunction is already empty
  }
  for (size_t w = 0; w < all.size(); ++w) {
    for (uint64_t word = all[w]; word != 0; word &= word - 1) {
      out->push_back(static_cast<int32_t>(64 * w + __builtin_ctzll(word)));
    }
  }
  return true;
}

uint64_t TokenIndex::approx_bytes() const {
  uint64_t bytes = postings_.size() * sizeof(Postings) +
                   codes_.size() * sizeof(int32_t) +
                   words_.size() * sizeof(uint64_t);
  for (const std::string& t : tokens_) bytes += t.size() + sizeof(std::string);
  return bytes;
}

}  // namespace aqe
