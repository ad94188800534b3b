#include "index/text_index.h"

#include <algorithm>
#include <map>

#include "storage/dictionary.h"

namespace aqe {

namespace {

bool IsTokenByte(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

TokenIndex TokenIndex::Build(const Dictionary& dict) {
  // std::map keeps tokens sorted, so the flattened layout is deterministic
  // regardless of hash seeds. Its keys view the dictionary's strings, which
  // `dict` (const here) keeps in place, so a token is copied only once, into
  // the flattened vocabulary. Token vocabularies are small; build time is
  // dominated by tokenizing the distinct strings, not map overhead. The
  // posting lists are data-sized and may grow on a helper thread, so they
  // come from PageAllocator.
  std::map<std::string_view, PageVector<int32_t>> postings;
  for (int32_t code = 0; code < dict.size(); ++code) {
    // The maximal alphanumeric runs of the string.
    const std::string_view s = dict.Get(code);
    size_t i = 0;
    while (i < s.size()) {
      while (i < s.size() && !IsTokenByte(s[i])) ++i;
      const size_t begin = i;
      while (i < s.size() && IsTokenByte(s[i])) ++i;
      if (i == begin) continue;
      PageVector<int32_t>& codes = postings[s.substr(begin, i - begin)];
      // Codes arrive ascending; a token repeated within one string is
      // posted once.
      if (codes.empty() || codes.back() != code) codes.push_back(code);
    }
  }
  TokenIndex index;
  index.tokens_.reserve(postings.size());
  index.offsets_.reserve(postings.size() + 1);
  index.offsets_.push_back(0);
  size_t entries = 0;
  for (const auto& posting : postings) entries += posting.second.size();
  index.codes_.reserve(entries);
  for (const auto& [token, codes] : postings) {
    index.tokens_.emplace_back(token);
    index.codes_.insert(index.codes_.end(), codes.begin(), codes.end());
    index.offsets_.push_back(index.codes_.size());
  }
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
