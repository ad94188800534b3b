#ifndef AQE_TESTS_DICTIONARY_TEST_UTIL_H_
#define AQE_TESTS_DICTIONARY_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/page_allocator.h"
#include "storage/dictionary.h"

namespace aqe::testutil {

/// Loads `values`, in any order and with repeats, into the empty `dict`
/// through Dictionary::BulkLoad; returns each value's code, index for index.
inline PageVector<int32_t> BulkLoad(Dictionary* dict,
                                    const std::vector<std::string>& values) {
  PageVector<char> bytes;
  PageVector<uint64_t> ends;
  for (const std::string& v : values) {
    bytes.insert(bytes.end(), v.begin(), v.end());
    ends.push_back(bytes.size());
  }
  return dict->BulkLoad(bytes, ends);
}

/// The string of `code`, as a string of its own.
inline std::string Decode(const Dictionary& dict, int32_t code) {
  std::string buffer;
  return std::string(dict.Get(code, &buffer));
}

/// Every string of `dict`, by code.
inline std::vector<std::string> DecodeAll(const Dictionary& dict) {
  std::vector<std::string> strings;
  dict.ForEach(0, dict.size(), [&strings](int32_t, std::string_view s) {
    strings.emplace_back(s);
  });
  return strings;
}

/// Dictionary::approx_bytes of a dictionary holding `strings`, its strings
/// by code, restated from the layout: per block of kBlockCodes codes, a
/// 32-bit offset and the head's length and bytes; per later code, the
/// lengths of the prefix it shares with the code before and of the rest,
/// and the rest's bytes; a length takes 1 byte below 255, else 5; then
/// kDecodeSlack bytes if any string is held.
inline uint64_t FrontCodedBytes(const std::vector<std::string>& strings) {
  const auto length_bytes = [](size_t n) -> uint64_t {
    return n < 255 ? 1 : 5;
  };
  uint64_t bytes = strings.empty() ? 0 : Dictionary::kDecodeSlack;
  for (size_t code = 0; code < strings.size(); ++code) {
    const std::string& s = strings[code];
    if (code % Dictionary::kBlockCodes == 0) {
      bytes += sizeof(uint32_t) + length_bytes(s.size()) + s.size();
      continue;
    }
    const std::string& before = strings[code - 1];
    const auto shared = static_cast<size_t>(
        std::mismatch(s.begin(), s.begin() + std::min(s.size(), before.size()),
                      before.begin())
            .first -
        s.begin());
    bytes += length_bytes(shared) + length_bytes(s.size() - shared) +
             s.size() - shared;
  }
  return bytes;
}

}  // namespace aqe::testutil

#endif  // AQE_TESTS_DICTIONARY_TEST_UTIL_H_
