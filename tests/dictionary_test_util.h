#ifndef AQE_TESTS_DICTIONARY_TEST_UTIL_H_
#define AQE_TESTS_DICTIONARY_TEST_UTIL_H_

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

}  // namespace aqe::testutil

#endif  // AQE_TESTS_DICTIONARY_TEST_UTIL_H_
