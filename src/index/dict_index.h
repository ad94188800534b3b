#ifndef AQE_INDEX_DICT_INDEX_H_
#define AQE_INDEX_DICT_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/page_allocator.h"

namespace aqe {

class Column;

/// CSR inverted mapping of a dictionary-encoded column: code → the sorted
/// row ids carrying it. Doubles as the hash index over dictionary codes
/// (the dictionary's own hash map resolves string → code in O(1); this
/// structure resolves code → rows in O(result)) and, because codes are
/// grouped contiguously, as the prefix index: after Table::SortDictionaries
/// a LIKE-prefix predicate maps to a code range [lo, hi) via
/// Dictionary::PrefixRange, and that range's rows are one contiguous CSR
/// slice. Built once after bulk load, possibly on a helper thread, so its
/// arrays come from PageAllocator; immutable.
class DictCodeIndex {
 public:
  /// `column` must be the I32 code column of at most 2^32 - 1 rows (row ids
  /// are 32-bit); `num_codes` its dictionary size.
  static DictCodeIndex Build(const Column& column, int32_t num_codes);

  int32_t num_codes() const { return static_cast<int32_t>(offsets_.size()) - 1; }
  uint64_t rows() const { return row_ids_.size(); }

  /// Rows carrying codes in [lo, hi), clamped to the valid code range.
  /// O(1) — offsets difference.
  uint64_t CountForCodeRange(int64_t lo, int64_t hi) const;

  /// Appends the rows carrying codes in [lo, hi) to `out`. Rows are
  /// ascending per code but NOT across codes — the caller sorts once after
  /// collecting all candidate rows.
  void CollectRows(int64_t lo, int64_t hi, std::vector<uint32_t>* out) const;

  /// Row ids carrying exactly `code` (ascending); empty span for codes
  /// outside [0, num_codes).
  const uint32_t* RowsBegin(int32_t code) const;
  const uint32_t* RowsEnd(int32_t code) const;

  uint64_t approx_bytes() const {
    return offsets_.size() * sizeof(uint64_t) +
           row_ids_.size() * sizeof(uint32_t);
  }

 private:
  PageVector<uint64_t> offsets_;  ///< size num_codes + 1
  PageVector<uint32_t> row_ids_;  ///< grouped by code, ascending within
};

}  // namespace aqe

#endif  // AQE_INDEX_DICT_INDEX_H_
