#ifndef AQE_INDEX_DICT_INDEX_H_
#define AQE_INDEX_DICT_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/page_allocator.h"

namespace aqe {

class Column;

/// CSR inverted mapping of a dictionary-encoded column: the row count of
/// every code, and the sorted row ids of every *listed* code. A code is
/// listed when it has at most MaxCandidateRows(rows) rows
/// (index/access_path.h): the scan-pruning analysis drops any candidate set
/// above that bound, so it only ever collects the rows of such codes, and
/// listing a frequent code (l_shipmode's 14% of lineitem) would store one
/// row id per row for nothing.
///
/// Doubles as the hash index over dictionary codes (the dictionary's own
/// binary search resolves string → code; this structure resolves code →
/// rows in O(result)) and, because codes are grouped contiguously, as the
/// prefix index: codes follow string order, so a LIKE-prefix predicate maps
/// to a code range [lo, hi) via Dictionary::PrefixRange, and that range's
/// rows are one contiguous CSR slice. Built once after bulk load, possibly
/// on a helper thread, so its arrays come from PageAllocator; immutable.
class DictCodeIndex {
 public:
  /// `column` must be a code column (any integer width, read through the
  /// width dispatcher) of at most 2^32 - 1 rows (row ids and counts are
  /// 32-bit); `num_codes` its dictionary size.
  static DictCodeIndex Build(const Column& column, int32_t num_codes);

  int32_t num_codes() const { return static_cast<int32_t>(counts_.size()) - 1; }
  /// Rows of the indexed column.
  uint64_t rows() const { return counts_.back(); }
  /// Row ids stored: the rows of the listed codes.
  uint64_t listed_rows() const { return row_ids_.size(); }

  /// Rows carrying codes in [lo, hi), clamped to the valid code range.
  /// O(1) — a prefix-sum difference; exact for every code, listed or not.
  uint64_t CountForCodeRange(int64_t lo, int64_t hi) const;

  /// Whether every code in [lo, hi) (clamped) has its rows listed. O(1).
  bool Listed(int64_t lo, int64_t hi) const;

  /// Appends the rows carrying codes in [lo, hi) to `out`; every code in
  /// the range must be listed (CHECKed). Rows are ascending per code but
  /// NOT across codes — the caller sorts once after collecting all
  /// candidate rows.
  void CollectRows(int64_t lo, int64_t hi, std::vector<uint32_t>* out) const;

  uint64_t approx_bytes() const {
    return (counts_.size() + listed_.size() + row_ids_.size()) *
           sizeof(uint32_t);
  }

 private:
  /// Clamps [lo, hi) to the code range; false when it is empty.
  bool Clamp(int64_t* lo, int64_t* hi) const;

  /// The listed-row prefix sums: counts_ when every code is listed.
  const PageVector<uint32_t>& listed() const {
    return listed_.empty() ? counts_ : listed_;
  }

  PageVector<uint32_t> counts_;   ///< row-count prefix sums, num_codes + 1
  /// Listed-row prefix sums, num_codes + 1; empty when every code is
  /// listed, where they would equal counts_.
  PageVector<uint32_t> listed_;
  PageVector<uint32_t> row_ids_;  ///< grouped by listed code, ascending within
};

}  // namespace aqe

#endif  // AQE_INDEX_DICT_INDEX_H_
