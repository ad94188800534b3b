#ifndef AQE_INDEX_ZONE_MAP_H_
#define AQE_INDEX_ZONE_MAP_H_

#include <cstdint>
#include <vector>

#include "common/page_allocator.h"

namespace aqe {

class Table;

/// Per-block min/max summaries over every integer column of a table
/// ("zone maps" / small materialized aggregates), plus a per-block code
/// presence filter for dictionary columns. Blocks are fixed-size row
/// ranges aligned with the morsel queue's initial morsel size, so pruning
/// a block prunes (at least) one would-be morsel. Built once after bulk
/// load: the calling thread sizes every column's arrays (Prepare), then each
/// column is filled as its own task (FillColumn), possibly on a helper
/// thread, so the per-block arrays come from PageAllocator; immutable once
/// filled.
class ZoneMaps {
 public:
  /// Presence-filter size: 512 bits per block per dictionary column.
  static constexpr uint32_t kPresenceWords = 8;

  struct ColumnZones {
    int column = -1;
    PageVector<int64_t> min;  ///< per block
    PageVector<int64_t> max;
    /// Dictionary columns only: blocked Bloom filter (2 probes) over the
    /// codes present in each block, so equality on a code can prune blocks
    /// whose [min, max] happens to straddle it.
    bool has_presence = false;
    PageVector<uint64_t> presence;  ///< num_blocks * kPresenceWords
  };

  /// Sizes the zones of every integer column, of any width (F64 columns are
  /// skipped — no query predicate compares them to integer constants),
  /// without filling them.
  static ZoneMaps Prepare(const Table& table, uint32_t block_rows);

  /// Columns with zones, each filled by FillColumn.
  size_t num_columns() const { return columns_.size(); }

  /// Fills the i-th prepared column's zones from `table`, the table
  /// Prepare sized them for. Distinct columns may be filled concurrently.
  void FillColumn(const Table& table, size_t i);

  uint32_t block_rows() const { return block_rows_; }
  uint64_t num_blocks() const { return num_blocks_; }

  /// Zones of one column; nullptr when the column has none (F64 / empty).
  const ColumnZones* ForColumn(int column) const;

  /// Sets the two bits of `value` in `words` (one block's kPresenceWords
  /// filter).
  static void PresenceAdd(uint64_t* words, int64_t value);

  /// Tests `words` (one block's kPresenceWords filter) for `value`. False
  /// positives possible, false negatives impossible.
  static bool PresenceMayContain(const uint64_t* words, int64_t value);

  uint64_t approx_bytes() const;

 private:
  uint32_t block_rows_ = 0;
  uint64_t num_blocks_ = 0;
  std::vector<ColumnZones> columns_;
};

}  // namespace aqe

#endif  // AQE_INDEX_ZONE_MAP_H_
