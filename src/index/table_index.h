#ifndef AQE_INDEX_TABLE_INDEX_H_
#define AQE_INDEX_TABLE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "index/dict_index.h"
#include "index/text_index.h"
#include "index/zone_map.h"

namespace aqe {

class Table;

struct TableIndexOptions {
  /// Zone-map block size in rows. Matches the morsel queue's initial morsel
  /// size so "blocks pruned" is "morsels never scheduled".
  uint32_t zone_block_rows = 1024;
  /// Names of dictionary columns to build inverted token indexes for
  /// (comment-style text columns probed with %word% patterns).
  std::vector<std::string> text_columns;
};

/// All secondary index structures of one table (see src/index/DESIGN.md).
/// Built once after bulk load (AttachIndexes); immutable, shared by
/// reference from scan-pruning analysis and cached ScanDomains.
struct TableIndexes {
  TableIndexOptions options;
  ZoneMaps zones;
  /// Code → sorted rows, for every dictionary column (keyed by column index).
  std::unordered_map<int, DictCodeIndex> dict_indexes;
  /// Token → codes, for the configured text columns (keyed by column index).
  std::unordered_map<int, TokenIndex> text_indexes;
  uint64_t rows = 0;
  uint64_t approx_bytes = 0;
};

/// Builds every secondary index of every listed table and attaches each
/// table's (Table::set_indexes). The builds are one flat list of tasks,
/// heaviest first, run under one ForkJoin: each token index, each code
/// index and each zone-map column of every table is its own task (see
/// src/index/DESIGN.md, "Parallel build").
void AttachIndexes(std::vector<std::pair<Table*, TableIndexOptions>> tables);

/// AttachIndexes of one table.
void AttachTableIndexes(Table* table, TableIndexOptions options = {});

}  // namespace aqe

#endif  // AQE_INDEX_TABLE_INDEX_H_
