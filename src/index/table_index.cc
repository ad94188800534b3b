#include "index/table_index.h"

#include "common/status.h"
#include "storage/table.h"

namespace aqe {

std::shared_ptr<const TableIndexes> BuildTableIndexes(
    const Table& table, TableIndexOptions options) {
  auto indexes = std::make_shared<TableIndexes>();
  indexes->rows = table.num_rows();
  indexes->zones = ZoneMaps::Build(table, options.zone_block_rows);
  indexes->approx_bytes = indexes->zones.approx_bytes();
  for (int c = 0; c < table.num_columns(); ++c) {
    if (!table.has_dictionary(c)) continue;
    DictCodeIndex idx =
        DictCodeIndex::Build(table.column(c), table.dictionary(c).size());
    indexes->approx_bytes += idx.approx_bytes();
    indexes->dict_indexes.emplace(c, std::move(idx));
  }
  for (const std::string& name : options.text_columns) {
    const int c = table.ColumnIndex(name);
    AQE_CHECK(table.has_dictionary(c));
    TokenIndex idx = TokenIndex::Build(table.dictionary(c));
    indexes->approx_bytes += idx.approx_bytes();
    indexes->text_indexes.emplace(c, std::move(idx));
  }
  indexes->options = std::move(options);
  return indexes;
}

void AttachTableIndexes(Table* table, TableIndexOptions options) {
  table->set_indexes(BuildTableIndexes(*table, std::move(options)));
}

}  // namespace aqe
