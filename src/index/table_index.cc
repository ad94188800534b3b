#include "index/table_index.h"

#include <optional>
#include <vector>

#include "common/fork_join.h"
#include "common/status.h"
#include "storage/table.h"

namespace aqe {

std::shared_ptr<const TableIndexes> BuildTableIndexes(
    const Table& table, TableIndexOptions options) {
  std::vector<int> text_columns, dict_columns;
  for (const std::string& name : options.text_columns) {
    const int c = table.ColumnIndex(name);
    AQE_CHECK(table.has_dictionary(c));
    text_columns.push_back(c);
  }
  for (int c = 0; c < table.num_columns(); ++c) {
    if (table.has_dictionary(c)) dict_columns.push_back(c);
  }
  // The token indexes, the code indexes and the zone maps are independent
  // builds, run in parallel, the token indexes (the largest) first.
  auto indexes = std::make_shared<TableIndexes>();
  std::vector<std::optional<TokenIndex>> text(text_columns.size());
  std::vector<std::optional<DictCodeIndex>> dict(dict_columns.size());
  ForkJoin(text.size() + dict.size() + 1, [&](size_t i) {
    if (i < text.size()) {
      text[i] = TokenIndex::Build(table.dictionary(text_columns[i]));
      return;
    }
    i -= text.size();
    if (i < dict.size()) {
      const int c = dict_columns[i];
      dict[i] =
          DictCodeIndex::Build(table.column(c), table.dictionary(c).size());
      return;
    }
    indexes->zones = ZoneMaps::Build(table, options.zone_block_rows);
  });
  indexes->rows = table.num_rows();
  indexes->approx_bytes = indexes->zones.approx_bytes();
  for (size_t i = 0; i < dict.size(); ++i) {
    indexes->approx_bytes += dict[i]->approx_bytes();
    indexes->dict_indexes.emplace(dict_columns[i], std::move(*dict[i]));
  }
  for (size_t i = 0; i < text.size(); ++i) {
    indexes->approx_bytes += text[i]->approx_bytes();
    indexes->text_indexes.emplace(text_columns[i], std::move(*text[i]));
  }
  indexes->options = std::move(options);
  return indexes;
}

void AttachTableIndexes(Table* table, TableIndexOptions options) {
  table->set_indexes(BuildTableIndexes(*table, std::move(options)));
}

}  // namespace aqe
