#include "index/table_index.h"

#include <algorithm>
#include <functional>

#include "common/fork_join.h"
#include "common/status.h"
#include "storage/table.h"

namespace aqe {

namespace {

/// One build of the flat list: it fills one index object its table's
/// TableIndexes already holds.
struct IndexTask {
  /// Values the build reads, times its passes over them: orders the list.
  uint64_t weight;
  std::function<void()> build;
};

/// A token index tokenizes a whole string per code: it counts as this many
/// values read per code (a TPC-H comment is 19 to 78 bytes long).
constexpr uint64_t kTokenWeightPerCode = 64;

}  // namespace

void AttachIndexes(std::vector<std::pair<Table*, TableIndexOptions>> tables) {
  // Every index object is made here, on the calling thread: each table's
  // TableIndexes with an empty entry per code index and token index, and
  // its zone-map arrays sized (ZoneMaps::Prepare), as the load sizes the
  // columns its helpers write. A task then fills the one object it names,
  // so the maps are never changed while the tasks run.
  std::vector<std::shared_ptr<TableIndexes>> indexes;
  std::vector<IndexTask> tasks;
  for (auto& [table, options] : tables) {
    auto& idx = indexes.emplace_back(std::make_shared<TableIndexes>());
    const Table& t = *table;
    const uint64_t rows = t.num_rows();
    idx->rows = rows;
    for (const std::string& name : options.text_columns) {
      const int c = t.ColumnIndex(name);
      AQE_CHECK(t.has_dictionary(c));
      const Dictionary& dict = t.dictionary(c);
      TokenIndex* out = &idx->text_indexes[c];
      tasks.push_back({static_cast<uint64_t>(dict.size()) * kTokenWeightPerCode,
                       [out, &dict] { *out = TokenIndex::Build(dict); }});
    }
    for (int c = 0; c < t.num_columns(); ++c) {
      if (!t.has_dictionary(c)) continue;
      DictCodeIndex* out = &idx->dict_indexes[c];
      tasks.push_back({2 * rows, [out, &t, c] {
                         *out = DictCodeIndex::Build(t.column(c),
                                                     t.dictionary(c).size());
                       }});
    }
    ZoneMaps* zones = &idx->zones;
    *zones = ZoneMaps::Prepare(t, options.zone_block_rows);
    for (size_t i = 0; i < zones->num_columns(); ++i) {
      tasks.push_back({rows, [zones, &t, i] { zones->FillColumn(t, i); }});
    }
    idx->options = std::move(options);
  }
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const IndexTask& a, const IndexTask& b) {
                     return a.weight > b.weight;
                   });
  ForkJoin(tasks.size(), [&tasks](size_t i) { tasks[i].build(); });
  for (size_t i = 0; i < tables.size(); ++i) {
    TableIndexes& idx = *indexes[i];
    idx.approx_bytes = idx.zones.approx_bytes();
    for (const auto& [c, index] : idx.dict_indexes) {
      idx.approx_bytes += index.approx_bytes();
    }
    for (const auto& [c, index] : idx.text_indexes) {
      idx.approx_bytes += index.approx_bytes();
    }
    tables[i].first->set_indexes(std::move(indexes[i]));
  }
}

void AttachTableIndexes(Table* table, TableIndexOptions options) {
  AttachIndexes({{table, std::move(options)}});
}

}  // namespace aqe
