#ifndef AQE_STORAGE_TABLE_H_
#define AQE_STORAGE_TABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/column.h"
#include "storage/dictionary.h"

namespace aqe {

struct TableIndexes;  // src/index/table_index.h

/// An in-memory columnar table. Columns are appended at schema-definition
/// time; rows are appended column-wise by the data generator. A string
/// column holds codes of its Dictionary, which is always sorted, so code
/// order is string order and a loaded column is never rewritten.
class Table {
 public:
  explicit Table(std::string name);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }

  /// Adds a column; returns its index. If `dictionary` is true the column is
  /// a dictionary-encoded string column (type must be kI8, kI16 or kI32,
  /// and the dictionary's codes must fit it: the checked append enforces
  /// that on load).
  int AddColumn(std::string name, DataType type, bool dictionary = false);

  int num_columns() const { return static_cast<int>(columns_.size()); }
  uint64_t num_rows() const;

  /// Column index by name; CHECK-fails if absent.
  int ColumnIndex(const std::string& name) const;

  Column& column(int index);
  const Column& column(int index) const;
  Column& column(const std::string& name) { return column(ColumnIndex(name)); }
  const Column& column(const std::string& name) const {
    return column(ColumnIndex(name));
  }

  /// Dictionary for a string column (CHECK-fails for non-dictionary columns).
  Dictionary& dictionary(int index);
  const Dictionary& dictionary(int index) const;
  bool has_dictionary(int index) const;

  /// Secondary index structures (src/index/: zone maps, dictionary-code
  /// CSR indexes, inverted token indexes), built once after bulk load and
  /// immutable thereafter. Null until attached; scan pruning is simply
  /// skipped for tables without indexes.
  void set_indexes(std::shared_ptr<const TableIndexes> indexes) {
    indexes_ = std::move(indexes);
  }
  const TableIndexes* indexes() const { return indexes_.get(); }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Column>> columns_;
  std::vector<std::unique_ptr<Dictionary>> dictionaries_;  // nullptr if none
  std::unordered_map<std::string, int> column_index_;
  std::shared_ptr<const TableIndexes> indexes_;
};

/// A named collection of tables (the "database").
class Catalog {
 public:
  /// Creates (and owns) a table. Name must be unique.
  Table* CreateTable(const std::string& name);

  /// Lookup; CHECK-fails if absent.
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const;

  /// Calls fn(table) for every table, in no particular order.
  void ForEachTable(const std::function<void(const Table&)>& fn) const;

 private:
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace aqe

#endif  // AQE_STORAGE_TABLE_H_
