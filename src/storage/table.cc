#include "storage/table.h"

namespace aqe {

Table::Table(std::string name) : name_(std::move(name)) {}

int Table::AddColumn(std::string name, DataType type, bool dictionary) {
  AQE_CHECK_MSG(column_index_.find(name) == column_index_.end(),
                "duplicate column name");
  if (dictionary) {
    AQE_CHECK_MSG(type == DataType::kI8 || type == DataType::kI16 ||
                      type == DataType::kI32,
                  "dictionary codes need an i8, i16 or i32 column");
  }
  int index = static_cast<int>(columns_.size());
  column_index_.emplace(name, index);
  columns_.push_back(std::make_unique<Column>(std::move(name), type));
  dictionaries_.push_back(dictionary ? std::make_unique<Dictionary>()
                                     : nullptr);
  return index;
}

uint64_t Table::num_rows() const {
  return columns_.empty() ? 0 : columns_[0]->size();
}

int Table::ColumnIndex(const std::string& name) const {
  auto it = column_index_.find(name);
  AQE_CHECK_MSG(it != column_index_.end(), name.c_str());
  return it->second;
}

Column& Table::column(int index) {
  AQE_CHECK(index >= 0 && index < num_columns());
  return *columns_[static_cast<size_t>(index)];
}

const Column& Table::column(int index) const {
  AQE_CHECK(index >= 0 && index < num_columns());
  return *columns_[static_cast<size_t>(index)];
}

Dictionary& Table::dictionary(int index) {
  AQE_CHECK(has_dictionary(index));
  return *dictionaries_[static_cast<size_t>(index)];
}

const Dictionary& Table::dictionary(int index) const {
  AQE_CHECK(has_dictionary(index));
  return *dictionaries_[static_cast<size_t>(index)];
}

bool Table::has_dictionary(int index) const {
  AQE_CHECK(index >= 0 && index < num_columns());
  return dictionaries_[static_cast<size_t>(index)] != nullptr;
}

Table* Catalog::CreateTable(const std::string& name) {
  AQE_CHECK_MSG(!HasTable(name), "duplicate table");
  auto table = std::make_unique<Table>(name);
  Table* raw = table.get();
  tables_.emplace(name, std::move(table));
  return raw;
}

Table* Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  AQE_CHECK_MSG(it != tables_.end(), name.c_str());
  return it->second.get();
}

const Table* Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  AQE_CHECK_MSG(it != tables_.end(), name.c_str());
  return it->second.get();
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.find(name) != tables_.end();
}

void Catalog::ForEachTable(
    const std::function<void(const Table&)>& fn) const {
  for (const auto& entry : tables_) fn(*entry.second);
}

}  // namespace aqe
