#ifndef AQE_STORAGE_COLUMN_H_
#define AQE_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace aqe {

/// Column value types. Strings are dictionary-encoded as I32 codes; dates are
/// I32 days since 1970-01-01; decimals are integers scaled by 100 (see
/// common/fixed_point.h), stored in the narrowest type their range fits —
/// I32 for every TPC-H key and decimal. Scans widen every integer to i64.
enum class DataType : uint8_t {
  kI32,
  kI64,
  kF64,
};

/// Size in bytes of one value of the given type.
inline int DataTypeSize(DataType type) {
  switch (type) {
    case DataType::kI32: return 4;
    case DataType::kI64: return 8;
    case DataType::kF64: return 8;
  }
  AQE_UNREACHABLE("bad DataType");
}

/// Human-readable type name.
const char* DataTypeName(DataType type);

/// A typed, contiguous, in-memory column. The raw data pointer is exposed so
/// generated code (JIT and bytecode alike) can scan it directly.
class Column {
 public:
  Column(std::string name, DataType type);

  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;
  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  const std::string& name() const { return name_; }
  DataType type() const { return type_; }
  uint64_t size() const { return size_; }

  /// Raw pointer to the first value. Stable until the next Append/Reserve.
  const void* data() const { return data_.data(); }
  void* mutable_data() { return data_.data(); }

  void Reserve(uint64_t rows);

  void AppendI32(int32_t v);
  void AppendI64(int64_t v);
  void AppendF64(double v);

  int32_t GetI32(uint64_t row) const;
  int64_t GetI64(uint64_t row) const;
  double GetF64(uint64_t row) const;

  /// Returns the value widened to int64 (F64 columns CHECK-fail).
  int64_t GetAsI64(uint64_t row) const;

 private:
  std::string name_;
  DataType type_;
  uint64_t size_ = 0;
  std::vector<uint8_t> data_;  // raw bytes, element i at i * DataTypeSize
};

}  // namespace aqe

#endif  // AQE_STORAGE_COLUMN_H_
