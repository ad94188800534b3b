#ifndef AQE_STORAGE_COLUMN_H_
#define AQE_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace aqe {

/// Column value types. Strings are dictionary-encoded as integer codes;
/// dates are days since 1970-01-01; decimals are integers scaled by 100 (see
/// common/fixed_point.h). Every integer column is stored at the narrowest
/// signed width its fixed domain allows — I8/I16 for TPC-H dates, small
/// decimals and fixed-vocabulary dictionaries, I32 for keys and decimals
/// that grow with the scale factor — and every scan sign-extends it to i64
/// inside its load, so plans, slots and expressions never see the width.
enum class DataType : uint8_t {
  kI8,
  kI16,
  kI32,
  kI64,
  kF64,
};

/// Size in bytes of one value of the given type.
inline int DataTypeSize(DataType type) {
  switch (type) {
    case DataType::kI8: return 1;
    case DataType::kI16: return 2;
    case DataType::kI32: return 4;
    case DataType::kI64: return 8;
    case DataType::kF64: return 8;
  }
  AQE_UNREACHABLE("bad DataType");
}

/// Human-readable type name.
const char* DataTypeName(DataType type);

/// std::allocator, except that it default-initializes: resizing a vector
/// of bytes leaves the new bytes to the writers that fill them.
template <typename T>
class DefaultInitAllocator {
 public:
  using value_type = T;

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  T* allocate(size_t n) { return std::allocator<T>().allocate(n); }
  void deallocate(T* p, size_t n) noexcept {
    std::allocator<T>().deallocate(p, n);
  }
  /// Construction with arguments falls back to std::allocator_traits'
  /// placement new.
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }

  template <typename U>
  bool operator==(const DefaultInitAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const DefaultInitAllocator<U>&) const noexcept {
    return false;
  }
};

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

  /// Raw pointer to the first value. Stable until the next Append or
  /// Resize.
  const void* data() const { return data_.data(); }
  void* mutable_data() { return data_.data(); }

  /// Sizes the column to `rows` values so that writers can fill disjoint
  /// row ranges with SetInts concurrently. New rows hold no defined value
  /// until written, and are not touched here: their pages are first
  /// touched by their writers.
  void Resize(uint64_t rows);

  /// Appends an integer to an integer column of any width. CHECK-fails if
  /// `v` does not fit the declared width: a value is never truncated.
  void AppendInt(int64_t v);
  /// Overwrites rows [first_row, first_row + count) of an integer column
  /// with values[0, count). CHECK-fails before it stores anything if a row
  /// reaches past size() or a value does not fit the declared width, so
  /// no value is ever truncated; then it stores through the typed pointer,
  /// with one width dispatch for the whole batch.
  void SetInts(uint64_t first_row, const int64_t* values, size_t count);
  /// SetInts of one value.
  void SetInt(uint64_t row, int64_t v) { SetInts(row, &v, 1); }
  void AppendF64(double v);

  int32_t GetI32(uint64_t row) const;
  int64_t GetI64(uint64_t row) const;
  double GetF64(uint64_t row) const;

  /// Returns the value of an integer column of any width, widened to int64
  /// (F64 columns CHECK-fail).
  int64_t GetAsI64(uint64_t row) const;

 private:
  std::string name_;
  DataType type_;
  uint64_t size_ = 0;
  // Raw bytes, element i at i * DataTypeSize.
  std::vector<uint8_t, DefaultInitAllocator<uint8_t>> data_;
};

/// The width dispatcher: calls `fn` with the integer column's data as a
/// typed pointer — int8_t*, int16_t*, int32_t* or int64_t*, const unless
/// the column is mutable — and returns its result. Every reader that needs
/// the stored values (rather than a widened copy) goes through here, so a
/// new width is one case. F64 columns CHECK-fail.
template <typename ColumnT, typename Fn>
decltype(auto) VisitIntColumn(ColumnT& column, Fn&& fn) {
  static_assert(std::is_same_v<std::remove_const_t<ColumnT>, Column>);
  auto typed = [&column](auto tag) {
    using T = decltype(tag);
    if constexpr (std::is_const_v<ColumnT>) {
      return static_cast<const T*>(column.data());
    } else {
      return static_cast<T*>(column.mutable_data());
    }
  };
  switch (column.type()) {
    case DataType::kI8: return fn(typed(int8_t{}));
    case DataType::kI16: return fn(typed(int16_t{}));
    case DataType::kI32: return fn(typed(int32_t{}));
    case DataType::kI64: return fn(typed(int64_t{}));
    case DataType::kF64: break;
  }
  AQE_UNREACHABLE("integer column expected");
}

}  // namespace aqe

#endif  // AQE_STORAGE_COLUMN_H_
