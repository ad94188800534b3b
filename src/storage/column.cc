#include "storage/column.h"

#include <cstring>
#include <limits>
#include <utility>

namespace aqe {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kI8: return "i8";
    case DataType::kI16: return "i16";
    case DataType::kI32: return "i32";
    case DataType::kI64: return "i64";
    case DataType::kF64: return "f64";
  }
  AQE_UNREACHABLE("bad DataType");
}

Column::Column(std::string name, DataType type)
    : name_(std::move(name)), type_(type) {}

void Column::Resize(uint64_t rows) {
  data_.resize(rows * DataTypeSize(type_));
  size_ = rows;
}

namespace {

constexpr const char* kTooWide = "value exceeds its column's declared width";

template <typename T>
bool Fits(int64_t v) {
  return v >= std::numeric_limits<T>::min() &&
         v <= std::numeric_limits<T>::max();
}

}  // namespace

void Column::AppendInt(int64_t v) {
  VisitIntColumn(std::as_const(*this), [&](const auto* values) {
    using T = std::remove_const_t<std::remove_pointer_t<decltype(values)>>;
    AQE_CHECK_MSG(Fits<T>(v), kTooWide);
    const auto narrow = static_cast<T>(v);
    const auto* bytes = reinterpret_cast<const uint8_t*>(&narrow);
    // Byte-wise push_back keeps vector's inline fast path; a range insert
    // is an out-of-line call per value, which the catalog load feels.
    for (size_t b = 0; b < sizeof(T); ++b) data_.push_back(bytes[b]);
  });
  ++size_;
}

void Column::SetInts(uint64_t first_row, const int64_t* values,
                     size_t count) {
  AQE_CHECK_MSG(first_row <= size_ && count <= size_ - first_row,
                "rows past the column's size");
  VisitIntColumn(*this, [&](auto* column) {
    using T = std::remove_pointer_t<decltype(column)>;
    // Every value is checked before the first store; the check has no
    // early exit, so the loop stays branch-free.
    bool fits = true;
    for (size_t i = 0; i < count; ++i) fits &= Fits<T>(values[i]);
    AQE_CHECK_MSG(fits, kTooWide);
    T* out = column + first_row;
    for (size_t i = 0; i < count; ++i) out[i] = static_cast<T>(values[i]);
  });
}

void Column::AppendF64(double v) {
  AQE_CHECK(type_ == DataType::kF64);
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  data_.insert(data_.end(), p, p + sizeof(v));
  ++size_;
}

int32_t Column::GetI32(uint64_t row) const {
  AQE_CHECK(type_ == DataType::kI32 && row < size_);
  int32_t v;
  std::memcpy(&v, data_.data() + row * 4, 4);
  return v;
}

int64_t Column::GetI64(uint64_t row) const {
  AQE_CHECK(type_ == DataType::kI64 && row < size_);
  int64_t v;
  std::memcpy(&v, data_.data() + row * 8, 8);
  return v;
}

double Column::GetF64(uint64_t row) const {
  AQE_CHECK(type_ == DataType::kF64 && row < size_);
  double v;
  std::memcpy(&v, data_.data() + row * 8, 8);
  return v;
}

int64_t Column::GetAsI64(uint64_t row) const {
  AQE_CHECK(row < size_);
  return VisitIntColumn(
      *this, [row](const auto* values) -> int64_t { return values[row]; });
}

}  // namespace aqe
