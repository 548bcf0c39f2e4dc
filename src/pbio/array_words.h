// Bulk conversion between contiguous Value arrays and PBIO wire words.
// Internal to the Value encoder (value_codec.cpp) and the decode plan's Value
// sink (plan.cpp); not part of the public API.
//
// A contiguous array (Value::I64Array, U64Array, F64Array) crosses the wire
// in one loop per array: decode widens a block of 4- or 8-byte words into
// the array's class, encode narrows the array into words, byte-swapping
// when the wire order is not the host's. The kernels live in their own
// translation unit so the per-element record walker keeps its inlining.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>

#include "common/bytes.h"
#include "pbio/format.h"
#include "pbio/value.h"

namespace sbq::pbio::detail {

/// True when contiguous elements of class T encode as `kind` in one loop:
/// std::int64_t for the signed kinds, std::uint64_t for the unsigned ones,
/// double for the float kinds. Other pairings go element by element.
template <class T>
bool narrows_to(TypeKind kind) {
  if constexpr (std::is_same_v<T, std::int64_t>) {
    return kind == TypeKind::kInt32 || kind == TypeKind::kInt64;
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return kind == TypeKind::kUInt32 || kind == TypeKind::kUInt64;
  } else {
    return kind == TypeKind::kFloat32 || kind == TypeKind::kFloat64;
  }
}

/// Writes `elems` to `dst` as `kind` words in `order`:
/// elems.size() × scalar_size(kind) bytes. Requires narrows_to<T>(kind).
void narrow_words(std::span<const std::int64_t> elems, TypeKind kind, ByteOrder order,
                  std::uint8_t* dst);
void narrow_words(std::span<const std::uint64_t> elems, TypeKind kind, ByteOrder order,
                  std::uint8_t* dst);
void narrow_words(std::span<const double> elems, TypeKind kind, ByteOrder order,
                  std::uint8_t* dst);

/// A contiguous array Value of the words of numeric `kind` in `block`,
/// sent in `order`, widened to the kind's class.
Value widen_words(BytesView block, TypeKind kind, ByteOrder order);

}  // namespace sbq::pbio::detail
