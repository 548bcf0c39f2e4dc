#include "pbio/array_words.h"

#include <algorithm>
#include <array>
#include <bit>

#include "common/error.h"

namespace sbq::pbio::detail {

namespace {

template <class Bits>
Bits byteswap_bits(Bits b) {
  if constexpr (sizeof(Bits) == 4) {
    return byteswap32(b);
  } else {
    return byteswap64(b);
  }
}

/// Runs `body` with a std::bool_constant telling whether words need a byte
/// swap, so each loop is compiled for one case.
template <class Body>
void for_order(ByteOrder order, Body body) {
  if (order == host_byte_order()) {
    body(std::false_type{});
  } else {
    body(std::true_type{});
  }
}

template <class Bits, class T, class Narrow>
void store_words(std::span<const T> elems, ByteOrder order, std::uint8_t* dst,
                 Narrow narrow) {
  for_order(order, [&](auto swap) {
    for (const T x : elems) {
      Bits b = narrow(x);
      if constexpr (decltype(swap)::value) b = byteswap_bits(b);
      const auto word = std::bit_cast<std::array<std::uint8_t, sizeof(Bits)>>(b);
      dst = std::copy_n(word.begin(), sizeof(Bits), dst);
    }
  });
}

/// An integer wire word is the low bits of the widened integer.
template <class T>
void store_integers(std::span<const T> elems, TypeKind kind, ByteOrder order,
                    std::uint8_t* dst) {
  if (scalar_size(kind) == 4) {
    store_words<std::uint32_t>(elems, order, dst,
                               [](T x) { return static_cast<std::uint32_t>(x); });
  } else {
    store_words<std::uint64_t>(elems, order, dst,
                               [](T x) { return static_cast<std::uint64_t>(x); });
  }
}

template <class Out, class Bits, class Widen>
Value load_words(BytesView block, ByteOrder order, Widen widen) {
  Out out(block.size() / sizeof(Bits));
  for_order(order, [&](auto swap) {
    const std::uint8_t* p = block.data();
    for (auto& o : out) {
      std::array<std::uint8_t, sizeof(Bits)> word{};
      std::copy_n(p, sizeof(Bits), word.begin());
      p += sizeof(Bits);
      auto b = std::bit_cast<Bits>(word);
      if constexpr (decltype(swap)::value) b = byteswap_bits(b);
      o = widen(b);
    }
  });
  return Value(std::move(out));
}

}  // namespace

void narrow_words(std::span<const std::int64_t> elems, TypeKind kind, ByteOrder order,
                  std::uint8_t* dst) {
  store_integers(elems, kind, order, dst);
}

void narrow_words(std::span<const std::uint64_t> elems, TypeKind kind, ByteOrder order,
                  std::uint8_t* dst) {
  store_integers(elems, kind, order, dst);
}

void narrow_words(std::span<const double> elems, TypeKind kind, ByteOrder order,
                  std::uint8_t* dst) {
  if (kind == TypeKind::kFloat32) {
    store_words<std::uint32_t>(elems, order, dst, [](double x) {
      return std::bit_cast<std::uint32_t>(static_cast<float>(x));
    });
  } else {
    store_words<std::uint64_t>(elems, order, dst,
                               [](double x) { return std::bit_cast<std::uint64_t>(x); });
  }
}

Value widen_words(BytesView block, TypeKind kind, ByteOrder order) {
  switch (kind) {
    case TypeKind::kInt32:
      return load_words<Value::I64Array, std::uint32_t>(block, order, [](std::uint32_t b) {
        return std::int64_t{static_cast<std::int32_t>(b)};
      });
    case TypeKind::kInt64:
      return load_words<Value::I64Array, std::uint64_t>(
          block, order, [](std::uint64_t b) { return static_cast<std::int64_t>(b); });
    case TypeKind::kUInt32:
      return load_words<Value::U64Array, std::uint32_t>(
          block, order, [](std::uint32_t b) { return std::uint64_t{b}; });
    case TypeKind::kUInt64:
      return load_words<Value::U64Array, std::uint64_t>(block, order,
                                                        [](std::uint64_t b) { return b; });
    case TypeKind::kFloat32:
      return load_words<Value::F64Array, std::uint32_t>(block, order, [](std::uint32_t b) {
        return double{std::bit_cast<float>(b)};
      });
    case TypeKind::kFloat64:
      return load_words<Value::F64Array, std::uint64_t>(
          block, order, [](std::uint64_t b) { return std::bit_cast<double>(b); });
    default:
      throw CodecError("widen_words: not a numeric kind");
  }
}

}  // namespace sbq::pbio::detail
