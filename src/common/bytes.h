// Byte-buffer primitives used by every wire codec in the library.
//
// ByteBuffer is an append-only output buffer with explicit little/big-endian
// primitives; ByteReader is a bounds-checked cursor over immutable bytes.
// Both exist so that codecs (PBIO, XDR, HTTP, LZSS) never touch raw pointer
// arithmetic and every out-of-range read surfaces as a CodecError instead of
// undefined behavior.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace sbq {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Host byte order of this process; PBIO tags payloads with the sender's order.
enum class ByteOrder : std::uint8_t { kLittle = 0, kBig = 1 };

/// Byte order of the machine this code is running on.
constexpr ByteOrder host_byte_order() {
  return std::endian::native == std::endian::little ? ByteOrder::kLittle
                                                    : ByteOrder::kBig;
}

/// Reverses the byte order of an unsigned integer value.
constexpr std::uint16_t byteswap16(std::uint16_t v) {
  return static_cast<std::uint16_t>((v >> 8) | (v << 8));
}
constexpr std::uint32_t byteswap32(std::uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0x0000FF00u) | ((v << 8) & 0x00FF0000u) | (v << 24);
}
constexpr std::uint64_t byteswap64(std::uint64_t v) {
  return (static_cast<std::uint64_t>(byteswap32(static_cast<std::uint32_t>(v))) << 32) |
         byteswap32(static_cast<std::uint32_t>(v >> 32));
}

/// Growable output buffer with endian-aware append primitives.
class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::size_t reserve_bytes) { data_.reserve(reserve_bytes); }

  void clear() { data_.clear(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] const std::uint8_t* data() const { return data_.data(); }
  [[nodiscard]] BytesView view() const { return BytesView{data_}; }
  [[nodiscard]] Bytes take() { return std::move(data_); }
  [[nodiscard]] const Bytes& bytes() const { return data_; }

  void append_u8(std::uint8_t v) { data_.push_back(v); }
  void append_raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    data_.insert(data_.end(), b, b + n);
  }
  void append(BytesView v) { append_raw(v.data(), v.size()); }
  void append(std::string_view s) { append_raw(s.data(), s.size()); }

  void append_u16(std::uint16_t v, ByteOrder order) {
    if (order != host_byte_order()) v = byteswap16(v);
    append_raw(&v, sizeof v);
  }
  void append_u32(std::uint32_t v, ByteOrder order) {
    if (order != host_byte_order()) v = byteswap32(v);
    append_raw(&v, sizeof v);
  }
  void append_u64(std::uint64_t v, ByteOrder order) {
    if (order != host_byte_order()) v = byteswap64(v);
    append_raw(&v, sizeof v);
  }
  void append_f32(float v, ByteOrder order) {
    append_u32(std::bit_cast<std::uint32_t>(v), order);
  }
  void append_f64(double v, ByteOrder order) {
    append_u64(std::bit_cast<std::uint64_t>(v), order);
  }

  /// Grows the buffer by `n` bytes and returns where they start, so an
  /// encoder can write a block in place.
  std::uint8_t* extend(std::size_t n) {
    data_.resize(data_.size() + n);
    return data_.data() + data_.size() - n;
  }

 private:
  Bytes data_;
};

/// Bounds-checked forward cursor over an immutable byte range.
///
/// The reader does not own the bytes; callers must keep the underlying
/// storage alive for the reader's lifetime.
class ByteReader {
 public:
  explicit ByteReader(BytesView view) : view_(view) {}
  ByteReader(const void* p, std::size_t n)
      : view_(static_cast<const std::uint8_t*>(p), n) {}

  [[nodiscard]] std::size_t remaining() const { return view_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == view_.size(); }

  std::uint8_t read_u8() {
    require(1);
    return view_[pos_++];
  }
  std::uint16_t read_u16(ByteOrder order) {
    std::uint16_t v;
    read_raw(&v, sizeof v);
    return order == host_byte_order() ? v : byteswap16(v);
  }
  std::uint32_t read_u32(ByteOrder order) {
    std::uint32_t v;
    read_raw(&v, sizeof v);
    return order == host_byte_order() ? v : byteswap32(v);
  }
  std::uint64_t read_u64(ByteOrder order) {
    std::uint64_t v;
    read_raw(&v, sizeof v);
    return order == host_byte_order() ? v : byteswap64(v);
  }
  float read_f32(ByteOrder order) { return std::bit_cast<float>(read_u32(order)); }
  double read_f64(ByteOrder order) { return std::bit_cast<double>(read_u64(order)); }

  void read_raw(void* out, std::size_t n) {
    require(n);
    std::memcpy(out, view_.data() + pos_, n);
    pos_ += n;
  }

  /// Returns a view of the next `n` bytes and advances past them.
  BytesView read_view(std::size_t n) {
    require(n);
    BytesView v = view_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

  std::string read_string(std::size_t n) {
    BytesView v = read_view(n);
    return std::string(reinterpret_cast<const char*>(v.data()), v.size());
  }

  void skip(std::size_t n) { require(n), pos_ += n; }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) {
      throw CodecError("byte reader underrun: need " + std::to_string(n) +
                       " bytes, have " + std::to_string(remaining()));
    }
  }

  BytesView view_;
  std::size_t pos_ = 0;
};

/// Views a string's bytes without copying. This (and as_chars below) is the
/// canonical char↔byte bridge: sbqlint's cast-confinement rule keeps
/// reinterpret_cast out of every file except this substrate and the wire
/// codecs, so "bytes reinterpreted as text" is greppable in one place.
inline BytesView as_bytes(std::string_view s) {
  return BytesView{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Views bytes as characters without copying (inverse of as_bytes).
inline std::string_view as_chars(BytesView v) {
  return std::string_view{reinterpret_cast<const char*>(v.data()), v.size()};
}

/// Converts a string to its byte representation (no copy of encoding logic).
Bytes to_bytes(std::string_view s);

/// Converts bytes to a std::string (bytes are taken verbatim).
std::string to_string(BytesView v);

}  // namespace sbq
