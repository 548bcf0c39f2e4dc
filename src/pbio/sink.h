// Internal sink abstraction for the PBIO encoders. Not part of the public
// API.
//
// Each encoder — the native-record walker (encode.cpp) and the Value walker
// (value_codec.cpp) — is written once as a template over a Sink with
// ByteBuffer's append_* surface (plus extend(), which the Value walker uses
// to narrow contiguous arrays in place); three sinks instantiate it:
//   * ByteBuffer    — one flat buffer (encode_message, encode_value_message,
//                     the Fig. 4/5 marshal paths),
//   * ChainWriter   — the zero-copy path: bulk blocks become borrowed chain
//                     segments via sink_block(),
//   * CountingSink  — a size-only dry run and the only size walker
//                     (wire_size, value_wire_size; a contiguous array is one
//                     append_raw, so O(1)); it lets the chain path
//                     emit the header's payload length up front instead of
//                     patching across segments.
// All three produce/account byte-identical wire images; tests assert it.
#pragma once

#include "common/buffer_chain.h"
#include "common/bytes.h"

namespace sbq::pbio::detail {

/// Sink that measures the encoded size without writing any bytes.
class CountingSink {
 public:
  void append_u8(std::uint8_t) { size_ += 1; }
  void append_u16(std::uint16_t, ByteOrder) { size_ += 2; }
  void append_u32(std::uint32_t, ByteOrder) { size_ += 4; }
  void append_u64(std::uint64_t, ByteOrder) { size_ += 8; }
  void append_f32(float, ByteOrder) { size_ += 4; }
  void append_f64(double, ByteOrder) { size_ += 8; }
  void append_raw(const void*, std::size_t n) { size_ += n; }
  void append(BytesView v) { size_ += v.size(); }
  void append(std::string_view s) { size_ += s.size(); }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Bulk payload block: a borrowed segment on the chain path, a plain append
/// elsewhere. The anchor pins borrowed storage (ignored by flat sinks).
inline void sink_block(ByteBuffer& out, BytesView block,
                       const BufferChain::Anchor&) {
  out.append(block);
}
inline void sink_block(ChainWriter& out, BytesView block,
                       const BufferChain::Anchor& anchor) {
  out.append_block(block, anchor);
}
inline void sink_block(CountingSink& out, BytesView block,
                       const BufferChain::Anchor&) {
  out.append(block);
}

}  // namespace sbq::pbio::detail
