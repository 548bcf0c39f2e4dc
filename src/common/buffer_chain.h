// BufferChain — the zero-copy wire pipeline's carrier type.
//
// A chain is an iovec-style list of byte segments that together form one
// logical message. Segments either *own* their storage (moved-in Bytes or
// strings, kept alive by the chain) or *borrow* it (views into memory the
// caller guarantees outlives the chain, optionally pinned by a shared
// "anchor"). Building a message as a chain lets every layer — PBIO encode,
// SOAP-bin enveloping, HTTP framing, the stream write — append or splice
// segments instead of concatenating buffers, so a payload block crosses the
// stack without ever being memcpy'd (docs/wire-format.md §6 documents the
// ownership rules per layer).
//
// The chain also keeps a `bytes_copied` ledger: every operation that *does*
// flatten bytes (coalesce(), append_copy(), ChainReader scratch reads)
// increments it, which is how EndpointStats observes copy elimination.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace sbq {

class BufferChain {
 public:
  /// Keep-alive handle for borrowed segments: the chain holds the anchor for
  /// its lifetime, so a view into e.g. a shared_ptr-owned Value stays valid.
  using Anchor = std::shared_ptr<const void>;

  BufferChain() = default;

  /// A chain of one borrowed segment over `view` (caller keeps it alive).
  static BufferChain borrowing(BytesView view) {
    BufferChain chain;
    chain.append_view(view);
    return chain;
  }

  /// Appends owned storage; the chain keeps it alive.
  void append(Bytes&& owned);
  void append(std::string&& owned);
  void append(ByteBuffer&& buffer) { append(buffer.take()); }

  /// Splices another chain's segments onto this one (O(segments), no byte
  /// copies). The donor is left empty.
  void append(BufferChain&& tail);

  /// Appends a borrowed view. Without an anchor the caller must keep the
  /// bytes alive for the chain's lifetime; with one, the chain pins it.
  void append_view(BytesView view, Anchor anchor = nullptr);

  /// Appends an owned copy of `view` (counted in bytes_copied()).
  void append_copy(BytesView view);

  /// Appends every segment of `other` without copying bytes: owned segments
  /// are shared (their storage is jointly kept alive), borrowed segments
  /// stay borrowed under the same lifetime rules as in `other`.
  void append_shared(const BufferChain& other);

  /// Chain sharing `other`'s segments from byte `offset` to the end
  /// (mid-segment offsets split the segment's view). Used to hand a decoded
  /// message's payload region downstream without materializing it.
  [[nodiscard]] BufferChain share_suffix(std::size_t offset) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return segments_.empty(); }
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] BytesView segment(std::size_t i) const { return segments_[i].view; }

  /// Copies the whole chain into `dst` (size() bytes; not counted — callers
  /// that flatten via coalesce() are the ones charged).
  void copy_to(std::uint8_t* dst) const;

  /// Escape hatch: flattens into one contiguous buffer. Counted in
  /// bytes_copied() — the point of the pipeline is to make this rare.
  [[nodiscard]] Bytes coalesce() const;

  /// Total bytes flattened through this chain (coalesce/append_copy).
  [[nodiscard]] std::uint64_t bytes_copied() const { return bytes_copied_; }

  void clear();

  // --- segment iteration (yields BytesView) -------------------------------

  class const_iterator {
   public:
    using value_type = BytesView;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    BytesView operator*() const;
    const_iterator& operator++();
    bool operator==(const const_iterator& other) const = default;

   private:
    friend class BufferChain;
    const_iterator(const BufferChain* chain, std::size_t index)
        : chain_(chain), index_(index) {}
    const BufferChain* chain_ = nullptr;
    std::size_t index_ = 0;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, segments_.size()}; }

 private:
  friend class ChainReader;

  struct Segment {
    BytesView view;
    Anchor keep_alive;  // owns or pins the bytes; null for plain borrows
  };

  std::vector<Segment> segments_;
  std::size_t size_ = 0;
  mutable std::uint64_t bytes_copied_ = 0;
};

/// Write cursor that assembles a BufferChain: small writes (scalars, length
/// prefixes, envelope fields) accumulate in a staging buffer; large blocks
/// are spliced in as their own segments via append_block(), flushing the
/// staging bytes first so wire order is preserved. The result is a chain of
/// a few segments — staging runs interleaved with borrowed payload blocks —
/// whose coalesced bytes are the message.
///
/// It is the only sink of the PBIO encoders, and exposes ByteBuffer's
/// append_* surface for the small writes.
class ChainWriter {
 public:
  /// Blocks >= `borrow_threshold` bytes become their own segments; smaller
  /// ones are cheaper to copy into staging than to scatter-gather.
  static constexpr std::size_t kDefaultBorrowThreshold = 512;

  explicit ChainWriter(BufferChain& chain,
                       std::size_t borrow_threshold = kDefaultBorrowThreshold)
      : chain_(chain), threshold_(borrow_threshold) {}
  ~ChainWriter() { flush(); }

  ChainWriter(const ChainWriter&) = delete;
  ChainWriter& operator=(const ChainWriter&) = delete;

  void append_u8(std::uint8_t v) { staging_.append_u8(v); }
  void append_u16(std::uint16_t v, ByteOrder order) { staging_.append_u16(v, order); }
  void append_u32(std::uint32_t v, ByteOrder order) { staging_.append_u32(v, order); }
  void append_u64(std::uint64_t v, ByteOrder order) { staging_.append_u64(v, order); }
  void append_f32(float v, ByteOrder order) { staging_.append_f32(v, order); }
  void append_f64(double v, ByteOrder order) { staging_.append_f64(v, order); }
  void append_raw(const void* p, std::size_t n) { staging_.append_raw(p, n); }
  void append(BytesView v) { staging_.append(v); }
  void append(std::string_view s) { staging_.append(s); }
  /// Staged bytes written in place; see ByteBuffer::extend.
  std::uint8_t* extend(std::size_t n) { return staging_.extend(n); }

  /// Appends a payload block: borrowed as its own segment when large enough,
  /// staged otherwise. The anchor (if any) pins the borrowed storage.
  void append_block(BytesView block, BufferChain::Anchor anchor = nullptr) {
    if (block.size() >= threshold_) {
      flush();
      chain_.append_view(block, std::move(anchor));
    } else {
      staging_.append(block);
    }
  }

  /// Bytes appended through this writer so far (staged + spliced).
  [[nodiscard]] std::size_t size() const { return chain_.size() + staging_.size(); }

  /// Pushes any staged bytes into the chain as an owned segment.
  void flush() {
    if (!staging_.empty()) chain_.append(staging_.take());
  }

 private:
  BufferChain& chain_;
  ByteBuffer staging_;
  std::size_t threshold_;
};

/// Bounds-checked read cursor over a BufferChain — the counterpart of
/// ByteReader for segmented messages. Scalar reads cross segment boundaries
/// transparently; read_view() is zero-copy whenever the requested range lies
/// inside one segment (which chain-built messages guarantee for payload
/// blocks) and otherwise coalesces just that range into reader-owned scratch
/// storage, counted in bytes_copied().
class ChainReader {
 public:
  explicit ChainReader(const BufferChain& chain) : chain_(chain) {
    skip_empty_segments();
  }

  [[nodiscard]] std::size_t remaining() const { return chain_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

  std::uint8_t read_u8() {
    std::uint8_t v;
    read_raw(&v, sizeof v);
    return v;
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

  /// Copies the next `n` bytes to `out`. Inline when they lie inside the
  /// current segment and leave some of it unread, which is every scalar of
  /// a payload held in one segment; other reads cross segment boundaries.
  void read_raw(void* out, std::size_t n) {
    if (seg_ < chain_.segments_.size() && chain_.segments_[seg_].view.size() - off_ > n) {
      std::copy_n(chain_.segments_[seg_].view.data() + off_, n,
                  static_cast<std::uint8_t*>(out));
      off_ += n;
      pos_ += n;
      return;
    }
    read_across(out, n);
  }

  /// Returns a view of the next `n` bytes and advances past them. The view
  /// stays valid for the reader's lifetime (scratch-backed when it spans
  /// segments) or the chain's (when it lies inside one segment).
  BytesView read_view(std::size_t n);

  std::string read_string(std::size_t n);

  void skip(std::size_t n);

  /// Bytes this reader had to flatten for cross-segment views.
  [[nodiscard]] std::uint64_t bytes_copied() const { return bytes_copied_; }

 private:
  void require(std::size_t n) const;
  void skip_empty_segments();
  void read_across(void* out, std::size_t n);

  const BufferChain& chain_;
  std::size_t seg_ = 0;  // current segment index
  std::size_t off_ = 0;  // offset within current segment
  std::size_t pos_ = 0;  // absolute position
  std::vector<Bytes> scratch_;  // backing for cross-segment read_view results
  std::uint64_t bytes_copied_ = 0;
};

}  // namespace sbq
