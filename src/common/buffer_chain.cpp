#include "common/buffer_chain.h"

#include <cstring>

#include "common/error.h"

namespace sbq {

namespace {

/// Wraps moved-in storage in a shared keep-alive and returns a view of it.
/// Storage sits behind the shared_ptr, so Segment moves never invalidate
/// the view (std::string's SSO would otherwise do exactly that).
template <typename Storage>
std::pair<BytesView, BufferChain::Anchor> own(Storage&& storage) {
  auto holder = std::make_shared<Storage>(std::move(storage));
  BytesView view{reinterpret_cast<const std::uint8_t*>(holder->data()),
                 holder->size()};
  return {view, BufferChain::Anchor(std::move(holder))};
}

}  // namespace

void BufferChain::append(Bytes&& owned) {
  if (owned.empty()) return;
  auto [view, anchor] = own(std::move(owned));
  size_ += view.size();
  segments_.push_back(Segment{view, std::move(anchor)});
}

void BufferChain::append(std::string&& owned) {
  if (owned.empty()) return;
  auto [view, anchor] = own(std::move(owned));
  size_ += view.size();
  segments_.push_back(Segment{view, std::move(anchor)});
}

void BufferChain::append(BufferChain&& tail) {
  if (tail.segments_.empty()) {
    bytes_copied_ += tail.bytes_copied_;
    tail.bytes_copied_ = 0;
    return;
  }
  segments_.reserve(segments_.size() + tail.segments_.size());
  for (Segment& seg : tail.segments_) {
    size_ += seg.view.size();
    segments_.push_back(std::move(seg));
  }
  bytes_copied_ += tail.bytes_copied_;
  tail.clear();
}

void BufferChain::append_view(BytesView view, Anchor anchor) {
  if (view.empty()) return;
  size_ += view.size();
  segments_.push_back(Segment{view, std::move(anchor)});
}

void BufferChain::append_copy(BytesView view) {
  if (view.empty()) return;
  bytes_copied_ += view.size();
  append(Bytes(view.begin(), view.end()));
}

void BufferChain::append_shared(const BufferChain& other) {
  segments_.reserve(segments_.size() + other.segments_.size());
  for (const Segment& seg : other.segments_) {
    size_ += seg.view.size();
    segments_.push_back(seg);
  }
}

BufferChain BufferChain::share_suffix(std::size_t offset) const {
  if (offset > size_) throw CodecError("BufferChain::share_suffix out of range");
  BufferChain out;
  std::size_t skipped = 0;
  for (const Segment& seg : segments_) {
    if (skipped + seg.view.size() <= offset) {
      skipped += seg.view.size();
      continue;
    }
    const std::size_t drop = offset > skipped ? offset - skipped : 0;
    out.append_view(seg.view.subspan(drop), seg.keep_alive);
    skipped += seg.view.size();
  }
  return out;
}

void BufferChain::copy_to(std::uint8_t* dst) const {
  for (const Segment& seg : segments_) {
    std::memcpy(dst, seg.view.data(), seg.view.size());
    dst += seg.view.size();
  }
}

Bytes BufferChain::coalesce() const {
  Bytes out(size_);
  copy_to(out.data());
  bytes_copied_ += size_;
  return out;
}

void BufferChain::clear() {
  segments_.clear();
  size_ = 0;
  bytes_copied_ = 0;
}

BytesView BufferChain::const_iterator::operator*() const {
  return chain_->segments_[index_].view;
}

BufferChain::const_iterator& BufferChain::const_iterator::operator++() {
  ++index_;
  return *this;
}

// ---------------------------------------------------------------- ChainReader

void ChainReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw CodecError("chain reader underrun: need " + std::to_string(n) +
                     " bytes, have " + std::to_string(remaining()));
  }
}

void ChainReader::skip_empty_segments() {
  while (seg_ < chain_.segments_.size() &&
         off_ == chain_.segments_[seg_].view.size()) {
    ++seg_;
    off_ = 0;
  }
}

void ChainReader::read_across(void* out, std::size_t n) {
  require(n);
  auto* dst = static_cast<std::uint8_t*>(out);
  while (n > 0) {
    const BytesView view = chain_.segments_[seg_].view;
    const std::size_t take = std::min(n, view.size() - off_);
    std::memcpy(dst, view.data() + off_, take);
    dst += take;
    off_ += take;
    pos_ += take;
    n -= take;
    skip_empty_segments();
  }
}

BytesView ChainReader::read_view(std::size_t n) {
  require(n);
  if (n == 0) return {};
  const BytesView view = chain_.segments_[seg_].view;
  if (view.size() - off_ >= n) {
    const BytesView result = view.subspan(off_, n);
    off_ += n;
    pos_ += n;
    skip_empty_segments();
    return result;
  }
  // Spans segments: flatten just this range into reader-owned scratch.
  Bytes& scratch = scratch_.emplace_back(n);
  read_raw(scratch.data(), n);
  bytes_copied_ += n;
  return BytesView{scratch};
}

std::string ChainReader::read_string(std::size_t n) {
  require(n);
  std::string out(n, '\0');
  read_raw(out.data(), n);
  return out;
}

void ChainReader::skip(std::size_t n) {
  require(n);
  while (n > 0) {
    const BytesView view = chain_.segments_[seg_].view;
    const std::size_t take = std::min(n, view.size() - off_);
    off_ += take;
    pos_ += take;
    n -= take;
    skip_empty_segments();
  }
}

}  // namespace sbq
