// Monotonic arena used by the PBIO decoder.
//
// PBIO's "receiver makes right" decoding materializes a native-layout record
// (struct bytes + out-of-line arrays and strings) whose pieces must share one
// lifetime. An arena gives the decoder a single allocation domain that is
// released wholesale when the record is no longer needed, mirroring how the
// original PBIO library handed back a buffer the caller freed once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace sbq {

/// Bump allocator with chunked backing storage. Not thread-safe by design:
/// one arena belongs to one decode operation. Allocations are
/// uninitialised: chunks are not zero-filled, so every user writes what it
/// takes before reading it.
class Arena {
 public:
  explicit Arena(std::size_t chunk_size = 64 * 1024) : chunk_size_(chunk_size) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  /// Allocates `n` bytes aligned to `align` (power of two). Zero-size
  /// allocations return a unique, valid pointer.
  void* allocate(std::size_t n, std::size_t align = alignof(std::max_align_t)) {
    if (n == 0) n = 1;
    std::size_t offset = (used_ + align - 1) & ~(align - 1);
    if (current_ == nullptr || offset + n > current_size_) {
      grow(n + align);
      offset = (used_ + align - 1) & ~(align - 1);
    }
    used_ = offset + n;
    return current_ + offset;
  }

  /// Typed, uninitialised allocation of `count` trivially destructible
  /// objects. The arena never runs destructors.
  template <typename T>
  T* allocate_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Copies `n` bytes into the arena and returns the stable copy.
  void* copy(const void* src, std::size_t n, std::size_t align = 1) {
    void* dst = allocate(n, align);
    std::memcpy(dst, src, n);
    return dst;
  }

  /// Total bytes handed out (diagnostics only).
  [[nodiscard]] std::size_t bytes_used() const { return total_used_ + used_; }

  /// Releases every allocation at once.
  void reset() {
    chunks_.clear();
    current_ = nullptr;
    current_size_ = 0;
    used_ = 0;
    total_used_ = 0;
  }

 private:
  void grow(std::size_t at_least) {
    total_used_ += used_;
    std::size_t size = chunk_size_;
    if (size < at_least) size = at_least;
    chunks_.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(size));
    current_ = chunks_.back().get();
    current_size_ = size;
    used_ = 0;
  }

  std::size_t chunk_size_;
  std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
  std::uint8_t* current_ = nullptr;
  std::size_t current_size_ = 0;
  std::size_t used_ = 0;
  std::size_t total_used_ = 0;
};

}  // namespace sbq
