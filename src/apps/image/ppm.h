// RGB images and the PPM (P6) container.
//
// The paper's imaging application serves "raw sensor data represented in
// ppm format" — 640×480, 3 bytes per pixel, ≈0.9 MB — because telescope
// pipelines must not lose information to lossy compression. This module is
// that substrate: an owning RGB8 image plus binary PPM read/write.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"

namespace sbq::image {

struct Rgb {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;
};

/// Largest width or height accepted from untrusted input (PPM headers,
/// decoded image Values); checked before any raster is allocated.
inline constexpr int kMaxDimension = 1 << 20;

/// Owning RGB8 raster, row-major.
class Image {
 public:
  Image() = default;
  Image(int width, int height);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] std::size_t pixel_count() const {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }
  [[nodiscard]] std::size_t byte_size() const { return pixel_count() * 3; }

  [[nodiscard]] Rgb at(int x, int y) const;
  void set(int x, int y, Rgb value);

  /// Raw interleaved RGB bytes (size = byte_size()).
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return data_; }
  [[nodiscard]] std::vector<std::uint8_t>& bytes() { return data_; }

  bool operator==(const Image& other) const = default;

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> data_;
};

/// Serializes as binary PPM (P6, maxval 255).
Bytes write_ppm(const Image& image);

/// Parses binary PPM (P6); throws ParseError on malformed input. Comments
/// and arbitrary header whitespace are handled.
Image read_ppm(BytesView ppm);

}  // namespace sbq::image
