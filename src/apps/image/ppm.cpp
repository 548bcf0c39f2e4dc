#include "apps/image/ppm.h"

#include "common/error.h"

namespace sbq::image {

Image::Image(int width, int height) : width_(width), height_(height) {
  if (width <= 0 || height <= 0) throw ParseError("image dimensions must be positive");
  data_.resize(byte_size(), 0);
}

Rgb Image::at(int x, int y) const {
  if (x < 0 || x >= width_ || y < 0 || y >= height_) {
    throw ParseError("pixel out of range");
  }
  const std::size_t i = (static_cast<std::size_t>(y) * width_ + x) * 3;
  return Rgb{data_[i], data_[i + 1], data_[i + 2]};
}

void Image::set(int x, int y, Rgb value) {
  if (x < 0 || x >= width_ || y < 0 || y >= height_) {
    throw ParseError("pixel out of range");
  }
  const std::size_t i = (static_cast<std::size_t>(y) * width_ + x) * 3;
  data_[i] = value.r;
  data_[i + 1] = value.g;
  data_[i + 2] = value.b;
}

Bytes write_ppm(const Image& image) {
  const std::string header = "P6\n" + std::to_string(image.width()) + " " +
                             std::to_string(image.height()) + "\n255\n";
  Bytes out = to_bytes(header);
  out.insert(out.end(), image.bytes().begin(), image.bytes().end());
  return out;
}

namespace {

/// Reads the next header token, skipping whitespace and '#' comments.
std::string next_token(BytesView data, std::size_t& pos) {
  auto is_ws = [](std::uint8_t c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  for (;;) {
    while (pos < data.size() && is_ws(data[pos])) ++pos;
    if (pos < data.size() && data[pos] == '#') {
      while (pos < data.size() && data[pos] != '\n') ++pos;
      continue;
    }
    break;
  }
  std::string token;
  while (pos < data.size() && !is_ws(data[pos])) {
    token += static_cast<char>(data[pos++]);
  }
  if (token.empty()) throw ParseError("truncated PPM header");
  return token;
}

int parse_dim(const std::string& token) {
  try {
    const int v = std::stoi(token);
    if (v <= 0 || v > kMaxDimension) throw ParseError("PPM dimension out of range");
    return v;
  } catch (const std::exception&) {
    throw ParseError("bad PPM header token: '" + token + "'");
  }
}

}  // namespace

Image read_ppm(BytesView ppm) {
  std::size_t pos = 0;
  if (next_token(ppm, pos) != "P6") throw ParseError("not a P6 PPM");
  const int width = parse_dim(next_token(ppm, pos));
  const int height = parse_dim(next_token(ppm, pos));
  const int maxval = parse_dim(next_token(ppm, pos));
  if (maxval != 255) throw ParseError("only maxval 255 PPM is supported");
  // Exactly one whitespace byte separates header and raster.
  if (pos >= ppm.size()) throw ParseError("truncated PPM");
  ++pos;

  // The raster must be present before it is allocated: the header alone can
  // claim terabytes.
  const std::size_t raster =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(height) * 3;
  if (ppm.size() - pos < raster) throw ParseError("PPM raster truncated");
  Image image(width, height);
  std::copy(ppm.begin() + static_cast<long>(pos),
            ppm.begin() + static_cast<long>(pos + image.byte_size()),
            image.bytes().begin());
  return image;
}

}  // namespace sbq::image
