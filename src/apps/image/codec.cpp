#include "apps/image/codec.h"

#include <algorithm>

#include "apps/image/ops.h"
#include "common/error.h"

namespace sbq::image {

using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::TypeKind;
using pbio::Value;

namespace {
FormatPtr make_image_format(const std::string& name) {
  return FormatBuilder(name)
      .add_scalar("width", TypeKind::kInt32)
      .add_scalar("height", TypeKind::kInt32)
      .add_var_array("pixels", TypeKind::kChar)
      .build();
}
}  // namespace

FormatPtr image_format() {
  static const FormatPtr format = make_image_format("image");
  return format;
}

FormatPtr half_image_format() {
  static const FormatPtr format = make_image_format("half_image");
  return format;
}

FormatPtr image_request_format() {
  static const FormatPtr format = FormatBuilder("image_request")
                                      .add_string("filename")
                                      .add_string("transform")
                                      .build();
  return format;
}

Value image_to_value(const Image& image, const pbio::FormatDesc& format) {
  if (format.field("pixels") == nullptr) {
    throw CodecError("format '" + format.name + "' is not an image format");
  }
  return Value::record(
      {{"width", image.width()},
       {"height", image.height()},
       {"pixels", Value{to_string(BytesView{image.bytes()})}}});
}

Image image_from_value(const Value& value) {
  const std::int64_t width = value.field("width").as_i64();
  const std::int64_t height = value.field("height").as_i64();
  const std::string& pixels = value.field("pixels").as_string();
  // Untrusted dimensions: range-checked, and matched against the pixels
  // actually supplied, before the raster is allocated.
  if (width <= 0 || height <= 0 || width > kMaxDimension || height > kMaxDimension) {
    throw CodecError("image dimensions " + std::to_string(width) + "x" +
                     std::to_string(height) + " out of range");
  }
  if (pixels.size() != static_cast<std::uint64_t>(width * height * 3)) {
    throw CodecError("pixel buffer size " + std::to_string(pixels.size()) +
                     " does not match " + std::to_string(width) + "x" +
                     std::to_string(height));
  }
  Image image(static_cast<int>(width), static_cast<int>(height));
  std::copy(pixels.begin(), pixels.end(), image.bytes().begin());
  return image;
}

Value resize_quality_handler(const Value& full, const pbio::FormatDesc& target,
                             const qos::AttributeMap& /*attributes*/) {
  const Image image = image_from_value(full);
  const Image reduced = downscale(image, 2);
  return image_to_value(reduced, target);
}

Value crop_quality_handler(const Value& full, const pbio::FormatDesc& target,
                           const qos::AttributeMap& attributes) {
  const Image image = image_from_value(full);

  auto attr = [&](const char* name, double fallback) {
    const auto it = attributes.find(name);
    return it == attributes.end() ? fallback : it->second;
  };
  // Default region: the centered quarter of the frame.
  int x = static_cast<int>(attr("roi_x", image.width() / 4.0));
  int y = static_cast<int>(attr("roi_y", image.height() / 4.0));
  int w = static_cast<int>(attr("roi_w", image.width() / 2.0));
  int h = static_cast<int>(attr("roi_h", image.height() / 2.0));

  // Clamp to the frame so stale attribute values cannot fault the server.
  x = std::clamp(x, 0, image.width() - 1);
  y = std::clamp(y, 0, image.height() - 1);
  w = std::clamp(w, 1, image.width() - x);
  h = std::clamp(h, 1, image.height() - y);

  return image_to_value(crop(image, x, y, w, h), target);
}

}  // namespace sbq::image
