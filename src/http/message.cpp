#include "http/message.h"

#include "common/error.h"
#include "common/strings.h"

namespace sbq::http {

void Headers::set(std::string name, std::string value) {
  for (auto& [k, v] : items_) {
    if (iequals(k, name)) {
      v = std::move(value);
      return;
    }
  }
  items_.emplace_back(std::move(name), std::move(value));
}

void Headers::add(std::string name, std::string value) {
  items_.emplace_back(std::move(name), std::move(value));
}

std::optional<std::string_view> Headers::get(std::string_view name) const {
  for (const auto& [k, v] : items_) {
    if (iequals(k, name)) return std::string_view{v};
  }
  return std::nullopt;
}

bool Headers::has(std::string_view name) const {
  return get(name).has_value();
}

namespace {
void serialize_headers(const Headers& headers, std::size_t body_size,
                       std::string& out) {
  for (const auto& [k, v] : headers.items()) {
    if (iequals(k, "Content-Length")) continue;  // always recomputed below
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
  }
  out += "Content-Length: " + std::to_string(body_size) + "\r\n\r\n";
}
}  // namespace

void Request::serialize_to(BufferChain& out) const {
  std::string head = method + " " + target + " " + version + "\r\n";
  serialize_headers(headers, body.size(), head);
  out.append(std::move(head));
  out.append_shared(body);
}

void Response::serialize_to(BufferChain& out) const {
  std::string head = version + " " + std::to_string(status) + " " + reason + "\r\n";
  serialize_headers(headers, body.size(), head);
  out.append(std::move(head));
  out.append_shared(body);
}

std::string_view reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

std::uint64_t retry_after_us(const Headers& headers) {
  const auto after = headers.get("Retry-After");
  if (!after) return 0;
  std::uint64_t seconds = 0;
  try {
    seconds = parse_u64(*after);
  } catch (const ParseError&) {
    return 0;  // HTTP-date or junk: no usable hint, use local backoff
  }
  if (seconds == 0) return 0;
  if (seconds >= kMaxRetryAfterUs / 1'000'000ull) return kMaxRetryAfterUs;
  return seconds * 1'000'000ull;
}

}  // namespace sbq::http
