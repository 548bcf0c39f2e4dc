// HTTP/1.1 message model.
//
// SOAP rides on HTTP POST; this module provides the minimal, correct subset
// the stack needs: request/response lines, case-insensitive headers,
// Content-Length framing, and keep-alive. Chunked transfer encoding is
// deliberately out of scope (SOAP messages here always know their length).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/buffer_chain.h"
#include "common/bytes.h"

namespace sbq::http {

/// Ordered header list with case-insensitive name lookup (RFC 7230 §3.2).
class Headers {
 public:
  void set(std::string name, std::string value);
  void add(std::string name, std::string value);
  [[nodiscard]] std::optional<std::string_view> get(std::string_view name) const;
  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

/// Body storage shared by Request and Response: one BufferChain. set_body
/// and the parser move their bytes in as one owned segment; a codec's chain
/// is assigned to `body` whole, its segments owned or shared, never copied.
struct MessageBody {
  BufferChain body;

  void set_body(std::string&& s) {
    body.clear();
    body.append(std::move(s));
  }
  void set_body(Bytes&& bytes) {
    body.clear();
    body.append(std::move(bytes));
  }

  /// A copy of the body as text (error messages, XML documents, tests).
  [[nodiscard]] std::string body_string() const {
    std::string out;
    out.reserve(body.size());
    for (const BytesView segment : body) out += as_chars(segment);
    return out;
  }
};

struct Request : MessageBody {
  std::string method = "POST";
  std::string target = "/";
  std::string version = "HTTP/1.1";
  Headers headers;

  /// Appends head + body to `out` without flattening: the head becomes one
  /// owned segment and the body's segments are shared, with a recomputed
  /// Content-Length.
  void serialize_to(BufferChain& out) const;
};

struct Response : MessageBody {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  Headers headers;

  void serialize_to(BufferChain& out) const;  // see Request::serialize_to
};

/// Standard reason phrase for a status code.
std::string_view reason_phrase(int status);

/// Ceiling on the server-advertised retry delay a client will honor: one
/// hour. Anything larger (or overflowing delta-seconds arithmetic) clamps
/// here instead of wrapping around to a tiny — or zero — delay.
inline constexpr std::uint64_t kMaxRetryAfterUs = 3'600'000'000ull;

/// Parses a Retry-After header (RFC 7231 delta-seconds form) into
/// microseconds. The robustness contract for client retry loops: a missing,
/// malformed (HTTP-date or junk), or zero-valued header yields 0 — "no
/// usable server hint, use local backoff" — and absurd values clamp to
/// kMaxRetryAfterUs, so a hostile or buggy header can neither melt the
/// client into a 0-delay hot retry loop nor park it forever.
std::uint64_t retry_after_us(const Headers& headers);

}  // namespace sbq::http
