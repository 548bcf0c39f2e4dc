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

/// Body storage shared by Request and Response: either a flat byte vector
/// (`body`, the classic path and what the parser fills in) or a segmented
/// `body_chain` produced by the zero-copy pipeline. A non-empty chain takes
/// precedence; the accessors below hide which one is populated.
struct MessageBody {
  Bytes body;
  BufferChain body_chain;

  [[nodiscard]] std::size_t body_size() const {
    return body_chain.empty() ? body.size() : body_chain.size();
  }

  /// Contiguous view of the body. A multi-segment chain is coalesced once
  /// into an internal cache (a counted copy) — callers that can stay
  /// segment-aware should prefer body_as_chain().
  [[nodiscard]] BytesView body_view() const {
    if (body_chain.empty()) return BytesView{body};
    if (body_chain.segment_count() == 1) return body_chain.segment(0);
    if (coalesced_.empty()) coalesced_ = body_chain.coalesce();
    return BytesView{coalesced_};
  }

  /// The body as a chain without flattening: shares `body_chain`'s segments,
  /// or borrows the flat `body` (the message must outlive the result).
  [[nodiscard]] BufferChain body_as_chain() const {
    BufferChain out;
    if (!body_chain.empty()) {
      out.append_shared(body_chain);
    } else if (!body.empty()) {
      out.append_view(BytesView{body});
    }
    return out;
  }

  [[nodiscard]] std::string body_string() const {
    const BytesView v = body_view();
    return to_string(v);
  }

  void set_body(std::string_view s) {
    body = to_bytes(s);
    body_chain.clear();
    coalesced_.clear();
  }
  void set_body(Bytes bytes) {
    body = std::move(bytes);
    body_chain.clear();
    coalesced_.clear();
  }
  void set_body_chain(BufferChain&& chain) {
    body.clear();
    coalesced_.clear();
    body_chain = std::move(chain);
  }

 protected:
  mutable Bytes coalesced_;  // body_view() cache for multi-segment chains
};

struct Request : MessageBody {
  std::string method = "POST";
  std::string target = "/";
  std::string version = "HTTP/1.1";
  Headers headers;

  /// Serializes with a correct Content-Length header.
  [[nodiscard]] Bytes serialize() const;

  /// Appends head + body to `out` without flattening: the head becomes one
  /// owned segment, body segments are shared (or borrowed from `body`, in
  /// which case the request must outlive `out`). Coalescing `out` yields
  /// exactly the serialize() bytes.
  void serialize_to(BufferChain& out) const;

  /// Exact wire size serialize() would produce, without building the body.
  [[nodiscard]] std::size_t serialized_size() const;
};

struct Response : MessageBody {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  Headers headers;

  [[nodiscard]] Bytes serialize() const;
  void serialize_to(BufferChain& out) const;  // see Request::serialize_to
  [[nodiscard]] std::size_t serialized_size() const;
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
