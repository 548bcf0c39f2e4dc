// HTTP/1.1 wire parsing.
//
// Stream-oriented and *resumable*: the parsing core is an incremental state
// machine over an internal buffer, so the same MessageReader serves two
// consumption styles:
//
//   * blocking — read_request()/read_response() pull bytes from the
//     net::Stream until a full message is buffered (http::Client, and the
//     tests' pipe-serving loop),
//   * feed-on-readiness — the event front pushes whatever bytes the socket
//     had via feed() and asks try_next_request() whether a complete message
//     has accumulated; an incomplete message parks as parser state, not as
//     a blocked thread.
//
// A single connection can carry many keep-alive exchanges either way, and
// pipelined requests buffered in one feed parse out one try_next_request()
// at a time.
#pragma once

#include <optional>
#include <string_view>
#include <variant>

#include "http/message.h"
#include "net/stream.h"

namespace sbq::http {

/// Upper bounds on header block size, header field count, and body size
/// (defense against malformed or adversarial peers; generous for the paper's
/// ~1 MB payloads). Every limit violation throws ParseError *before* the
/// oversized item is buffered — a Content-Length of 2^60 costs nothing.
struct ParserLimits {
  std::size_t max_header_bytes = 64 * 1024;
  std::size_t max_header_fields = 100;
  std::size_t max_body_bytes = 256 * 1024 * 1024;
};

/// Buffered reader that parses HTTP messages off a Stream.
class MessageReader {
 public:
  explicit MessageReader(net::Stream& stream, ParserLimits limits = {})
      : stream_(stream), limits_(limits) {}

  /// Where the parser stands between calls — what the event front keys its
  /// per-phase deadlines on (idle vs read).
  enum class Phase {
    kIdle,  // between messages: nothing buffered
    kHead,  // head bytes buffered, terminator not yet seen
    kBody,  // head parsed, body incomplete
  };

  /// Reads the next request; empty optional on clean EOF between messages.
  /// Throws ParseError on malformed input, TransportError on truncated input.
  std::optional<Request> read_request();

  /// Reads the next response; empty optional on clean EOF.
  std::optional<Response> read_response();

  // --- resumable surface (event front) ------------------------------------

  /// Appends bytes pulled off the socket by a readiness loop. Limit checks
  /// run on the next try_next_request(); feeding never throws.
  void feed(BytesView bytes);

  /// Attempts to parse one complete request out of the buffered bytes.
  /// Empty optional = incomplete, feed more on the next readable event.
  /// Throws ParseError on malformed or limit-violating input.
  std::optional<Request> try_next_request();

  /// Current incremental phase (drives idle- vs read-deadline selection).
  [[nodiscard]] Phase phase() const;

  /// True when no unconsumed bytes are buffered (used to decide whether a
  /// keep-alive connection may already hold a pipelined next request).
  [[nodiscard]] bool buffer_empty() const { return buffer_.empty(); }

  /// Total wire bytes consumed by parsed messages so far (head + body, the
  /// exact on-the-wire size — NOT a re-serialization of the parsed message).
  [[nodiscard]] std::uint64_t bytes_consumed() const { return consumed_; }

 private:
  /// The one resumable step behind all three readers: takes a head off the
  /// buffer and parses it into a pending `Message`, then hands the message
  /// over once its body is buffered. Empty optional = incomplete.
  template <typename Message>
  std::optional<Message> try_next();
  /// Runs try_next, pulling more bytes from the stream until it completes.
  template <typename Message>
  std::optional<Message> read_next();

  /// Extracts the raw header block (through the blank line) from the
  /// buffer if complete. Enforces max_header_bytes.
  std::optional<std::string> try_take_head();
  /// Parses a head's start line and header fields into the message.
  /// Enforces max_header_fields.
  void parse_head(std::string_view head, Request& request) const;
  void parse_head(std::string_view head, Response& response) const;
  /// Body length implied by `headers` (Content-Length framing only).
  /// Enforces max_body_bytes.
  std::size_t body_length(const Headers& headers) const;

  bool fill();  // pull more bytes from the stream; false on EOF

  net::Stream& stream_;
  ParserLimits limits_;
  std::string buffer_;
  std::uint64_t consumed_ = 0;
  // Bytes at the front of buffer_ already searched for the end of the
  // head, so the next search starts near there.
  std::size_t head_scanned_ = 0;

  // The message whose head has parsed while `body_needed_` body bytes are
  // still owed; monostate between messages.
  std::variant<std::monostate, Request, Response> pending_;
  std::size_t body_needed_ = 0;
};

/// Parses a header block (everything up to and including the blank line).
/// `max_fields` bounds the field count (0 = unlimited). Exposed for unit
/// testing.
Headers parse_header_lines(std::string_view block, std::size_t max_fields = 0);

}  // namespace sbq::http
