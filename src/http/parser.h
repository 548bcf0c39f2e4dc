// HTTP/1.1 wire parsing.
//
// Stream-oriented and *resumable*: the parsing core is an incremental state
// machine over an internal buffer, so the same MessageReader serves two
// consumption styles:
//
//   * blocking — read_request()/read_response() pull bytes from the
//     net::Stream until a full message is buffered (http::Client, and the
//     tests' pipe-serving loop),
//   * read-on-readiness — the serving front reads whatever the socket has
//     straight into read_space(), commit()s it, and asks
//     try_next_request() whether a complete message has accumulated; an
//     incomplete message parks as parser state, not as a blocked thread.
//     (feed() does the same for bytes already in hand.)
//
// A single connection can carry many keep-alive exchanges either way, and
// pipelined requests buffered in one read parse out one try_next_request()
// at a time.
//
// Bytes are copied at most once. A head is parsed in place in the receive
// buffer. Once it has parsed, the body is received into its own owned
// segment, which becomes the message's body without a further copy; only
// the body bytes that arrived in the same read as the head, or in a read
// of the body's last few KiB, are copied there from the receive buffer.
#pragma once

#include <memory>
#include <optional>
#include <span>
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

  // --- resumable surface (serving front) ----------------------------------

  /// Largest body segment allocated: a body up to this size is received
  /// into one owned segment, a larger one into a chain of them. So no more
  /// than this much of a claimed Content-Length is ever allocated ahead of
  /// the bytes received.
  static constexpr std::size_t kBodySegment = 256 * 1024;

  /// Where the next read off the socket should land: the receive buffer
  /// (at least 8 KiB of room), or, once a head has parsed and at least
  /// 8 KiB of its body is still owed, the free space of the body's own
  /// segment, never past the body's end. Reads for the last few KiB of a
  /// body go to the receive buffer, so one read can also take the start
  /// of the next pipelined message.
  std::span<std::uint8_t> read_space();

  /// Records that the last read placed `n` bytes at read_space(). Limit
  /// checks run on the next try_next_request(); committing never throws.
  void commit(std::size_t n);

  /// Appends bytes already in hand, as if read off the socket.
  void feed(BytesView bytes);

  /// Attempts to parse one complete request out of the buffered bytes.
  /// Empty optional = incomplete, feed more on the next readable event.
  /// Throws ParseError on malformed or limit-violating input.
  std::optional<Request> try_next_request();

  /// Current incremental phase (drives idle- vs read-deadline selection).
  [[nodiscard]] Phase phase() const;

  /// True when no unconsumed bytes are buffered.
  [[nodiscard]] bool buffer_empty() const {
    return begin_ == end_ && body_received_ == 0;
  }

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

  /// Takes the raw header block (through the blank line) off the receive
  /// buffer if complete; the view stays valid until the next
  /// read_space(). Enforces max_header_bytes.
  std::optional<std::string_view> try_take_head();
  /// Moves buffered body bytes into the body's segments.
  void take_body_bytes();
  /// Free space in the body's current segment, opening the next one (the
  /// body's rest, up to kBodySegment) when it is full.
  std::span<std::uint8_t> body_room();
  /// Records `n` bytes placed at body_room(); a full segment joins `body_`.
  void body_filled(std::size_t n);
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
  std::uint64_t consumed_ = 0;

  // The receive buffer: bytes read but not yet parsed are [begin_, end_).
  std::unique_ptr<std::uint8_t[]> buffer_;
  std::size_t buffer_size_ = 0;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  // Bytes from begin_ already searched for the end of the head, so the
  // next search starts near there.
  std::size_t head_scanned_ = 0;
  // The last read_space() was in the body segment, not the buffer.
  bool reading_body_ = false;

  // The message whose head has parsed while its body is received;
  // monostate between messages. Full segments are already in `body_`;
  // `segment_` is being filled.
  std::variant<std::monostate, Request, Response> pending_;
  BufferChain body_;
  std::shared_ptr<std::uint8_t[]> segment_;
  std::size_t segment_size_ = 0;
  std::size_t segment_fill_ = 0;
  std::size_t body_received_ = 0;
  std::size_t body_owed_ = 0;  // body bytes not yet received
};

/// Parses a header block (everything up to and including the blank line).
/// `max_fields` bounds the field count (0 = unlimited). Exposed for unit
/// testing.
Headers parse_header_lines(std::string_view block, std::size_t max_fields = 0);

}  // namespace sbq::http
