#include "http/parser.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace sbq::http {

Headers parse_header_lines(std::string_view block, std::size_t max_fields) {
  Headers headers;
  std::size_t pos = 0;
  std::size_t fields = 0;
  while (pos < block.size()) {
    std::size_t eol = block.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = block.size();
    const std::string_view line = block.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) break;
    if (max_fields > 0 && ++fields > max_fields) {
      throw ParseError("more than " + std::to_string(max_fields) +
                       " header fields");
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      throw ParseError("header line without colon: '" + std::string(line) + "'");
    }
    const std::string_view name = trim(line.substr(0, colon));
    const std::string_view value = trim(line.substr(colon + 1));
    if (name.empty()) throw ParseError("empty header name");
    headers.add(std::string(name), std::string(value));
  }
  return headers;
}

namespace {
// Room guaranteed at each read_space() into the receive buffer; also the
// smallest body remainder read in place in its segment.
constexpr std::size_t kReadChunk = 8192;
}  // namespace

std::span<std::uint8_t> MessageReader::read_space() {
  reading_body_ = !std::holds_alternative<std::monostate>(pending_) &&
                  begin_ == end_ && body_owed_ >= kReadChunk;
  if (reading_body_) return body_room();
  if (begin_ == end_) begin_ = end_ = 0;
  if (buffer_size_ - end_ < kReadChunk) {
    const std::size_t live = end_ - begin_;
    if (buffer_size_ - live >= kReadChunk) {
      std::copy_n(buffer_.get() + begin_, live, buffer_.get());
    } else {
      const std::size_t size = std::max(2 * buffer_size_, live + kReadChunk);
      auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(size);
      std::copy_n(buffer_.get() + begin_, live, grown.get());
      buffer_ = std::move(grown);
      buffer_size_ = size;
    }
    begin_ = 0;
    end_ = live;
  }
  return {buffer_.get() + end_, buffer_size_ - end_};
}

void MessageReader::commit(std::size_t n) {
  if (reading_body_) {
    body_filled(n);
  } else {
    end_ += n;
  }
  reading_body_ = false;
}

bool MessageReader::fill() {
  const std::span<std::uint8_t> space = read_space();
  const std::size_t n = stream_.read_some(space.data(), space.size());
  commit(n);
  return n > 0;
}

void MessageReader::feed(BytesView bytes) {
  while (!bytes.empty()) {
    const std::span<std::uint8_t> space = read_space();
    const std::size_t n = std::min(space.size(), bytes.size());
    std::copy_n(bytes.data(), n, space.data());
    commit(n);
    bytes = bytes.subspan(n);
  }
}

MessageReader::Phase MessageReader::phase() const {
  if (!std::holds_alternative<std::monostate>(pending_)) return Phase::kBody;
  return begin_ == end_ ? Phase::kIdle : Phase::kHead;
}

std::optional<std::string_view> MessageReader::try_take_head() {
  const std::string_view buffered =
      as_chars(BytesView{buffer_.get() + begin_, end_ - begin_});
  // Resume where the last scan stopped, less the 3 bytes of a terminator
  // that may have been cut there, so a trickled head is scanned once.
  const std::size_t from = head_scanned_ > 3 ? head_scanned_ - 3 : 0;
  const std::size_t end = buffered.find("\r\n\r\n", from);
  const std::size_t head = end == std::string_view::npos ? buffered.size() : end + 4;
  if (head > limits_.max_header_bytes) throw ParseError("header block exceeds limit");
  if (end == std::string_view::npos) {
    head_scanned_ = buffered.size();
    return std::nullopt;
  }
  begin_ += head;
  consumed_ += head;
  head_scanned_ = 0;
  return buffered.substr(0, head);
}

std::span<std::uint8_t> MessageReader::body_room() {
  if (segment_fill_ == segment_size_) {
    segment_size_ = std::min(body_owed_, kBodySegment);
    segment_fill_ = 0;
    segment_ = std::make_shared_for_overwrite<std::uint8_t[]>(segment_size_);
  }
  return {segment_.get() + segment_fill_, segment_size_ - segment_fill_};
}

void MessageReader::body_filled(std::size_t n) {
  segment_fill_ += n;
  body_received_ += n;
  body_owed_ -= n;
  if (segment_fill_ == segment_size_) {
    const BytesView full{segment_.get(), segment_size_};
    body_.append_view(full, std::move(segment_));
  }
}

void MessageReader::take_body_bytes() {
  while (body_owed_ > 0 && begin_ < end_) {
    const std::span<std::uint8_t> room = body_room();
    const std::size_t take = std::min(end_ - begin_, room.size());
    std::copy_n(buffer_.get() + begin_, take, room.data());
    begin_ += take;
    body_filled(take);
  }
}

std::size_t MessageReader::body_length(const Headers& headers) const {
  std::size_t length = 0;
  if (auto cl = headers.get("Content-Length")) {
    length = static_cast<std::size_t>(parse_u64(*cl));
  } else if (auto te = headers.get("Transfer-Encoding")) {
    throw ParseError("unsupported Transfer-Encoding: " + std::string(*te));
  }
  // Checked at head-parse time, before a single body byte is buffered: a
  // Content-Length of 2^60 costs nothing.
  if (length > limits_.max_body_bytes) throw ParseError("body exceeds limit");
  return length;
}

void MessageReader::parse_head(std::string_view head, Request& req) const {
  const std::size_t eol = head.find("\r\n");
  const std::string_view line = head.substr(0, eol);
  const auto parts = split_whitespace(line);
  if (parts.size() != 3) {
    throw ParseError("bad request line: '" + std::string(line) + "'");
  }
  req.method = std::string(parts[0]);
  req.target = std::string(parts[1]);
  req.version = std::string(parts[2]);
  if (!req.version.starts_with("HTTP/1.")) {
    throw ParseError("unsupported HTTP version: " + req.version);
  }
  req.headers = parse_header_lines(head.substr(eol + 2), limits_.max_header_fields);
}

void MessageReader::parse_head(std::string_view head, Response& resp) const {
  const std::size_t eol = head.find("\r\n");
  const std::string_view line = head.substr(0, eol);
  // Status line: HTTP/1.1 SP status SP reason (reason may contain spaces).
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) throw ParseError("bad status line");
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  resp.version = std::string(line.substr(0, sp1));
  if (!resp.version.starts_with("HTTP/1.")) {
    throw ParseError("unsupported HTTP version: " + resp.version);
  }
  const std::string_view status_str =
      line.substr(sp1 + 1, sp2 == std::string_view::npos ? std::string_view::npos
                                                         : sp2 - sp1 - 1);
  resp.status = static_cast<int>(parse_u64(status_str));
  resp.reason =
      sp2 == std::string_view::npos ? "" : std::string(trim(line.substr(sp2 + 1)));
  resp.headers = parse_header_lines(head.substr(eol + 2), limits_.max_header_fields);
}

template <typename Message>
std::optional<Message> MessageReader::try_next() {
  if (std::holds_alternative<std::monostate>(pending_)) {
    const auto head = try_take_head();
    if (!head) return std::nullopt;
    Message message;
    parse_head(*head, message);
    body_owed_ = body_length(message.headers);
    pending_ = std::move(message);
  }
  take_body_bytes();
  if (body_owed_ > 0) return std::nullopt;
  Message message = std::get<Message>(std::move(pending_));
  pending_ = std::monostate{};
  message.body = std::move(body_);
  body_ = BufferChain{};
  consumed_ += body_received_;
  body_received_ = 0;
  return message;
}

template <typename Message>
std::optional<Message> MessageReader::read_next() {
  for (;;) {
    auto message = try_next<Message>();
    if (message) return message;
    if (!fill()) {
      const Phase at = phase();
      if (at == Phase::kIdle) return std::nullopt;  // clean EOF
      throw TransportError(at == Phase::kBody ? "EOF inside HTTP body"
                                              : "EOF inside HTTP header block");
    }
  }
}

std::optional<Request> MessageReader::try_next_request() {
  return try_next<Request>();
}

std::optional<Request> MessageReader::read_request() {
  return read_next<Request>();
}

std::optional<Response> MessageReader::read_response() {
  return read_next<Response>();
}

}  // namespace sbq::http
