#include "http/parser.h"

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

bool MessageReader::fill() {
  std::uint8_t chunk[8192];
  const std::size_t n = stream_.read_some(chunk, sizeof chunk);
  if (n == 0) return false;
  buffer_.append(as_chars(BytesView{chunk, n}));
  return true;
}

void MessageReader::feed(BytesView bytes) {
  buffer_.append(as_chars(bytes));
}

MessageReader::Phase MessageReader::phase() const {
  if (!std::holds_alternative<std::monostate>(pending_)) return Phase::kBody;
  return buffer_.empty() ? Phase::kIdle : Phase::kHead;
}

std::optional<std::string> MessageReader::try_take_head() {
  // Resume where the last scan stopped, less the 3 bytes of a terminator
  // that may have been cut there, so a trickled head is scanned once.
  const std::size_t from = head_scanned_ > 3 ? head_scanned_ - 3 : 0;
  const std::size_t end = buffer_.find("\r\n\r\n", from);
  if (end != std::string::npos) {
    if (end + 4 > limits_.max_header_bytes) {
      throw ParseError("header block exceeds limit");
    }
    std::string head = buffer_.substr(0, end + 4);
    buffer_.erase(0, end + 4);
    consumed_ += head.size();
    head_scanned_ = 0;
    return head;
  }
  head_scanned_ = buffer_.size();
  if (buffer_.size() > limits_.max_header_bytes) {
    throw ParseError("header block exceeds limit");
  }
  return std::nullopt;
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
    body_needed_ = body_length(message.headers);
    pending_ = std::move(message);
  }
  if (buffer_.size() < body_needed_) return std::nullopt;
  Message message = std::get<Message>(std::move(pending_));
  pending_ = std::monostate{};
  // The body leaves the buffer as one owned segment.
  message.body.append(buffer_.substr(0, body_needed_));
  buffer_.erase(0, body_needed_);
  consumed_ += body_needed_;
  body_needed_ = 0;
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
