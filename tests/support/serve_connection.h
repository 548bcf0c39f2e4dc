// Blocking single-connection HTTP serving loop for tests.
//
// Drives a handler over any net::Stream — typically an in-process pipe — so
// HTTP and SOAP behaviour can be tested without sockets or the event front.
// It is test support, not a second server: http::Server (the event front)
// is the only serving front the library ships.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>

#include "common/error.h"
#include "http/parser.h"
#include "http/server.h"
#include "net/stream.h"

namespace sbq::test {

/// Serves `stream` until EOF with default parser limits. Connection-scoped
/// failures never propagate: exceptions from the handler become 500
/// responses, malformed input gets a 400 and the connection closes,
/// transport failures just close it.
inline void serve_connection(net::Stream& stream, const http::Handler& handler) {
  http::MessageReader reader(stream);
  for (;;) {
    std::optional<http::Request> request;
    try {
      request = reader.read_request();
    } catch (const TransportError&) {
      return;  // peer vanished mid-message; nothing to send
    } catch (const Error& e) {
      // Malformed input of any kind — parse errors, limit violations, bad
      // framing numbers — is the client's fault: answer 400 and hang up
      // (the read position inside the bad message is unrecoverable).
      http::Response bad;
      bad.status = 400;
      bad.reason = std::string(http::reason_phrase(400));
      bad.headers.set("Connection", "close");
      bad.set_body(e.what());
      BufferChain wire;
      bad.serialize_to(wire);
      try {
        stream.write_chain(wire);
      } catch (const TransportError&) {
      }
      return;
    }
    if (!request) return;  // clean EOF

    http::Response response;
    try {
      response = handler(*request);
    } catch (const std::exception& e) {
      response = http::Response{};
      response.status = 500;
      response.reason = std::string(http::reason_phrase(500));
      response.set_body(e.what());
    }
    BufferChain wire;
    response.serialize_to(wire);
    try {
      stream.write_chain(wire);
    } catch (const TransportError&) {
      return;
    }
    if (request->headers.get("Connection").value_or("") == "close" ||
        response.headers.get("Connection").value_or("") == "close") {
      return;
    }
  }
}

}  // namespace sbq::test
