// HTTP messages on the wire, for tests.
//
// The library serialises a request or response into a BufferChain only
// (serialize_to). Tests that write a message to a stream by hand, or that
// look at its exact bytes, go through these helpers.
#pragma once

#include "common/buffer_chain.h"
#include "common/bytes.h"
#include "net/stream.h"

namespace sbq::test {

/// The bytes an HTTP request or response puts on the wire, in one buffer.
template <typename Message>
Bytes http_wire(const Message& message) {
  BufferChain wire;
  message.serialize_to(wire);
  return wire.coalesce();
}

/// Writes an HTTP request or response to `stream` as the library does: its
/// serialize_to chain, in one gather write.
template <typename Message>
void write_message(net::Stream& stream, const Message& message) {
  BufferChain wire;
  message.serialize_to(wire);
  stream.write_chain(wire);
}

}  // namespace sbq::test
