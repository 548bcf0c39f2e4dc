// Unit + integration tests for the HTTP layer: headers, serialization,
// parsing, keep-alive client/server over pipes and real TCP.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "http/client.h"
#include "http/message.h"
#include "http/parser.h"
#include "http/server.h"
#include "net/fault.h"
#include "net/pipe.h"
#include "net/tcp.h"
#include "support/http_wire.h"
#include "support/serve_connection.h"

namespace sbq::http {
namespace {

TEST(HeadersTest, CaseInsensitiveLookup) {
  Headers h;
  h.set("Content-Type", "text/xml");
  EXPECT_EQ(h.get("content-type").value_or(""), "text/xml");
  EXPECT_EQ(h.get("CONTENT-TYPE").value_or(""), "text/xml");
  EXPECT_FALSE(h.has("content-length"));
}

TEST(HeadersTest, SetReplacesAddAppends) {
  Headers h;
  h.set("X-A", "1");
  h.set("x-a", "2");
  EXPECT_EQ(h.items().size(), 1u);
  EXPECT_EQ(h.get("X-A").value_or(""), "2");
  h.add("X-A", "3");
  EXPECT_EQ(h.items().size(), 2u);
}

TEST(MessageTest, RequestSerializationHasContentLength) {
  Request req;
  req.method = "POST";
  req.target = "/svc";
  req.headers.set("Content-Type", "text/xml");
  req.set_body("<x/>");
  const std::string wire = to_string(BytesView{test::http_wire(req)});
  EXPECT_TRUE(wire.starts_with("POST /svc HTTP/1.1\r\n"));
  EXPECT_NE(wire.find("Content-Length: 4\r\n\r\n<x/>"), std::string::npos);
}

TEST(MessageTest, StaleContentLengthIsRecomputed) {
  Response resp;
  resp.headers.set("Content-Length", "9999");
  resp.set_body("ok");
  const std::string wire = to_string(BytesView{test::http_wire(resp)});
  EXPECT_NE(wire.find("Content-Length: 2"), std::string::npos);
  EXPECT_EQ(wire.find("9999"), std::string::npos);
}

TEST(ParseHeaderLines, BasicAndWhitespace) {
  Headers h = parse_header_lines("A: 1\r\nLong-Name:   spaced value  \r\n\r\n");
  EXPECT_EQ(h.get("a").value_or(""), "1");
  EXPECT_EQ(h.get("long-name").value_or(""), "spaced value");
}

TEST(ParseHeaderLines, MalformedThrows) {
  EXPECT_THROW(parse_header_lines("no colon here\r\n\r\n"), ParseError);
  EXPECT_THROW(parse_header_lines(": empty name\r\n\r\n"), ParseError);
}

class PipeHttp : public ::testing::Test {
 protected:
  PipeHttp() {
    auto [client_end, server_end] = net::make_pipe();
    client_ = std::move(client_end);
    server_ = std::move(server_end);
  }

  std::unique_ptr<net::PipeStream> client_;
  std::unique_ptr<net::PipeStream> server_;
};

TEST_F(PipeHttp, RequestRoundTrip) {
  Request req;
  req.method = "POST";
  req.target = "/a/b";
  req.headers.set("Content-Type", "text/plain");
  req.set_body("payload");
  test::write_message(*client_, req);
  client_->close();

  MessageReader reader(*server_);
  auto got = reader.read_request();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->method, "POST");
  EXPECT_EQ(got->target, "/a/b");
  EXPECT_EQ(got->body_string(), "payload");
  EXPECT_FALSE(reader.read_request().has_value());  // clean EOF
}

TEST_F(PipeHttp, MultipleKeepAliveRequests) {
  for (int i = 0; i < 3; ++i) {
    Request req;
    req.set_body("r" + std::to_string(i));
    test::write_message(*client_, req);
  }
  client_->close();
  MessageReader reader(*server_);
  for (int i = 0; i < 3; ++i) {
    auto got = reader.read_request();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->body_string(), "r" + std::to_string(i));
  }
  EXPECT_FALSE(reader.read_request().has_value());
}

TEST_F(PipeHttp, ResponseRoundTrip) {
  Response resp;
  resp.status = 404;
  resp.reason = "Not Found";
  resp.set_body("missing");
  test::write_message(*server_, resp);
  server_->close();

  MessageReader reader(*client_);
  auto got = reader.read_response();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 404);
  EXPECT_EQ(got->reason, "Not Found");
  EXPECT_EQ(got->body_string(), "missing");
}

TEST_F(PipeHttp, TruncatedBodyThrows) {
  client_->write_all(std::string_view{
      "POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort"});
  client_->close();
  MessageReader reader(*server_);
  EXPECT_THROW(reader.read_request(), TransportError);
}

TEST_F(PipeHttp, BadRequestLineThrows) {
  client_->write_all(std::string_view{"NONSENSE\r\n\r\n"});
  client_->close();
  MessageReader reader(*server_);
  EXPECT_THROW(reader.read_request(), ParseError);
}

TEST_F(PipeHttp, UnsupportedTransferEncodingThrows) {
  client_->write_all(std::string_view{
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"});
  client_->close();
  MessageReader reader(*server_);
  EXPECT_THROW(reader.read_request(), ParseError);
}

TEST_F(PipeHttp, ServeConnectionDispatchesAndKeepsAlive) {
  std::thread server_thread([&] {
    test::serve_connection(*server_, [](const Request& req) {
      Response resp;
      resp.set_body("echo:" + req.body_string());
      return resp;
    });
  });

  Client http(*client_);
  for (int i = 0; i < 3; ++i) {
    Request req;
    req.set_body("m" + std::to_string(i));
    const Response resp = http.round_trip(req);
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body_string(), "echo:m" + std::to_string(i));
  }
  client_->close();
  server_thread.join();
  EXPECT_GT(http.bytes_sent(), 0u);
  EXPECT_GT(http.bytes_received(), 0u);
}

TEST_F(PipeHttp, HandlerExceptionBecomes500) {
  std::thread server_thread([&] {
    test::serve_connection(*server_, [](const Request&) -> Response {
      throw std::runtime_error("handler exploded");
    });
  });
  Client http(*client_);
  Request req;
  const Response resp = http.round_trip(req);
  EXPECT_EQ(resp.status, 500);
  EXPECT_NE(resp.body_string().find("handler exploded"), std::string::npos);
  client_->close();
  server_thread.join();
}

TEST_F(PipeHttp, ConnectionCloseHeaderEndsLoop) {
  std::thread server_thread([&] {
    test::serve_connection(*server_, [](const Request&) { return Response{}; });
  });
  Client http(*client_);
  Request req;
  req.headers.set("Connection", "close");
  EXPECT_EQ(http.round_trip(req).status, 200);
  server_thread.join();  // loop must have exited on its own
  client_->close();
}

TEST(TcpServerTest, ConcurrentClients) {
  Server server(0, [](const Request& req) {
    Response resp;
    resp.set_body("got " + std::to_string(req.body.size()) + " bytes");
    return resp;
  });

  auto one_client = [&](int i) {
    auto stream = net::TcpStream::connect("127.0.0.1", server.port());
    Client http(*stream);
    Request req;
    req.set_body(std::string(static_cast<std::size_t>(i) + 1, 'x'));
    const Response resp = http.round_trip(req);
    EXPECT_EQ(resp.body_string(), "got " + std::to_string(i + 1) + " bytes");
  };

  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) clients.emplace_back(one_client, i);
  for (auto& t : clients) t.join();
  server.shutdown();
}

TEST(TcpServerTest, ShutdownIsIdempotent) {
  Server server(0, [](const Request&) { return Response{}; });
  server.shutdown();
  server.shutdown();
}

// One misbehaving connection — malformed bytes or a silent stall — must
// never disturb sibling keep-alive clients, and every thread must join.
TEST(TcpServerTest, MixedClientsDoNotDisturbSiblings) {
  ServerOptions options;
  options.workers = 4;
  options.queue_depth = 8;
  // The idle deadline reclaims the stalled client's connection.
  options.idle_timeout_us = 200'000;
  Server server(0,
                [](const Request& req) {
                  Response resp;
                  resp.set_body("echo:" + req.body_string());
                  return resp;
                },
                options);

  std::atomic<int> good_responses{0};
  auto keep_alive_client = [&](int id) {
    auto stream = net::TcpStream::connect("127.0.0.1", server.port());
    Client conn(*stream);
    for (int i = 0; i < 5; ++i) {
      Request req;
      req.method = "POST";
      req.set_body(std::to_string(id) + "." + std::to_string(i));
      const Response resp = conn.round_trip(req);
      EXPECT_EQ(resp.status, 200);
      EXPECT_EQ(resp.body_string(),
                "echo:" + std::to_string(id) + "." + std::to_string(i));
      ++good_responses;
    }
  };
  auto malformed_client = [&] {
    auto stream = net::TcpStream::connect("127.0.0.1", server.port());
    stream->write_all(std::string_view("THIS IS NOT HTTP\r\n\r\n"));
    // The server answers 400 and closes; tolerate a reset instead of a
    // clean close (the 400 may race our next read).
    try {
      MessageReader reader(*stream);
      const auto resp = reader.read_response();
      if (resp) {
        EXPECT_EQ(resp->status, 400);
      }
    } catch (const Error&) {
    }
  };
  auto stalled_client = [&] {
    auto stream = net::TcpStream::connect("127.0.0.1", server.port());
    // Say nothing; the server's idle deadline reclaims the connection.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  };

  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) clients.emplace_back(keep_alive_client, i);
  clients.emplace_back(malformed_client);
  clients.emplace_back(stalled_client);
  for (auto& t : clients) t.join();

  EXPECT_EQ(good_responses.load(), 15);
  server.shutdown();
}

// Shutdown racing fresh connections must neither hang nor double-join:
// every worker and runtime is created in the constructor and joined exactly
// once, whatever the interleaving.
TEST(TcpServerTest, ShutdownVsAcceptRaceIsSafe) {
  for (int round = 0; round < 20; ++round) {
    ServerOptions options;
    options.workers = 2;
    options.queue_depth = 2;
    Server server(0, [](const Request&) { return Response{}; }, options);

    std::thread connector([port = server.port()] {
      try {
        auto stream = net::TcpStream::connect("127.0.0.1", port);
        Client conn(*stream);
        Request req;
        req.set_body("race");
        (void)conn.round_trip(req);
      } catch (const Error&) {
        // Shutdown may beat the connect or the exchange; both are fine.
      }
    });
    server.shutdown();
    connector.join();
  }
}

// ----------------------------------------------------- resumable parsing

template <typename Message>
std::string wire_string(const Message& message) {
  const Bytes bytes = test::http_wire(message);
  return to_string(BytesView{bytes});
}

/// A peer whose bytes trickle in: each read_some hands over (at most) the
/// next of `chunks`, then EOF.
class TrickleStream final : public net::Stream {
 public:
  explicit TrickleStream(std::vector<std::string> chunks) : chunks_(std::move(chunks)) {}

  std::size_t read_some(void* buf, std::size_t n) override {
    if (next_ == chunks_.size()) return 0;
    std::string& chunk = chunks_[next_];
    const std::size_t take = std::min(n, chunk.size());
    std::copy_n(chunk.data(), take, static_cast<char*>(buf));
    chunk.erase(0, take);
    if (chunk.empty()) ++next_;
    ++reads_;
    return take;
  }
  void write_all(const void*, std::size_t) override {}
  void close() override {}

  [[nodiscard]] std::size_t reads() const { return reads_; }

 private:
  std::vector<std::string> chunks_;
  std::size_t next_ = 0;
  std::size_t reads_ = 0;
};

std::vector<std::string> one_chunk_per_byte(std::string_view wire) {
  std::vector<std::string> chunks;
  for (const char c : wire) chunks.emplace_back(1, c);
  return chunks;
}

TEST(ResumableParserTest, ByteAtATimeFeedsParkAsStateNotThreads) {
  auto [unused, feed_end] = net::make_pipe();
  MessageReader reader(*feed_end);

  Request req;
  req.method = "POST";
  req.target = "/svc";
  req.set_body("hello");
  const std::string wire = wire_string(req);

  EXPECT_EQ(reader.phase(), MessageReader::Phase::kIdle);
  std::optional<Request> got;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const std::uint8_t byte = static_cast<std::uint8_t>(wire[i]);
    reader.feed(BytesView{&byte, 1});
    got = reader.try_next_request();
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(got.has_value()) << "complete request after byte " << i;
    }
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->method, "POST");
  EXPECT_EQ(got->target, "/svc");
  EXPECT_EQ(got->body_string(), "hello");
  EXPECT_EQ(reader.phase(), MessageReader::Phase::kIdle);
  EXPECT_TRUE(reader.buffer_empty());

  // A response takes the same step, read by read_response() off a stream
  // that delivers one byte per read: one read per byte, none past it.
  Response resp;
  resp.status = 404;
  resp.reason = "Not Found";
  resp.set_body("missing");
  const std::string resp_wire = wire_string(resp);
  TrickleStream trickle(one_chunk_per_byte(resp_wire));
  MessageReader from_trickle(trickle);
  const auto got_resp = from_trickle.read_response();
  ASSERT_TRUE(got_resp.has_value());
  EXPECT_EQ(trickle.reads(), resp_wire.size());
  EXPECT_EQ(got_resp->status, 404);
  EXPECT_EQ(got_resp->reason, "Not Found");
  EXPECT_EQ(got_resp->body_string(), "missing");
  EXPECT_EQ(from_trickle.phase(), MessageReader::Phase::kIdle);
  EXPECT_EQ(from_trickle.bytes_consumed(), resp_wire.size());
  EXPECT_FALSE(from_trickle.read_response().has_value());  // clean EOF
}

// The head scan resumes where the last feed's scan stopped. A terminator
// cut at any offset and then trickled a byte per feed must be found
// exactly when its last byte arrives; a next request already buffered
// behind it must be scanned from its own start; the limit still holds.
TEST(ResumableParserTest, TrickledHeadIsFoundWhereverItsTerminatorIsSplit) {
  Request first;
  first.method = "POST";
  first.target = "/svc";
  first.headers.set("X-Pad", "a\rb\nc\n\rd");
  first.set_body("hello");
  Request second;
  second.target = "/next";
  const std::string wire = wire_string(first);
  const std::string both = wire + wire_string(second);
  const std::size_t head_size = wire.find("\r\n\r\n") + 4;
  for (std::size_t split = 0; split <= head_size; ++split) {
    auto [unused, feed_end] = net::make_pipe();
    MessageReader reader(*feed_end);
    reader.feed(as_bytes(both.substr(0, split)));
    ASSERT_FALSE(reader.try_next_request().has_value()) << "split " << split;
    for (std::size_t i = split; i < head_size; ++i) {
      reader.feed(as_bytes(both.substr(i, 1)));
      ASSERT_FALSE(reader.try_next_request().has_value()) << "split " << split << ", byte " << i;
    }
    EXPECT_EQ(reader.phase(), MessageReader::Phase::kBody) << "split " << split;
    // The body and the whole next request arrive in one feed.
    reader.feed(as_bytes(both.substr(head_size)));
    std::optional<Request> got = reader.try_next_request();
    ASSERT_TRUE(got.has_value()) << "split " << split;
    EXPECT_EQ(got->target, "/svc");
    EXPECT_EQ(got->headers.get("X-Pad"), "a\rb\nc\n\rd");
    EXPECT_EQ(got->body_string(), "hello");
    EXPECT_EQ(reader.bytes_consumed(), wire.size());
    got = reader.try_next_request();
    ASSERT_TRUE(got.has_value()) << "split " << split;
    EXPECT_EQ(got->target, "/next");
    EXPECT_EQ(reader.bytes_consumed(), both.size());
  }

  // The same for a response, read by read_response() off a stream that
  // delivers the first `split` bytes, then the rest of the head a byte per
  // read, then the body and the whole next response.
  Response first_resp;
  first_resp.status = 404;
  first_resp.reason = "Not Found";
  first_resp.headers.set("X-Pad", "a\rb\nc\n\rd");
  first_resp.set_body("hello");
  Response second_resp;
  second_resp.status = 202;
  second_resp.reason = "Accepted";
  const std::string resp_wire = wire_string(first_resp);
  const std::string resp_both = resp_wire + wire_string(second_resp);
  const std::size_t resp_head_size = resp_wire.find("\r\n\r\n") + 4;
  for (std::size_t split = 0; split <= resp_head_size; ++split) {
    std::vector<std::string> chunks;
    if (split > 0) chunks.push_back(resp_both.substr(0, split));
    for (std::size_t i = split; i < resp_head_size; ++i) {
      chunks.push_back(resp_both.substr(i, 1));
    }
    chunks.push_back(resp_both.substr(resp_head_size));
    const std::size_t chunk_count = chunks.size();
    TrickleStream trickle(std::move(chunks));
    MessageReader reader(trickle);
    std::optional<Response> got = reader.read_response();
    ASSERT_TRUE(got.has_value()) << "split " << split;
    EXPECT_EQ(trickle.reads(), chunk_count) << "split " << split;
    EXPECT_EQ(got->status, 404);
    EXPECT_EQ(got->headers.get("X-Pad"), "a\rb\nc\n\rd");
    EXPECT_EQ(got->body_string(), "hello");
    EXPECT_EQ(reader.bytes_consumed(), resp_wire.size());
    got = reader.read_response();
    ASSERT_TRUE(got.has_value()) << "split " << split;
    EXPECT_EQ(got->status, 202);
    EXPECT_EQ(got->reason, "Accepted");
    EXPECT_EQ(reader.bytes_consumed(), resp_both.size());
    EXPECT_EQ(trickle.reads(), chunk_count) << "split " << split;
    EXPECT_FALSE(reader.read_response().has_value()) << "split " << split;
  }

  // A head past max_header_bytes throws, whether trickled or fed whole.
  ParserLimits limits;
  limits.max_header_bytes = head_size - 1;
  for (const std::size_t chunk : {std::size_t{1}, wire.size()}) {
    auto [unused, feed_end] = net::make_pipe();
    MessageReader reader(*feed_end, limits);
    const auto trickle = [&] {
      for (std::size_t i = 0; i < wire.size(); i += chunk) {
        reader.feed(as_bytes(wire.substr(i, chunk)));
        (void)reader.try_next_request();
      }
    };
    EXPECT_THROW(trickle(), ParseError) << "chunk " << chunk;
  }
}

TEST(ResumableParserTest, PhaseTracksHeadThenBody) {
  auto [unused, feed_end] = net::make_pipe();
  MessageReader reader(*feed_end);

  reader.feed(as_bytes("POST / HTTP/1.1\r\nContent-"));
  EXPECT_FALSE(reader.try_next_request().has_value());
  EXPECT_EQ(reader.phase(), MessageReader::Phase::kHead);

  reader.feed(as_bytes("Length: 4\r\n\r\nab"));
  EXPECT_FALSE(reader.try_next_request().has_value());
  EXPECT_EQ(reader.phase(), MessageReader::Phase::kBody);

  reader.feed(as_bytes("cd"));
  const auto got = reader.try_next_request();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->body_string(), "abcd");
  EXPECT_EQ(reader.phase(), MessageReader::Phase::kIdle);
}

TEST(ResumableParserTest, PipelinedRequestsParseOneAtATime) {
  auto [unused, feed_end] = net::make_pipe();
  MessageReader reader(*feed_end);

  std::string burst;
  for (int i = 0; i < 3; ++i) {
    Request req;
    req.set_body("r" + std::to_string(i));
    burst += wire_string(req);
  }
  reader.feed(as_bytes(burst));  // one readiness event, three requests

  for (int i = 0; i < 3; ++i) {
    const auto got = reader.try_next_request();
    ASSERT_TRUE(got.has_value()) << "request " << i;
    EXPECT_EQ(got->body_string(), "r" + std::to_string(i));
  }
  EXPECT_FALSE(reader.try_next_request().has_value());
  EXPECT_TRUE(reader.buffer_empty());
}

TEST(ResumableParserTest, BodyLimitRejectsAtHeadParseTime) {
  auto [unused, feed_end] = net::make_pipe();
  ParserLimits limits;
  limits.max_body_bytes = 10;
  MessageReader reader(*feed_end, limits);
  // The head announces a body far past the limit; not one body byte has
  // been fed, yet the parse must already refuse.
  reader.feed(as_bytes("POST / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n"));
  EXPECT_THROW(reader.try_next_request(), ParseError);
}

TEST(ResumableParserTest, MalformedHeadThrowsFromTryNext) {
  auto [unused, feed_end] = net::make_pipe();
  MessageReader reader(*feed_end);
  reader.feed(as_bytes("NONSENSE\r\n\r\n"));
  EXPECT_THROW(reader.try_next_request(), ParseError);
}

// ------------------------------------------------------- the event front

ServerOptions event_options(std::size_t workers = 2, std::size_t runtimes = 2) {
  ServerOptions options;
  options.workers = workers;
  options.runtimes = runtimes;
  return options;
}

Handler echo_handler() {
  return [](const Request& req) {
    Response resp;
    resp.set_body("echo:" + req.body_string());
    return resp;
  };
}

TEST(EventFrontTest, RoundTripAndKeepAlive) {
  Server server(0, echo_handler(), event_options());
  ASSERT_GT(server.port(), 0);

  auto stream = net::TcpStream::connect("127.0.0.1", server.port());
  Client http(*stream);
  for (int i = 0; i < 5; ++i) {
    Request req;
    req.set_body("m" + std::to_string(i));
    const Response resp = http.round_trip(req);
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body_string(), "echo:m" + std::to_string(i));
  }
  server.shutdown();
  EXPECT_GE(server.stats().accepted, 1u);
  EXPECT_GE(server.stats().peak_connections, 1u);
}

TEST(EventFrontTest, PipelinedRequestsAreAnsweredInOrder) {
  Server server(0, echo_handler(), event_options());

  auto stream = net::TcpStream::connect("127.0.0.1", server.port());
  std::string burst;
  for (int i = 0; i < 4; ++i) {
    Request req;
    req.set_body("p" + std::to_string(i));
    burst += wire_string(req);
  }
  stream->write_all(std::string_view{burst});  // all four in one segment

  MessageReader reader(*stream);
  for (int i = 0; i < 4; ++i) {
    const auto resp = reader.read_response();
    ASSERT_TRUE(resp.has_value()) << "response " << i;
    EXPECT_EQ(resp->status, 200);
    EXPECT_EQ(resp->body_string(), "echo:p" + std::to_string(i));
  }
  server.shutdown();
}

// A request head trickling in byte-at-a-time (a slow client, injected
// stalls) must park as parser state between readiness events — it may not
// occupy a worker, and it must still be served once complete.
TEST(EventFrontTest, SlowTrickledRequestHeadIsServed) {
  Server server(0, echo_handler(), event_options(/*workers=*/1, /*runtimes=*/1));

  auto tcp = net::TcpStream::connect("127.0.0.1", server.port());
  auto faults = std::make_shared<net::FaultInjector>();
  net::FaultyStream trickle(*tcp, faults);

  Request req;
  req.set_body("slow");
  const std::string wire = wire_string(req);
  for (const char c : wire) {
    net::FaultSpec stall;
    stall.kind = net::FaultKind::kStall;
    stall.stall_us = 1'000;
    faults->schedule(stall);
    trickle.write_all(&c, 1);  // one stalled byte per write op
  }
  EXPECT_EQ(faults->stats().stalls, wire.size());

  MessageReader reader(*tcp);
  const auto resp = reader.read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body_string(), "echo:slow");
  server.shutdown();
}

// The decoupling claim itself: many live connections on a tiny pool. All
// sixteen connect (and stay connected) before any request is sent — with a
// worker per connection, two workers would park in blocking reads on the
// first two connections and starve the rest.
TEST(EventFrontTest, ConnectionsBeyondWorkerCountAreAllServed) {
  Server server(0, echo_handler(), event_options(/*workers=*/2, /*runtimes=*/2));

  constexpr int kConnections = 16;
  std::vector<std::unique_ptr<net::TcpStream>> streams;
  streams.reserve(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    streams.push_back(net::TcpStream::connect("127.0.0.1", server.port()));
  }

  for (int i = 0; i < kConnections; ++i) {
    Client http(*streams[static_cast<std::size_t>(i)]);
    Request req;
    req.set_body(std::string("c") + std::to_string(i));
    const Response resp = http.round_trip(req);
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body_string(), "echo:c" + std::to_string(i));
  }
  EXPECT_GE(server.stats().peak_connections,
            static_cast<std::uint64_t>(kConnections));
  EXPECT_EQ(server.tracked_connections(), static_cast<std::size_t>(kConnections));
  server.shutdown();
}

TEST(EventFrontTest, MalformedRequestGets400AndClose) {
  Server server(0, echo_handler(), event_options());
  auto stream = net::TcpStream::connect("127.0.0.1", server.port());
  stream->write_all(std::string_view{"THIS IS NOT HTTP\r\n\r\n"});
  MessageReader reader(*stream);
  const auto resp = reader.read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 400);
  EXPECT_EQ(resp->headers.get("Connection").value_or(""), "close");
  // The server hangs up after the 400.
  char byte;
  EXPECT_EQ(stream->read_some(&byte, 1), 0u);
  server.shutdown();
}

TEST(EventFrontTest, HandlerFailuresBecome500s) {
  Server server(0,
                [](const Request& req) -> Response {
                  if (req.body_string() == "std") {
                    throw std::runtime_error("handler exploded");
                  }
                  throw 42;  // non-std exception: counted as a worker error
                },
                event_options());

  auto stream = net::TcpStream::connect("127.0.0.1", server.port());
  Client http(*stream);
  Request req;
  req.set_body("std");
  Response resp = http.round_trip(req);
  EXPECT_EQ(resp.status, 500);
  EXPECT_NE(resp.body_string().find("handler exploded"), std::string::npos);

  auto second = net::TcpStream::connect("127.0.0.1", server.port());
  Client http2(*second);
  Request odd;
  odd.set_body("odd");
  resp = http2.round_trip(odd);
  EXPECT_EQ(resp.status, 500);

  server.shutdown();
  EXPECT_EQ(server.stats().worker_errors, 1u);
}

TEST(EventFrontTest, IdleConnectionsAreReclaimedByTheDeadline) {
  ServerOptions options = event_options(/*workers=*/1, /*runtimes=*/1);
  options.idle_timeout_us = 100'000;
  Server server(0, echo_handler(), options);

  auto silent = net::TcpStream::connect("127.0.0.1", server.port());
  // Say nothing: the idle deadline must drop the connection (EOF here).
  silent->set_read_timeout_us(2'000'000);
  char byte;
  EXPECT_EQ(silent->read_some(&byte, 1), 0u);

  // A well-behaved client on the same server is unaffected.
  auto live = net::TcpStream::connect("127.0.0.1", server.port());
  Client http(*live);
  Request req;
  req.set_body("still here");
  EXPECT_EQ(http.round_trip(req).status, 200);
  server.shutdown();
}

TEST(EventFrontTest, ShutdownIsIdempotentAndDestructorIsClean) {
  Server server(0, echo_handler(), event_options());
  server.shutdown();
  server.shutdown();
  // ~Server runs another shutdown; must be a no-op.
}

// The connection count must not grow for the life of the server: closed
// connections stop being tracked.
TEST(TcpServerTest, ConnectionRegistryIsPruned) {
  ServerOptions options;
  options.workers = 2;
  Server server(0, [](const Request&) { return Response{}; }, options);

  for (int i = 0; i < 10; ++i) {
    auto stream = net::TcpStream::connect("127.0.0.1", server.port());
    Client conn(*stream);
    Request req;
    req.set_body("x");
    req.headers.set("Connection", "close");  // server drops it after the reply
    (void)conn.round_trip(req);
  }
  // After one more connection the count must have shrunk to the few still
  // genuinely alive. The runtimes need a beat to observe the closes, so
  // poll briefly.
  std::size_t tracked = 100;
  for (int spin = 0; spin < 100 && tracked > 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto probe = net::TcpStream::connect("127.0.0.1", server.port());
    Client conn(*probe);
    Request req;
    req.set_body("probe");
    req.headers.set("Connection", "close");
    (void)conn.round_trip(req);
    tracked = server.tracked_connections();
  }
  EXPECT_LE(tracked, 2u);
  server.shutdown();
}

// ------------------------------------------- worker-written responses

/// Polls `pred` for up to ten seconds.
template <typename Pred>
bool eventually(Pred pred) {
  const Stopwatch watch;
  while (!pred()) {
    if (watch.elapsed_ns() >= 10'000'000'000ull) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Holds handler calls until opened; counts the calls that reached it.
class Gate {
 public:
  void wait() {
    std::unique_lock lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  [[nodiscard]] bool await_entered(int n) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return entered_ >= n; });
  }
  void open() {
    std::lock_guard lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

/// Opens a gate on scope exit, so a failed assertion cannot leave a worker
/// parked and the server's shutdown waiting for it forever.
struct OpenOnExit {
  Gate& gate;
  ~OpenOnExit() { gate.open(); }
};

Handler gated_echo_handler(Gate& gate) {
  return [&gate](const Request& req) {
    if (req.body_string() == "block") gate.wait();
    Response resp;
    resp.set_body("echo:" + req.body_string());
    return resp;
  };
}

Bytes patterned_bytes(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * 131 + (i >> 13));
  }
  return out;
}

/// A client socket with a small receive window, so a multi-megabyte
/// response cannot go out in the worker's one gather write.
std::unique_ptr<net::TcpStream> connect_small_window(std::uint16_t port) {
  auto stream = net::TcpStream::connect("127.0.0.1", port);
  const int window = 64 * 1024;
  ::setsockopt(stream->fd(), SOL_SOCKET, SO_RCVBUF, &window, sizeof window);
  return stream;
}

/// Reads through `inner` in small pieces with a pause every few reads: a
/// live but slow peer.
class PacedStream final : public net::Stream {
 public:
  explicit PacedStream(net::Stream& inner) : inner_(inner) {}
  std::size_t read_some(void* buf, std::size_t n) override {
    if (++reads_ % 8 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return inner_.read_some(buf, std::min<std::size_t>(n, 16 * 1024));
  }
  void write_all(const void* buf, std::size_t n) override { inner_.write_all(buf, n); }
  using Stream::write_all;
  void close() override { inner_.close(); }

 private:
  net::Stream& inner_;
  std::size_t reads_ = 0;
};

// A keep-alive connection the server dropped (here by its idle deadline)
// must fail every later call with TransportError. The second call writes
// to a socket the peer has reset: without MSG_NOSIGNAL that raises SIGPIPE
// and the process dies instead of this test failing.
TEST(BrokenPipeTest, CallsOnADroppedKeepAliveConnectionThrowAndTheProcessLives) {
  ServerOptions options = event_options(/*workers=*/1, /*runtimes=*/1);
  options.idle_timeout_us = 20'000;
  Server server(0, echo_handler(), options);

  auto stream = net::TcpStream::connect("127.0.0.1", server.port());
  Client http(*stream);
  Request req;
  req.set_body("first");
  ASSERT_EQ(http.round_trip(req).body_string(), "echo:first");
  ASSERT_TRUE(eventually([&] { return server.tracked_connections() == 0; }));

  EXPECT_THROW((void)http.round_trip(req), TransportError);
  EXPECT_THROW((void)http.round_trip(req), TransportError);

  auto fresh = net::TcpStream::connect("127.0.0.1", server.port());
  Client again(*fresh);
  req.set_body("alive");
  EXPECT_EQ(again.round_trip(req).body_string(), "echo:alive");
  server.shutdown();
}

// From dispatch until its completion is delivered, the worker owns the
// socket's write side. A peer that resets mid-exchange must therefore not
// have its fd closed under the worker: a new connection could take the
// number, and the late response would land on a stranger's socket.
TEST(WorkerWriteTest, PeerResetWhileHandlerBlockedNeverLeaksItsResponse) {
  Gate gate;
  Server server(0, gated_echo_handler(gate),
                event_options(/*workers=*/2, /*runtimes=*/1));
  OpenOnExit release{gate};

  auto doomed = net::TcpStream::connect("127.0.0.1", server.port());
  Request blocked;
  blocked.set_body("block");
  test::write_message(*doomed, blocked);
  ASSERT_TRUE(gate.await_entered(1));
  const linger hard_reset{1, 0};  // close() sends RST, not FIN
  ::setsockopt(doomed->fd(), SOL_SOCKET, SO_LINGER, &hard_reset, sizeof hard_reset);
  doomed->close();
  // Give the shard a moment to see the hangup before the next connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  auto other = net::TcpStream::connect("127.0.0.1", server.port());
  Client http(*other);
  Request mine;
  mine.set_body("mine");
  EXPECT_EQ(http.round_trip(mine).body_string(), "echo:mine");

  gate.open();  // the blocked handler now answers a socket that is gone
  ASSERT_TRUE(eventually([&] { return server.tracked_connections() == 1; }));
  mine.set_body("mine again");
  EXPECT_EQ(http.round_trip(mine).body_string(), "echo:mine again");

  other->close();
  EXPECT_TRUE(eventually([&] { return server.tracked_connections() == 0; }));
  server.shutdown();
}

// A hard shutdown while a handler is blocked shuts the dispatched socket
// down instead of closing it; the worker's late write then fails cleanly
// and the connection is released once the worker is joined.
TEST(WorkerWriteTest, HardShutdownWhileHandlerBlockedFailsTheLateWriteCleanly) {
  Gate gate;
  Server server(0, gated_echo_handler(gate),
                event_options(/*workers=*/1, /*runtimes=*/1));
  OpenOnExit release{gate};

  auto stream = net::TcpStream::connect("127.0.0.1", server.port());
  Request blocked;
  blocked.set_body("block");
  test::write_message(*stream, blocked);
  ASSERT_TRUE(gate.await_entered(1));

  std::thread stopper([&] { server.shutdown(); });
  // Teardown shuts the socket down while the handler is still blocked, so
  // the client sees the connection end (EOF or reset) without a response.
  stream->set_read_timeout_us(10'000'000);
  MessageReader reader(*stream);
  std::optional<Response> response;
  try {
    response = reader.read_response();
  } catch (const TimeoutError&) {
    ADD_FAILURE() << "the dispatched socket was not shut down";
  } catch (const TransportError&) {
  }
  EXPECT_FALSE(response.has_value());

  gate.open();  // the worker writes to a shut-down socket
  stopper.join();
  EXPECT_EQ(server.tracked_connections(), 0u);
}

// An 8 MB response cannot leave in the worker's one gather write: the
// residue drains on POLLOUT, and a slow reader still gets every byte, in
// order, with the connection kept alive afterwards.
TEST(WorkerWriteTest, EightMegabyteResponseReachesASlowReaderByteForByte) {
  const Bytes big = patterned_bytes(8 * 1024 * 1024);
  ServerOptions options = event_options(/*workers=*/1, /*runtimes=*/1);
  options.write_timeout_us = 5'000'000;
  Server server(0,
                [&big](const Request& req) {
                  Response resp;
                  if (req.body_string() == "big") {
                    resp.set_body(Bytes(big));
                  } else {
                    resp.set_body("small");
                  }
                  return resp;
                },
                options);

  auto stream = connect_small_window(server.port());
  stream->set_read_timeout_us(10'000'000);  // a lost residue fails, not hangs
  PacedStream slow(*stream);
  Client http(slow);
  Request req;
  req.set_body("big");
  const Response resp = http.round_trip(req);
  EXPECT_EQ(resp.status, 200);
  ASSERT_EQ(resp.body.size(), big.size());
  EXPECT_TRUE(resp.body.coalesce() == big);

  req.set_body("after");
  EXPECT_EQ(http.round_trip(req).body_string(), "small");
  server.shutdown();
}

// A peer that never reads its response stalls the residue drain; the
// write-progress deadline cuts the connection.
TEST(WorkerWriteTest, PeerThatNeverReadsIsCutByTheWriteTimeout) {
  const Bytes big = patterned_bytes(8 * 1024 * 1024);
  ServerOptions options = event_options(/*workers=*/1, /*runtimes=*/1);
  options.write_timeout_us = 100'000;
  std::atomic<bool> answered{false};
  Server server(0,
                [&](const Request&) {
                  Response resp;
                  resp.set_body(Bytes(big));
                  answered.store(true);
                  return resp;
                },
                options);

  auto stalled = connect_small_window(server.port());
  Request req;
  req.set_body("big");
  test::write_message(*stalled, req);
  ASSERT_TRUE(eventually([&] { return answered.load(); }));
  EXPECT_TRUE(eventually([&] { return server.tracked_connections() == 0; }));
  server.shutdown();
}

// ------------------------------------------------------- the serving pool
//
// The pool's invariants: one owner per connection, at most `workers`
// handlers at once, `runtimes` threads always free to accept, and deadline
// expiry that never acts on a connection its readiness event already took.

// Requests pipelined on one connection run one at a time and are answered
// in order, even with idle handler slots and pool threads to spare.
TEST(ServingPoolTest, PipelinedRequestsNeverOverlapAndAnswerInOrder) {
  std::atomic<int> active{0};
  std::atomic<bool> overlapped{false};
  Server server(0,
                [&](const Request& req) {
                  if (active.fetch_add(1) > 0) overlapped.store(true);
                  std::this_thread::sleep_for(std::chrono::milliseconds(2));
                  active.fetch_sub(1);
                  Response resp;
                  resp.set_body("echo:" + req.body_string());
                  return resp;
                },
                event_options(/*workers=*/4, /*runtimes=*/2));

  auto stream = net::TcpStream::connect("127.0.0.1", server.port());
  constexpr int kRequests = 12;
  // One write per request, so each can arrive as its own readiness event
  // while an earlier one is still running.
  for (int i = 0; i < kRequests; ++i) {
    Request req;
    req.set_body("p" + std::to_string(i));
    test::write_message(*stream, req);
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  stream->set_read_timeout_us(10'000'000);
  MessageReader reader(*stream);
  for (int i = 0; i < kRequests; ++i) {
    const auto resp = reader.read_response();
    ASSERT_TRUE(resp.has_value()) << "response " << i;
    EXPECT_EQ(resp->body_string(), "echo:p" + std::to_string(i));
  }
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(server.stats().peak_in_flight, 1u);
  server.shutdown();
}

// A 32-connection burst against two handler slots: while the handlers are
// held, the rest queue, and neither the live load signal nor the lifetime
// peak ever shows more than `workers` handlers running.
TEST(ServingPoolTest, BurstNeverRunsMoreHandlersThanWorkers) {
  constexpr std::size_t kWorkers = 2;
  constexpr int kClients = 32;
  Gate gate;
  ServerOptions options = event_options(kWorkers, /*runtimes=*/2);
  options.queue_depth = 64;
  Server server(0, gated_echo_handler(gate), options);
  OpenOnExit release{gate};

  std::vector<std::unique_ptr<net::TcpStream>> streams;
  for (int i = 0; i < kClients; ++i) {
    streams.push_back(net::TcpStream::connect("127.0.0.1", server.port()));
    Request req;
    req.set_body("block");
    test::write_message(*streams.back(), req);
  }
  std::size_t most_in_flight = 0;
  const bool all_parsed = eventually([&] {
    const ServerLoad load = server.load();
    most_in_flight = std::max(most_in_flight, load.in_flight);
    return load.queue_depth == kClients - kWorkers && load.in_flight == kWorkers;
  });
  EXPECT_TRUE(all_parsed) << "queue depth " << server.load().queue_depth;
  EXPECT_LE(most_in_flight, kWorkers);
  EXPECT_EQ(server.stats().queue_high_water, static_cast<std::uint64_t>(kClients - kWorkers));

  gate.open();
  for (auto& stream : streams) {
    stream->set_read_timeout_us(10'000'000);
    MessageReader reader(*stream);
    const auto resp = reader.read_response();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 200);
    EXPECT_EQ(resp->body_string(), "echo:block");
  }
  EXPECT_LE(server.stats().peak_in_flight, kWorkers);
  EXPECT_EQ(server.stats().shed, 0u);
  server.shutdown();
}

// With every handler slot blocked, the held-back thread still accepts: a
// new connection's request is queued up to `queue_depth`, and the one past
// it is answered 503 at once.
TEST(ServingPoolTest, BlockedHandlersLeaveAThreadToAcceptQueueAndShed) {
  Gate gate;
  ServerOptions options = event_options(/*workers=*/2, /*runtimes=*/1);
  options.queue_depth = 2;
  Server server(0, gated_echo_handler(gate), options);
  OpenOnExit release{gate};

  const auto send = [&](std::string_view body) {
    auto stream = net::TcpStream::connect("127.0.0.1", server.port());
    stream->set_read_timeout_us(10'000'000);
    Request req;
    req.set_body(std::string(body));
    test::write_message(*stream, req);
    return stream;
  };
  auto first = send("block");
  auto second = send("block");
  ASSERT_TRUE(gate.await_entered(2));

  auto queued_a = send("a");
  ASSERT_TRUE(eventually([&] { return server.load().queue_depth == 1; }));
  auto queued_b = send("b");
  ASSERT_TRUE(eventually([&] { return server.load().queue_depth == 2; }));
  EXPECT_EQ(server.stats().accepted, 4u);

  auto shed = send("c");
  MessageReader shed_reader(*shed);
  const auto refused = shed_reader.read_response();
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->status, 503);
  EXPECT_EQ(server.stats().shed, 1u);

  gate.open();
  for (auto* stream : {first.get(), second.get()}) {
    MessageReader reader(*stream);
    EXPECT_EQ(reader.read_response()->body_string(), "echo:block");
  }
  MessageReader reader_a(*queued_a);
  EXPECT_EQ(reader_a.read_response()->body_string(), "echo:a");
  MessageReader reader_b(*queued_b);
  EXPECT_EQ(reader_b.read_response()->body_string(), "echo:b");
  server.shutdown();
}

// An idle deadline fires on time while the only handler slot is blocked.
// The pool thread that armed the deadline goes on to run the blocking
// handler, so the held-back thread must see a deadline armed after it began
// waiting.
TEST(ServingPoolTest, IdleDeadlineFiresWhileEveryHandlerIsBlocked) {
  Gate gate;
  ServerOptions options = event_options(/*workers=*/1, /*runtimes=*/1);
  options.idle_timeout_us = 100'000;
  Server server(0, gated_echo_handler(gate), options);
  OpenOnExit release{gate};

  auto silent = net::TcpStream::connect("127.0.0.1", server.port());
  auto busy = net::TcpStream::connect("127.0.0.1", server.port());
  Request req;
  req.set_body("block");
  test::write_message(*busy, req);
  ASSERT_TRUE(gate.await_entered(1));

  // Say nothing: the idle deadline must drop the connection (EOF here)
  // before the handler is released.
  silent->set_read_timeout_us(2'000'000);
  char byte;
  EXPECT_EQ(silent->read_some(&byte, 1), 0u);
  gate.open();
  MessageReader reader(*busy);
  EXPECT_EQ(reader.read_response()->body_string(), "echo:block");
  server.shutdown();
}

// An idle deadline racing the next request: the request either gets its
// whole reply, or its connection closes before a single reply byte. Expiry
// and the readiness event never both act on the connection — no crash, no
// double close, and every connection is released.
TEST(ServingPoolTest, IdleDeadlineRacingTheNextRequestEitherAnswersOrCloses) {
  ServerOptions options = event_options(/*workers=*/2, /*runtimes=*/2);
  options.idle_timeout_us = 1'000;
  Server server(0, echo_handler(), options);

  // Sends one request; true when it was answered, false when the
  // connection closed first.
  const auto exchange = [](net::Stream& stream, MessageReader& reader,
                           const std::string& body) {
    Request req;
    req.set_body(std::string(body));
    try {
      test::write_message(stream, req);
      const auto resp = reader.read_response();
      if (!resp.has_value()) return false;
      EXPECT_EQ(resp->status, 200);
      EXPECT_EQ(resp->body_string(), "echo:" + body);
      return true;
    } catch (const TransportError&) {
      // A reset (the server closed with the request unread) is a close,
      // but only before any byte of the reply.
      EXPECT_EQ(reader.phase(), MessageReader::Phase::kIdle) << "partial reply to " << body;
      return false;
    }
  };
  for (int i = 0; i < 200; ++i) {
    auto stream = net::TcpStream::connect("127.0.0.1", server.port());
    stream->set_read_timeout_us(10'000'000);
    MessageReader reader(*stream);
    if (!exchange(*stream, reader, "first" + std::to_string(i))) continue;
    // Sleep around the re-armed deadline, so the next request lands
    // before, at and after it.
    std::this_thread::sleep_for(std::chrono::microseconds((i % 21) * 100));
    (void)exchange(*stream, reader, "next" + std::to_string(i));
  }
  EXPECT_TRUE(eventually([&] { return server.tracked_connections() == 0; }));
  server.shutdown();
}

}  // namespace
}  // namespace sbq::http
