// BufferChain and the zero-copy wire pipeline.
//
// The load-bearing property throughout: the pipeline changes where bytes
// live, never what goes on the wire. A message reads back to the same bytes
// and values no matter how it is segmented; randomized segmentation tests
// enforce that for the chain primitives, the PBIO decoder, and HTTP
// serialization. The PBIO bytes themselves are pinned by
// tests/test_pbio_golden.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <thread>

#include "common/buffer_chain.h"
#include "common/error.h"
#include "core/client.h"
#include "core/message.h"
#include "core/service.h"
#include "core/transports.h"
#include "http/message.h"
#include "http/parser.h"
#include "net/tcp.h"
#include "pbio/encode.h"
#include "pbio/value_codec.h"

namespace sbq {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::TypeKind;
using pbio::Value;

Bytes random_bytes(std::mt19937& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng() & 0xFF);
  return out;
}

/// Splits `data` into a chain at random boundaries, randomly mixing owned
/// and borrowed segments (borrowed ones pinned by a shared copy).
BufferChain random_chain(std::mt19937& rng, BytesView data) {
  BufferChain chain;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t len =
        std::min<std::size_t>(1 + rng() % 1500, data.size() - pos);
    const BytesView piece = data.subspan(pos, len);
    if (rng() % 2 == 0) {
      chain.append(Bytes(piece.begin(), piece.end()));
    } else {
      auto pinned = std::make_shared<Bytes>(piece.begin(), piece.end());
      chain.append_view(BytesView{*pinned}, pinned);
    }
    pos += len;
  }
  return chain;
}

TEST(BufferChain, BasicsAndCoalesce) {
  BufferChain chain;
  EXPECT_TRUE(chain.empty());
  chain.append(Bytes{1, 2, 3});
  chain.append(std::string("abc"));
  const Bytes borrowed{9, 8, 7, 6};
  chain.append_view(BytesView{borrowed});
  EXPECT_EQ(chain.size(), 10u);
  EXPECT_EQ(chain.segment_count(), 3u);
  EXPECT_EQ(chain.bytes_copied(), 0u);

  const Bytes flat = chain.coalesce();
  EXPECT_EQ(flat, (Bytes{1, 2, 3, 'a', 'b', 'c', 9, 8, 7, 6}));
  EXPECT_EQ(chain.bytes_copied(), 10u);  // coalescing is the counted copy
}

TEST(BufferChain, EmptyAppendsAreIgnored) {
  BufferChain chain;
  chain.append(Bytes{});
  chain.append(std::string{});
  chain.append_view(BytesView{});
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(chain.segment_count(), 0u);
}

TEST(BufferChain, SmallStringStorageSurvivesSegmentRelocation) {
  // SSO hazard: views into a moved-in small string must not dangle when the
  // segment vector reallocates (storage lives behind a shared_ptr).
  BufferChain chain;
  chain.append(std::string("tiny"));
  for (int i = 0; i < 100; ++i) chain.append(Bytes{static_cast<std::uint8_t>(i)});
  EXPECT_EQ(chain.segment(0)[0], 't');
  const Bytes flat = chain.coalesce();
  EXPECT_EQ(flat[3], 'y');
}

TEST(BufferChain, SpliceMovesSegmentsWithoutCopying) {
  BufferChain head;
  head.append(Bytes{1, 2});
  BufferChain tail;
  tail.append(Bytes{3, 4});
  tail.append(Bytes{5});
  head.append(std::move(tail));
  EXPECT_EQ(head.size(), 5u);
  EXPECT_EQ(head.segment_count(), 3u);
  EXPECT_EQ(head.bytes_copied(), 0u);
  EXPECT_TRUE(tail.empty());  // NOLINT(bugprone-use-after-move): documented
  EXPECT_EQ(head.coalesce(), (Bytes{1, 2, 3, 4, 5}));
}

TEST(BufferChain, ShareSuffixSplitsMidSegment) {
  BufferChain chain;
  chain.append(Bytes{0, 1, 2, 3});
  chain.append(Bytes{4, 5, 6});
  const BufferChain suffix = chain.share_suffix(2);
  EXPECT_EQ(suffix.size(), 5u);
  EXPECT_EQ(suffix.coalesce(), (Bytes{2, 3, 4, 5, 6}));
  const BufferChain at_boundary = chain.share_suffix(4);
  EXPECT_EQ(at_boundary.coalesce(), (Bytes{4, 5, 6}));
  EXPECT_TRUE(chain.share_suffix(7).empty());
  EXPECT_THROW((void)chain.share_suffix(8), CodecError);
}

TEST(BufferChain, SharedSegmentsOutliveTheSource) {
  BufferChain shared;
  {
    BufferChain source;
    source.append(Bytes{7, 7, 7});
    shared.append_shared(source);
  }  // source destroyed; storage must survive via the shared anchor
  EXPECT_EQ(shared.coalesce(), (Bytes{7, 7, 7}));
}

TEST(ChainWriter, StagesSmallWritesAndBorrowsLargeBlocks) {
  BufferChain chain;
  const Bytes big(2048, 0xAB);
  {
    ChainWriter writer(chain);
    writer.append_u32(0xDEADBEEF, ByteOrder::kLittle);
    writer.append_block(BytesView{big});
    writer.append_u8(0x7F);
  }  // destructor flushes the trailing staged byte
  ASSERT_EQ(chain.segment_count(), 3u);  // staged | borrowed | staged
  EXPECT_EQ(chain.segment(1).data(), big.data());  // truly borrowed, no copy
  EXPECT_EQ(chain.size(), 4u + 2048u + 1u);

  ByteBuffer flat;
  flat.append_u32(0xDEADBEEF, ByteOrder::kLittle);
  flat.append(BytesView{big});
  flat.append_u8(0x7F);
  EXPECT_EQ(chain.coalesce(), flat.take());
}

TEST(ChainWriter, SmallBlocksAreStagedNotScattered) {
  BufferChain chain;
  {
    ChainWriter writer(chain);
    writer.append_u16(7, ByteOrder::kLittle);
    writer.append_block(Bytes{1, 2, 3});  // below threshold
    writer.append_u16(8, ByteOrder::kLittle);
  }
  EXPECT_EQ(chain.segment_count(), 1u);
  EXPECT_EQ(chain.size(), 7u);
}

TEST(ChainWriter, ExtendWritesStagedBytesInPlace) {
  BufferChain chain;
  ByteBuffer flat;
  {
    ChainWriter writer(chain);
    writer.append_u8(1);
    std::uint8_t* chained = writer.extend(3);
    std::uint8_t* plain = flat.extend(3);
    for (std::uint8_t i = 0; i < 3; ++i) chained[i] = plain[i] = 10 + i;
    writer.append_u8(2);
  }
  EXPECT_EQ(chain.segment_count(), 1u);
  EXPECT_EQ(chain.coalesce(), (Bytes{1, 10, 11, 12, 2}));
  EXPECT_EQ(flat.take(), (Bytes{10, 11, 12}));
}

TEST(ChainReader, ScalarsAcrossSegmentBoundaries) {
  // A u32 split 1|3 across segments must read as if contiguous.
  BufferChain chain;
  chain.append(Bytes{0x78});
  chain.append(Bytes{0x56, 0x34, 0x12, 0xFF});
  ChainReader reader(chain);
  EXPECT_EQ(reader.read_u32(ByteOrder::kLittle), 0x12345678u);
  EXPECT_EQ(reader.read_u8(), 0xFFu);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_THROW(reader.read_u8(), CodecError);
}

TEST(ChainReader, ReadViewIsZeroCopyWithinOneSegment) {
  BufferChain chain;
  const Bytes seg{1, 2, 3, 4, 5, 6};
  chain.append_view(BytesView{seg});
  chain.append(Bytes{7, 8});
  ChainReader reader(chain);
  const BytesView in_segment = reader.read_view(4);
  EXPECT_EQ(in_segment.data(), seg.data());  // no copy
  EXPECT_EQ(reader.bytes_copied(), 0u);
  const BytesView crossing = reader.read_view(4);  // 5,6 | 7,8 → scratch
  EXPECT_EQ(crossing.size(), 4u);
  EXPECT_EQ(crossing[0], 5);
  EXPECT_EQ(crossing[3], 8);
  EXPECT_EQ(reader.bytes_copied(), 4u);
}

TEST(ChainReader, RandomSegmentationRoundTripsByteIdentical) {
  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes data = random_bytes(rng, 1 + rng() % 20000);
    const BufferChain chain = random_chain(rng, BytesView{data});
    ASSERT_EQ(chain.size(), data.size());
    EXPECT_EQ(chain.coalesce(), data);

    ChainReader reader(chain);
    Bytes back(data.size());
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t n = std::min<std::size_t>(1 + rng() % 700,
                                                  data.size() - pos);
      reader.read_raw(back.data() + pos, n);
      pos += n;
    }
    EXPECT_TRUE(reader.exhausted());
    EXPECT_EQ(back, data);
  }
}

// --- PBIO over chains ------------------------------------------------------

FormatPtr rich_format() {
  auto inner = FormatBuilder("inner")
                   .add_scalar("id", TypeKind::kUInt64)
                   .add_string("tag")
                   .build();
  return FormatBuilder("rich")
      .add_scalar("v", TypeKind::kInt32)
      .add_string("name")
      .add_var_array("pixels", TypeKind::kChar)   // bulk block → borrowed
      .add_fixed_array("pad", TypeKind::kChar, 16)
      .add_var_array("samples", TypeKind::kFloat64)
      .add_struct("meta", inner)
      .build();
}

Value rich_value(std::size_t pixel_count) {
  std::string pixels(pixel_count, '\0');
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    pixels[i] = static_cast<char>(i * 31 + 7);
  }
  Value samples = Value::empty_array();
  for (int i = 0; i < 9; ++i) samples.push_back(Value{i * 1.5});
  Value v = Value::empty_record();
  v.set_field("v", Value{-42});
  v.set_field("name", Value{std::string("m31_field")});
  v.set_field("pixels", Value{std::move(pixels)});
  v.set_field("pad", Value{std::string(16, 'p')});
  v.set_field("samples", std::move(samples));
  Value meta = Value::empty_record();
  meta.set_field("id", Value{std::uint64_t{0xFEEDFACE}});
  meta.set_field("tag", Value{std::string("edge")});
  v.set_field("meta", std::move(meta));
  return v;
}

/// Checks `message` against its own header: the header is one segment of
/// its own, names `format` and `order`, and its payload length covers the
/// rest of the chain exactly; the message decodes back to `value`.
void expect_well_framed(const BufferChain& message, const Value& value,
                        const pbio::FormatDesc& format, ByteOrder order) {
  ASSERT_GE(message.segment_count(), 1u);
  EXPECT_EQ(message.segment(0).size(), pbio::WireHeader::kSize);
  ChainReader reader(message);
  const pbio::WireHeader header = pbio::read_header(reader);
  EXPECT_EQ(header.format_id, format.format_id());
  EXPECT_EQ(header.sender_order, order);
  EXPECT_EQ(header.payload_length + pbio::WireHeader::kSize, message.size());
  EXPECT_TRUE(pbio::decode_value_payload(reader, header.payload_length, order, format) ==
              value);
}

TEST(PbioChain, ValueMessageChainMatchesFlatEncoding) {
  const FormatPtr format = rich_format();
  for (const std::size_t pixels : {std::size_t{0}, std::size_t{64},
                                   std::size_t{100000}}) {
    const Value value = rich_value(pixels);
    const BufferChain chain = pbio::encode_value_message_chain(value, *format);
    SCOPED_TRACE("pixels=" + std::to_string(pixels));
    expect_well_framed(chain, value, *format, host_byte_order());
  }
}

TEST(PbioChain, ForeignOrderChainMatchesFlatEncoding) {
  const FormatPtr format = rich_format();
  const Value value = rich_value(5000);
  const ByteOrder foreign = host_byte_order() == ByteOrder::kLittle
                                ? ByteOrder::kBig
                                : ByteOrder::kLittle;
  const BufferChain chain =
      pbio::encode_value_message_chain(value, *format, foreign);
  expect_well_framed(chain, value, *format, foreign);
}

TEST(PbioChain, BulkBlocksBorrowFromTheValue) {
  const FormatPtr format = rich_format();
  const Value value = rich_value(100000);
  const BufferChain chain = pbio::encode_value_message_chain(value, *format);
  const std::uint8_t* pixel_bytes = reinterpret_cast<const std::uint8_t*>(
      value.field("pixels").as_string().data());
  bool found_borrowed = false;
  for (BytesView segment : chain) {
    if (segment.data() == pixel_bytes) found_borrowed = true;
  }
  EXPECT_TRUE(found_borrowed) << "pixel block was copied, not borrowed";
  EXPECT_EQ(chain.bytes_copied(), 0u);
}

TEST(PbioChain, ChainDecodeEqualsFlatDecodeUnderRandomSegmentation) {
  const FormatPtr format = rich_format();
  const Value value = rich_value(30000);
  const Bytes flat = pbio::encode_value_message_chain(value, *format).coalesce();
  const Value flat_decoded = pbio::decode_value_message(BytesView{flat}, *format);

  std::mt19937 rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const BufferChain chain = random_chain(rng, BytesView{flat});
    ChainReader reader(chain);
    const pbio::WireHeader header = pbio::read_header(reader);
    const Value decoded = pbio::decode_value_payload(
        reader, header.payload_length, header.sender_order, *format);
    EXPECT_TRUE(decoded == flat_decoded);
  }
}

// --- envelope over chains --------------------------------------------------

TEST(CoreChain, BinMessageChainMatchesFlatAndDecodesBack) {
  core::BinEnvelope envelope;
  envelope.operation = "getImage";
  envelope.message_type = "half_image";
  envelope.timestamp_us = 123456;
  envelope.echoed_timestamp_us = 111;
  envelope.server_prep_us = 222;
  envelope.reported_rtt_us = 875.5;

  const FormatPtr format = rich_format();
  const Value value = rich_value(40000);
  const Bytes flat_pbio = pbio::encode_value_message_chain(value, *format).coalesce();

  BufferChain pbio_chain = pbio::encode_value_message_chain(value, *format);
  const BufferChain chain =
      core::encode_bin_message(envelope, std::move(pbio_chain));
  // The reference is the envelope layout written out field by field
  // (core/message.h), followed by the PBIO message.
  ByteBuffer expected;
  expected.append_u16(8, ByteOrder::kLittle);
  expected.append(std::string_view{"getImage"});
  expected.append_u16(10, ByteOrder::kLittle);
  expected.append(std::string_view{"half_image"});
  expected.append_u64(123456, ByteOrder::kLittle);
  expected.append_u64(111, ByteOrder::kLittle);
  expected.append_u64(222, ByteOrder::kLittle);
  expected.append_f64(875.5, ByteOrder::kLittle);
  expected.append(BytesView{flat_pbio});
  EXPECT_EQ(chain.coalesce(), expected.take());

  const core::DecodedBinChain decoded = core::decode_bin_message(chain);
  EXPECT_EQ(decoded.envelope.operation, "getImage");
  EXPECT_EQ(decoded.envelope.message_type, "half_image");
  EXPECT_EQ(decoded.envelope.timestamp_us, 123456u);
  EXPECT_EQ(decoded.envelope.reported_rtt_us, 875.5);
  EXPECT_EQ(decoded.pbio_message.coalesce(), flat_pbio);
}

// --- HTTP over chains ------------------------------------------------------

/// In-memory Stream capturing everything written (and serving reads).
class MemoryStream final : public net::Stream {
 public:
  std::size_t read_some(void* buf, std::size_t n) override {
    const std::size_t take = std::min(n, incoming.size() - read_pos_);
    std::memcpy(buf, incoming.data() + read_pos_, take);
    read_pos_ += take;
    return take;
  }
  void write_all(const void* buf, std::size_t n) override {
    const auto* p = static_cast<const std::uint8_t*>(buf);
    written.insert(written.end(), p, p + n);
  }
  void close() override {}

  Bytes incoming;
  Bytes written;

 private:
  std::size_t read_pos_ = 0;
};

TEST(HttpChain, WriteChainEqualsSerializeForRandomMessages) {
  std::mt19937 rng(31);
  for (int trial = 0; trial < 16; ++trial) {
    http::Request request;
    request.target = "/svc" + std::to_string(rng() % 10);
    request.headers.set("X-Trial", std::to_string(trial));
    const Bytes payload = random_bytes(rng, rng() % 5000);
    if (rng() % 2 == 0) {
      request.set_body(Bytes(payload));
    } else {
      request.body = random_chain(rng, BytesView{payload});
    }
    ByteBuffer expected;
    expected.append(std::string_view{"POST " + request.target + " HTTP/1.1\r\n"});
    expected.append(std::string_view{"X-Trial: " + std::to_string(trial) + "\r\n"});
    expected.append(std::string_view{"Content-Length: " + std::to_string(payload.size()) +
                                     "\r\n\r\n"});
    expected.append(BytesView{payload});
    const Bytes flat = expected.take();

    MemoryStream stream;
    BufferChain wire;
    request.serialize_to(wire);
    EXPECT_EQ(wire.size(), flat.size());
    stream.write_chain(wire);
    EXPECT_EQ(stream.written, flat);
  }
}

TEST(HttpChain, ChainBodiedResponseParsesBack) {
  std::mt19937 rng(17);
  const Bytes payload = random_bytes(rng, 20000);
  http::Response response;
  response.headers.set("Content-Type", "application/octet-stream");
  response.body = random_chain(rng, BytesView{payload});
  EXPECT_EQ(response.body.size(), payload.size());

  MemoryStream stream;
  BufferChain wire;
  response.serialize_to(wire);
  stream.write_chain(wire);
  stream.incoming = stream.written;

  http::MessageReader reader(stream);
  const auto parsed = reader.read_response();
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->body.segment_count(), 1u);  // read as one owned segment
  EXPECT_EQ(parsed->body.coalesce(), payload);
  EXPECT_EQ(reader.bytes_consumed(), stream.written.size());
}

TEST(HttpChain, TcpWriteChainDeliversAllSegments) {
  std::mt19937 rng(23);
  const Bytes payload = random_bytes(rng, 300000);
  BufferChain chain = random_chain(rng, BytesView{payload});

  net::TcpListener listener(0);
  Bytes received;
  std::thread server([&] {
    auto conn = listener.accept();
    ASSERT_NE(conn, nullptr);
    std::uint8_t buf[8192];
    for (;;) {
      const std::size_t n = conn->read_some(buf, sizeof buf);
      if (n == 0) break;
      received.insert(received.end(), buf, buf + n);
    }
  });
  auto client = net::TcpStream::connect("127.0.0.1", listener.port());
  client->write_chain(chain);
  client->close();
  server.join();
  EXPECT_EQ(received, payload);
}

// --- end to end -----------------------------------------------------------

FormatPtr blob_format() {
  return FormatBuilder("blob")
      .add_scalar("v", TypeKind::kInt32)
      .add_var_array("data", TypeKind::kChar)
      .build();
}

struct PipelineEnv {
  std::shared_ptr<pbio::FormatServer> format_server =
      std::make_shared<pbio::FormatServer>();
  std::shared_ptr<net::SimClock> clock = std::make_shared<net::SimClock>();
  core::ServiceRuntime runtime{format_server, clock};
  net::LinkModel link{net::lan_100mbps()};
  core::SimLinkTransport transport{runtime, link, clock};
  wsdl::ServiceDesc svc;

  PipelineEnv() {
    runtime.register_operation("echo", blob_format(), blob_format(),
                               [](const Value& v) { return v; });
    transport.set_charge_server_cpu(false);
    svc.name = "Echo";
    svc.operations.push_back(
        wsdl::OperationDesc{"echo", blob_format(), blob_format()});
  }
};

// One binary round trip through the stub, the simulated link, and the
// runtime: the decoded value matches the request, and the counted copies at
// both endpoints stay far below the payload — the chain threads borrowed
// segments through every layer instead of splicing the payload.
TEST(ChainPipeline, RoundTripCopiesLessThanThePayload) {
  constexpr std::size_t kPayload = 200000;
  const Value params =
      Value::record({{"v", 3}, {"data", std::string(kPayload, 'z')}});

  PipelineEnv env;
  core::ClientStub client(env.transport, core::WireFormat::kBinary, env.svc,
                          env.format_server, env.clock);
  const Value result = client.call("echo", params);

  EXPECT_TRUE(result == params);
  const std::uint64_t copied =
      client.stats().bytes_copied + env.runtime.stats().bytes_copied;
  EXPECT_LT(copied, kPayload);
  EXPECT_GT(client.stats().segments_written, 1u);
}

}  // namespace
}  // namespace sbq
