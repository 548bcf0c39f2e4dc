// Fuzz-smoke tests: every parser in the stack is fed random bytes and
// random mutations of valid inputs. The contract is uniform — parse
// successfully or throw an sbq::Error subclass; never crash, never hang,
// never return partially-initialized garbage that trips later code.
//
// (These are deterministic seeded sweeps, not coverage-guided fuzzing; they
// exist to keep the "malformed input ⇒ clean exception" property locked in.)
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <tuple>

#include "common/base64.h"
#include "common/rng.h"
#include "compress/lzss.h"
#include "core/message.h"
#include "http/parser.h"
#include "net/pipe.h"
#include "pbio/encode.h"
#include "pbio/plan.h"
#include "pbio/value_codec.h"
#include "qos/quality_file.h"
#include "soap/codec.h"
#include "soap/envelope.h"
#include "support/http_wire.h"
#include "support/wire.h"
#include "wsdl/wsdl.h"
#include "xml/reader.h"

// The largest single operator-new request since a test last reset it: lets
// a test show that an untrusted element count allocated nothing for itself.
static std::atomic<std::size_t> g_largest_allocation{0};

// Out of line, so the compiler does not pair an inlined malloc with a
// caller's delete expression.
[[gnu::noinline]] void* operator new(std::size_t n) {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_allocation.compare_exchange_weak(seen, n)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sbq {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.next_below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

/// Applies `count` random byte-level mutations (overwrite, insert, delete).
std::string mutate(Rng& rng, std::string input, int count) {
  for (int i = 0; i < count && !input.empty(); ++i) {
    const std::size_t pos = rng.next_below(input.size());
    switch (rng.next_below(3)) {
      case 0:
        input[pos] = static_cast<char>(rng.next_below(256));
        break;
      case 1:
        input.insert(pos, 1, static_cast<char>(rng.next_below(256)));
        break;
      default:
        input.erase(pos, 1);
        break;
    }
  }
  return input;
}

/// Reads `doc` to its end; throws XmlError if it is malformed.
void read_whole(std::string_view doc) {
  xml::Reader reader(doc);
  while (reader.next() != xml::Reader::Token::kEndOfDocument) {
  }
}

class FuzzSeeds : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17};
};

TEST_P(FuzzSeeds, XmlParserSurvivesRandomBytes) {
  for (int i = 0; i < 50; ++i) {
    const Bytes junk = random_bytes(rng_, 300);
    try {
      read_whole(to_string(BytesView{junk}));
    } catch (const Error&) {
      // expected for nearly every input
    }
  }
}

TEST_P(FuzzSeeds, XmlParserSurvivesMutatedDocuments) {
  const std::string valid =
      "<?xml version=\"1.0\"?><env a=\"1\"><body><x>12</x>"
      "<!-- c --><![CDATA[raw]]><y z='2'/>&amp;</body></env>";
  for (int i = 0; i < 60; ++i) {
    const std::string doc = mutate(rng_, valid, 1 + static_cast<int>(rng_.next_below(6)));
    try {
      read_whole(doc);
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeeds, SoapEnvelopeSurvivesMutation) {
  const std::string valid = soap::build_fault("soap:Server", "x");
  for (int i = 0; i < 40; ++i) {
    try {
      const auto env = soap::parse_envelope(mutate(rng_, valid, 3));
      (void)env.operation();
    } catch (const Error&) {
    }
  }
}

// The streaming SOAP receive path, parse_envelope + decode_body, fed an
// xml_struct-shaped envelope (a depth-3 tree of records) and an int-array
// envelope.
pbio::FormatPtr soap_tree_format(int depth) {
  pbio::FormatPtr format = pbio::FormatBuilder("leaf")
                               .add_scalar("account", pbio::TypeKind::kInt32)
                               .add_scalar("balance", pbio::TypeKind::kFloat64)
                               .add_string("holder")
                               .build();
  for (int level = 0; level < depth; ++level) {
    format = pbio::FormatBuilder("level" + std::to_string(level))
                 .add_scalar("id", pbio::TypeKind::kInt32)
                 .add_struct("left", format)
                 .add_struct("right", format)
                 .build();
  }
  return format;
}

pbio::Value soap_tree_value(int depth) {
  if (depth == 0) {
    return pbio::Value::record(
        {{"account", 123456}, {"balance", 1023.75}, {"holder", "J. <Doe> & co"}});
  }
  pbio::Value child = soap_tree_value(depth - 1);
  return pbio::Value::record({{"id", depth}, {"left", child}, {"right", child}});
}

pbio::FormatPtr soap_int_array_format() {
  return pbio::FormatBuilder("int_array")
      .add_var_array("values", pbio::TypeKind::kInt32)
      .add_fixed_array("tag", pbio::TypeKind::kChar, 4)
      .build();
}

pbio::Value soap_int_array_value() {
  pbio::Value values = pbio::Value::empty_array();
  for (int i = 0; i < 24; ++i) values.push_back(i * 7919 - 50000);
  return pbio::Value::record({{"values", std::move(values)}, {"tag", "ABCD"}});
}

struct SoapFuzzTarget {
  std::string name;
  pbio::FormatPtr format;
  pbio::Value value;  // what the envelope carries; null for the fault
  std::string envelope;
};

constexpr std::string_view kFuzzFaultCode = "soap:Server";
constexpr std::string_view kFuzzFaultString = "disk <full> & \"busy\"";

std::vector<SoapFuzzTarget> soap_fuzz_targets() {
  std::vector<SoapFuzzTarget> targets;
  for (auto [name, format, value] :
       {std::tuple{"tree", soap_tree_format(3), soap_tree_value(3)},
        std::tuple{"int_array", soap_int_array_format(), soap_int_array_value()}}) {
    std::string envelope = soap::build_request("echo", value, *format);
    targets.push_back({name, format, value, std::move(envelope)});
  }
  targets.push_back({"fault", soap_int_array_format(), pbio::Value(),
                     soap::build_fault(kFuzzFaultCode, kFuzzFaultString)});
  return targets;
}

/// Parses and decodes a SOAP body the way the client and the service do.
void decode_soap(std::string text, const pbio::FormatDesc& format) {
  const soap::ParsedEnvelope envelope = soap::parse_envelope(std::move(text));
  if (envelope.is_fault()) {
    (void)soap::parse_fault(envelope);
  } else {
    (void)soap::decode_body(envelope, format);
  }
}

TEST_P(FuzzSeeds, SoapBodyDecodeSurvivesRandomAndMutatedEnvelopes) {
  for (const SoapFuzzTarget& target : soap_fuzz_targets()) {
    for (int i = 0; i < 30; ++i) {
      const Bytes junk = random_bytes(rng_, 300);
      try {
        decode_soap(to_string(BytesView{junk}), *target.format);
      } catch (const Error&) {
      }
      // A valid head followed by junk reaches deeper into the decoder.
      const std::size_t cut = rng_.next_below(target.envelope.size());
      try {
        decode_soap(target.envelope.substr(0, cut) + to_string(BytesView{junk}),
                    *target.format);
      } catch (const Error&) {
      }
    }
    for (int i = 0; i < 60; ++i) {
      try {
        decode_soap(mutate(rng_, target.envelope, 1 + static_cast<int>(rng_.next_below(8))),
                    *target.format);
      } catch (const Error&) {
      }
    }
  }
}

TEST_P(FuzzSeeds, WsdlParserSurvivesMutation) {
  const std::string valid = R"(<definitions name="S">
    <types><schema><complexType name="t"><sequence>
      <element name="a" type="int"/><element name="b" type="string"/>
    </sequence></complexType></schema></types>
    <message name="io"><part name="p" type="t"/></message>
    <portType name="P"><operation name="op">
      <input message="io"/><output message="io"/>
    </operation></portType></definitions>)";
  for (int i = 0; i < 30; ++i) {
    try {
      (void)wsdl::parse_wsdl(mutate(rng_, valid, 4));
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeeds, HttpParserSurvivesRandomBytes) {
  for (int i = 0; i < 25; ++i) {
    auto [a, b] = net::make_pipe();
    Bytes junk = random_bytes(rng_, 400);
    a->write_all(BytesView{junk});
    a->close();
    http::MessageReader reader(*b);
    try {
      while (reader.read_request()) {
      }
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeeds, HttpParserSurvivesMutatedRequests) {
  http::Request valid;
  valid.method = "POST";
  valid.target = "/svc";
  valid.headers.set("Content-Type", "text/xml");
  valid.set_body("<e/>");
  const std::string wire = to_string(BytesView{test::http_wire(valid)});
  for (int i = 0; i < 40; ++i) {
    auto [a, b] = net::make_pipe();
    a->write_all(mutate(rng_, wire, 1 + static_cast<int>(rng_.next_below(4))));
    a->close();
    http::MessageReader reader(*b);
    try {
      while (reader.read_request()) {
      }
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeeds, PbioDecoderSurvivesRandomAndMutatedMessages) {
  const auto format = pbio::FormatBuilder("fz")
                          .add_scalar("a", pbio::TypeKind::kInt32)
                          .add_string("s")
                          .add_var_array("v", pbio::TypeKind::kFloat64)
                          .build();
  const pbio::Value v = pbio::Value::record(
      {{"a", 1}, {"s", "text"}, {"v", pbio::Value::array({1.0, 2.0})}});
  const Bytes valid = test::value_wire(v, *format);

  for (int i = 0; i < 60; ++i) {
    Bytes wire = valid;
    const int mutations = 1 + static_cast<int>(rng_.next_below(5));
    for (int m = 0; m < mutations && !wire.empty(); ++m) {
      wire[rng_.next_below(wire.size())] =
          static_cast<std::uint8_t>(rng_.next_below(256));
    }
    try {
      (void)pbio::decode_value_message(BytesView{wire}, *format);
    } catch (const Error&) {
    }
  }
  for (int i = 0; i < 30; ++i) {
    const Bytes junk = random_bytes(rng_, 200);
    try {
      (void)pbio::decode_value_message(BytesView{junk}, *format);
    } catch (const Error&) {
    }
  }
}

// The native decoder (compiled plans) under the same contract, for two
// receivers: one equal to the sender (block-copy fast paths) and one that
// drops a field and reorders the rest (skip and by-name matching paths).
class NativeDecodeTarget {
 public:
  NativeDecodeTarget() {
    const auto point = pbio::FormatBuilder("pt")
                           .add_scalar("x", pbio::TypeKind::kFloat64)
                           .add_scalar("n", pbio::TypeKind::kInt32)
                           .build();
    sender_ = pbio::FormatBuilder("nf")
                  .add_scalar("a", pbio::TypeKind::kInt32)
                  .add_string("s")
                  .add_var_array("v", pbio::TypeKind::kFloat64)
                  .add_struct("c", point)
                  .add_struct_var_array("pts", point)
                  .build();
    receivers_ = {sender_, pbio::FormatBuilder("nf")
                               .add_struct("c", point)
                               .add_var_array("v", pbio::TypeKind::kFloat64)
                               .add_string("s")
                               .add_scalar("a", pbio::TypeKind::kInt32)
                               .build()};
    const pbio::Value point_value = pbio::Value::record({{"x", 0.5}, {"n", 3}});
    valid_ = test::value_wire(
        pbio::Value::record({{"a", 7},
                             {"s", "text"},
                             {"v", pbio::Value::array({1.5, 2.5})},
                             {"c", point_value},
                             {"pts", pbio::Value::array({point_value, point_value})}}),
        *sender_);
  }

  [[nodiscard]] const Bytes& valid() const { return valid_; }
  [[nodiscard]] const pbio::FormatDesc& sender() const { return *sender_; }

  /// Decodes `wire` for every receiver and returns how many accepted it;
  /// the rest must have thrown an sbq::Error (anything else escapes).
  int decode_all(BytesView wire) {
    int decoded = 0;
    for (const pbio::FormatPtr& receiver : receivers_) {
      Arena arena;
      try {
        (void)pbio::decode_message(wire, sender_, receiver, plans_, arena);
        ++decoded;
      } catch (const Error&) {
      }
    }
    return decoded;
  }

 private:
  pbio::FormatPtr sender_;
  std::vector<pbio::FormatPtr> receivers_;
  pbio::PlanCache plans_;
  Bytes valid_;
};

TEST_P(FuzzSeeds, PbioNativeDecoderSurvivesRandomAndMutatedMessages) {
  NativeDecodeTarget target;
  ASSERT_EQ(target.decode_all(BytesView{target.valid()}), 2);
  for (int i = 0; i < 60; ++i) {
    Bytes wire = target.valid();
    const int mutations = 1 + static_cast<int>(rng_.next_below(5));
    for (int m = 0; m < mutations; ++m) {
      wire[rng_.next_below(wire.size())] =
          static_cast<std::uint8_t>(rng_.next_below(256));
    }
    (void)target.decode_all(BytesView{wire});
  }
  for (int i = 0; i < 30; ++i) {
    (void)target.decode_all(BytesView{random_bytes(rng_, 200)});
  }
  // A well-formed header over a random payload reaches the plan itself.
  for (int i = 0; i < 60; ++i) {
    const Bytes payload = random_bytes(rng_, 120);
    ByteBuffer wire;
    wire.append_u64(target.sender().format_id(), ByteOrder::kLittle);
    wire.append_u8(static_cast<std::uint8_t>(rng_.next_below(2)));
    wire.append_u32(static_cast<std::uint32_t>(payload.size()), ByteOrder::kLittle);
    wire.append(BytesView{payload});
    (void)target.decode_all(wire.view());
  }
}

// The Value decoder under the same contract, into the sender's own format
// and into a receiver that drops a field and reverses the rest (skip and
// by-name matching paths), each over a payload held in one segment and over
// one cut into 7-byte segments so blocks straddle them. Payloads come in
// both byte orders, so the byte-swapping loops are swept too.
class ValueDecodeTarget {
 public:
  ValueDecodeTarget() {
    const auto point = pbio::FormatBuilder("pt")
                           .add_scalar("x", pbio::TypeKind::kFloat64)
                           .add_scalar("n", pbio::TypeKind::kInt32)
                           .build();
    format_ = pbio::FormatBuilder("vf")
                  .add_scalar("a", pbio::TypeKind::kInt32)
                  .add_string("s")
                  .add_var_array("i32", pbio::TypeKind::kInt32)
                  .add_var_array("i64", pbio::TypeKind::kInt64)
                  .add_fixed_array("u32", pbio::TypeKind::kUInt32, 2)
                  .add_var_array("u64", pbio::TypeKind::kUInt64)
                  .add_fixed_array("f32", pbio::TypeKind::kFloat32, 3)
                  .add_var_array("f64", pbio::TypeKind::kFloat64)
                  .add_var_array("blob", pbio::TypeKind::kChar)
                  .add_struct_var_array("pts", point)
                  .build();
    // Without `pts`, whose records the receiver's plan skips unread.
    receiver_ = pbio::FormatBuilder("vf")
                    .add_var_array("blob", pbio::TypeKind::kChar)
                    .add_var_array("f64", pbio::TypeKind::kFloat64)
                    .add_fixed_array("f32", pbio::TypeKind::kFloat32, 3)
                    .add_var_array("u64", pbio::TypeKind::kUInt64)
                    .add_fixed_array("u32", pbio::TypeKind::kUInt32, 2)
                    .add_var_array("i64", pbio::TypeKind::kInt64)
                    .add_var_array("i32", pbio::TypeKind::kInt32)
                    .add_string("s")
                    .add_scalar("a", pbio::TypeKind::kInt32)
                    .build();
    const pbio::Value point_value = pbio::Value::record({{"x", 0.5}, {"n", 3}});
    const pbio::Value value = pbio::Value::record(
        {{"a", 7},
         {"s", "text"},
         {"i32", pbio::Value::array({-1, 2, 3})},
         {"i64", pbio::Value::array({std::int64_t{1} << 40})},
         {"u32", pbio::Value::array({5u, 6u})},
         {"u64", pbio::Value::array({7u, 8u})},
         {"f32", pbio::Value::array({0.5, 1.5, 2.5})},
         {"f64", pbio::Value::array({1.25, 2.5})},
         {"blob", "xyz"},
         {"pts", pbio::Value::array({point_value, point_value})}});
    pbio::PlanCache plans;
    for (const ByteOrder order : {ByteOrder::kLittle, ByteOrder::kBig}) {
      const Bytes message = test::value_wire(value, *format_, order);
      valid_.emplace_back(message.begin() + pbio::WireHeader::kSize, message.end());
      to_receiver_[static_cast<int>(order)] = plans.get(format_, receiver_, order);
    }
  }

  /// The valid payload in each byte order, little-endian first.
  [[nodiscard]] const std::vector<Bytes>& valid() const { return valid_; }

  /// Decodes `payload` into the sender's format and into the receiver's,
  /// each from one segment and from 7-byte segments, and returns how many
  /// of the four accepted it; the rest must have thrown CodecError. Both
  /// formats accept the same payloads, and accepted decodes agree: the
  /// receiver's is the projection of the sender's. They are compared as
  /// re-encoded bytes, since a flipped bit can make a NaN, which never
  /// compares equal.
  int decode_all(BytesView payload, ByteOrder order) const {
    BufferChain whole = BufferChain::borrowing(payload);
    BufferChain chain;
    for (std::size_t at = 0; at < payload.size(); at += 7) {
      chain.append_view(payload.subspan(at, std::min<std::size_t>(7, payload.size() - at)));
    }
    std::optional<pbio::Value> own[2];  // [segmented]
    std::optional<pbio::Value> received[2];
    int accepted = 0;
    for (const int segmented : {0, 1}) {
      const BufferChain& source = segmented != 0 ? chain : whole;
      try {
        ChainReader reader(source);
        own[segmented] = pbio::decode_value_payload(reader, payload.size(), order, *format_);
        ++accepted;
      } catch (const CodecError&) {
      }
      try {
        ChainReader reader(source);
        received[segmented] =
            to_receiver_[static_cast<int>(order)]->execute_value(reader, payload.size());
        ++accepted;
      } catch (const CodecError&) {
      }
    }
    const auto wire = [](const std::optional<pbio::Value>& v,
                         const pbio::FormatDesc& f) -> std::optional<Bytes> {
      if (!v) return std::nullopt;
      return test::value_wire(*v, f);
    };
    EXPECT_EQ(wire(own[0], *format_), wire(own[1], *format_));
    EXPECT_EQ(wire(received[0], *receiver_), wire(received[1], *receiver_));
    const std::optional<pbio::Value> projected =
        own[0] ? std::optional{pbio::project_value(*own[0], *receiver_)} : std::nullopt;
    EXPECT_EQ(wire(projected, *receiver_), wire(received[0], *receiver_));
    return accepted;
  }

 private:
  pbio::FormatPtr format_;
  pbio::FormatPtr receiver_;
  pbio::PlanPtr to_receiver_[2];  // by sender byte order
  std::vector<Bytes> valid_;
};

TEST_P(FuzzSeeds, PbioValueDecoderSurvivesRandomAndMutatedPayloads) {
  const ValueDecodeTarget target;
  const ByteOrder orders[] = {ByteOrder::kLittle, ByteOrder::kBig};
  for (std::size_t o = 0; o < 2; ++o) {
    const ByteOrder order = orders[o];
    ASSERT_EQ(target.decode_all(BytesView{target.valid()[o]}, order), 4);
    for (int i = 0; i < 60; ++i) {
      Bytes payload = target.valid()[o];
      const int mutations = 1 + static_cast<int>(rng_.next_below(5));
      for (int m = 0; m < mutations; ++m) {
        payload[rng_.next_below(payload.size())] =
            static_cast<std::uint8_t>(rng_.next_below(256));
      }
      (void)target.decode_all(BytesView{payload}, order);
    }
    for (int i = 0; i < 30; ++i) {
      (void)target.decode_all(BytesView{random_bytes(rng_, 200)}, order);
    }
  }
}

TEST_P(FuzzSeeds, FormatDeserializerSurvivesRandomBytes) {
  for (int i = 0; i < 40; ++i) {
    const Bytes junk = random_bytes(rng_, 160);
    try {
      (void)pbio::deserialize_format(BytesView{junk});
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeeds, BinEnvelopeSurvivesRandomBytes) {
  for (int i = 0; i < 40; ++i) {
    const Bytes junk = random_bytes(rng_, 120);
    try {
      (void)core::decode_bin_message(BufferChain::borrowing(BytesView{junk}));
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeeds, LzssDecoderSurvivesRandomBytes) {
  for (int i = 0; i < 60; ++i) {
    const Bytes junk = random_bytes(rng_, 300);
    try {
      (void)lz::decompress(BytesView{junk});
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeeds, Base64SurvivesRandomText) {
  for (int i = 0; i < 60; ++i) {
    const Bytes junk = random_bytes(rng_, 100);
    try {
      (void)base64_decode(to_string(BytesView{junk}));
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeeds, QualityFileSurvivesRandomLines) {
  static constexpr const char* tokens[] = {"0",   "100", "inf", "-",  "type_a",
                                           "#x",  "1e9", "-5",  "\t", "attribute"};
  for (int i = 0; i < 60; ++i) {
    std::string text;
    const int lines = static_cast<int>(rng_.next_below(5));
    for (int l = 0; l < lines; ++l) {
      const int words = static_cast<int>(rng_.next_below(6));
      for (int w = 0; w < words; ++w) {
        text += tokens[rng_.next_below(std::size(tokens))];
        text += ' ';
      }
      text += '\n';
    }
    try {
      (void)qos::QualityFile::parse(text);
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeeds, HeaderFieldCountLimitEnforced) {
  // Random header counts straddling the 100-field cap: at or under parses,
  // over throws ParseError (never an allocation blow-up or a hang).
  for (int i = 0; i < 6; ++i) {
    const int extra = 80 + static_cast<int>(rng_.next_below(40));  // 80..119
    std::string wire = "POST / HTTP/1.1\r\n";
    for (int h = 0; h < extra; ++h) {
      wire += "X-F" + std::to_string(h) + ": v\r\n";
    }
    wire += "Content-Length: 0\r\n\r\n";
    const int total_fields = extra + 1;

    auto [a, b] = net::make_pipe();
    a->write_all(std::string_view(wire));
    a->close();
    http::MessageReader reader(*b);
    try {
      const auto request = reader.read_request();
      EXPECT_TRUE(request.has_value());
      EXPECT_LE(total_fields, 100);
    } catch (const ParseError&) {
      EXPECT_GT(total_fields, 100);
    }
  }
}

// ------------------------------------------------------- truncation sweeps
//
// Robustness contract: every strict prefix of a valid wire image must fail
// with a typed sbq::Error — never parse "successfully", never crash, never
// hang waiting for bytes that will not come.

pbio::FormatPtr trunc_format() {
  return pbio::FormatBuilder("tr")
      .add_scalar("a", pbio::TypeKind::kInt32)
      .add_string("s")
      .build();
}

Bytes valid_bin_wire() {
  const pbio::Value v = pbio::Value::record({{"a", 9}, {"s", "payload"}});
  core::BinEnvelope envelope;
  envelope.operation = "fetch";
  envelope.message_type = "tr";
  envelope.timestamp_us = 1234;
  envelope.reported_rtt_us = 5678.0;
  return core::encode_bin_message(envelope,
                                  pbio::encode_value_message_chain(v, *trunc_format()))
      .coalesce();
}

/// Full receive path of a binary body: envelope split + PBIO value decode.
pbio::Value decode_full_bin(BytesView body) {
  const core::DecodedBinChain decoded = core::decode_bin_message(BufferChain::borrowing(body));
  return pbio::decode_value_message(BytesView{decoded.pbio_message.coalesce()},
                                    *trunc_format());
}

TEST(TruncationSweep, EveryBinEnvelopePrefixThrowsTypedError) {
  const Bytes wire = valid_bin_wire();
  ASSERT_NO_THROW((void)decode_full_bin(BytesView{wire}));
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const BytesView prefix(wire.data(), n);
    try {
      (void)decode_full_bin(prefix);
      ADD_FAILURE() << "prefix of " << n << "/" << wire.size()
                    << " bytes decoded as a complete message";
    } catch (const Error&) {
      // required: typed error, not a crash or silent partial decode
    }
  }
}

TEST(TruncationSweep, EveryBitFlipInBinEnvelopeFailsCleanly) {
  const Bytes wire = valid_bin_wire();
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x80}) {
      Bytes flipped = wire;
      flipped[i] ^= mask;
      try {
        (void)decode_full_bin(BytesView{flipped});
      } catch (const Error&) {
      }
    }
  }
}

TEST(TruncationSweep, EveryPbioNativePrefixThrowsTypedError) {
  NativeDecodeTarget target;
  const Bytes& wire = target.valid();
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_EQ(target.decode_all(BytesView(wire.data(), n)), 0)
        << "prefix of " << n << "/" << wire.size() << " bytes decoded";
  }
}

TEST(TruncationSweep, EveryBitFlipInPbioNativeMessageFailsCleanly) {
  NativeDecodeTarget target;
  const Bytes& wire = target.valid();
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = wire;
      flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
      (void)target.decode_all(BytesView{flipped});
    }
  }
}

TEST(TruncationSweep, EveryPbioValuePrefixThrowsTypedError) {
  const ValueDecodeTarget target;
  const ByteOrder orders[] = {ByteOrder::kLittle, ByteOrder::kBig};
  for (std::size_t o = 0; o < 2; ++o) {
    const Bytes& payload = target.valid()[o];
    for (std::size_t n = 0; n < payload.size(); ++n) {
      EXPECT_EQ(target.decode_all(BytesView(payload.data(), n), orders[o]), 0)
          << "prefix of " << n << "/" << payload.size() << " bytes decoded";
    }
  }
}

TEST(TruncationSweep, EveryBitFlipInPbioValuePayloadFailsCleanly) {
  const ValueDecodeTarget target;
  const ByteOrder orders[] = {ByteOrder::kLittle, ByteOrder::kBig};
  for (std::size_t o = 0; o < 2; ++o) {
    const Bytes& payload = target.valid()[o];
    for (std::size_t i = 0; i < payload.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes flipped = payload;
        flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
        (void)target.decode_all(BytesView{flipped}, orders[o]);
      }
    }
  }
}

TEST(TruncationSweep, HugeValueArrayCountThrowsBeforeAllocating) {
  // A 17-byte message (header + one u32 count) claiming 0xFFFFFFFF
  // elements: every numeric kind, both overloads and a plan to a receiver
  // with one more field, both byte orders.
  for (const auto kind : {pbio::TypeKind::kInt32, pbio::TypeKind::kInt64,
                          pbio::TypeKind::kUInt32, pbio::TypeKind::kUInt64,
                          pbio::TypeKind::kFloat32, pbio::TypeKind::kFloat64}) {
    const auto format = pbio::FormatBuilder("huge").add_var_array("v", kind).build();
    const auto receiver = pbio::FormatBuilder("huge")
                              .add_scalar("w", pbio::TypeKind::kInt32)
                              .add_var_array("v", kind)
                              .build();
    for (const ByteOrder order : {ByteOrder::kLittle, ByteOrder::kBig}) {
      ByteBuffer out;
      out.append_u64(format->format_id(), ByteOrder::kLittle);
      out.append_u8(static_cast<std::uint8_t>(order));
      out.append_u32(4, ByteOrder::kLittle);
      out.append_u32(0xFFFFFFFFu, order);
      ASSERT_EQ(out.size(), 17u);
      BufferChain chain;
      chain.append_view(out.view());

      g_largest_allocation = 0;
      EXPECT_THROW((void)pbio::decode_value_message(out.view(), *format), CodecError);
      ChainReader reader(chain);
      const pbio::WireHeader header = pbio::read_header(reader);
      EXPECT_THROW((void)pbio::decode_value_payload(reader, header.payload_length,
                                                    header.sender_order, *format),
                   CodecError);
      pbio::PlanCache plans;
      ChainReader lifted(chain);
      (void)pbio::read_header(lifted);
      EXPECT_THROW((void)plans.get(format, receiver, order)
                       ->execute_value(lifted, header.payload_length),
                   CodecError);
      EXPECT_LT(g_largest_allocation.load(), std::size_t{4096})
          << pbio::kind_name(kind) << " order " << static_cast<int>(order);
    }
  }
}

// A head claiming a 200 MiB body followed by one byte: the body is
// received in segments of at most MessageReader::kBodySegment, so the claim
// allocates no more than one segment (and the segment's shared control
// block) ahead of the byte that arrived — whether the bytes are fed or read
// off the stream.
TEST(TruncationSweep, HugeContentLengthAllocatesAtMostOneBodySegment) {
  constexpr std::size_t kCap = http::MessageReader::kBodySegment + 256;
  const std::string head =
      "POST /svc HTTP/1.1\r\nContent-Length: " + std::to_string(200u << 20) + "\r\n\r\n";
  {
    auto [unused, feed_end] = net::make_pipe();
    http::MessageReader reader(*feed_end);
    g_largest_allocation = 0;
    reader.feed(as_bytes(head + "x"));
    EXPECT_FALSE(reader.try_next_request().has_value());
    EXPECT_EQ(reader.phase(), http::MessageReader::Phase::kBody);
    EXPECT_LE(g_largest_allocation.load(), kCap);
  }
  auto [a, b] = net::make_pipe();
  a->write_all(as_bytes(head + "x"));
  a->close();
  http::MessageReader reader(*b);
  g_largest_allocation = 0;
  EXPECT_THROW((void)reader.read_request(), TransportError);
  EXPECT_LE(g_largest_allocation.load(), kCap);
}

// A body past one segment parses back byte for byte as a chain of
// kBodySegment-sized segments, read in place.
TEST(TruncationSweep, LargeBodyArrivesAsWholeSegments) {
  Rng rng(29);
  http::Request request;
  request.method = "POST";
  Bytes payload(http::MessageReader::kBodySegment * 2 + 1234);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_below(256));
  request.set_body(Bytes(payload));
  auto [a, b] = net::make_pipe();
  test::write_message(*a, request);
  a->close();
  http::MessageReader reader(*b);
  const auto parsed = reader.read_request();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->body.segment_count(), 3u);
  EXPECT_EQ(parsed->body.coalesce(), payload);
  EXPECT_FALSE(reader.read_request().has_value());
}

TEST(TruncationSweep, EveryHttpRequestPrefixFailsCleanly) {
  http::Request valid;
  valid.method = "POST";
  valid.target = "/svc";
  valid.headers.set("Content-Type", "text/xml");
  valid.set_body("<envelope/>");
  const Bytes wire = test::http_wire(valid);

  for (std::size_t n = 0; n < wire.size(); ++n) {
    auto [a, b] = net::make_pipe();
    a->write_all(BytesView{wire.data(), n});
    a->close();  // the rest of the message never arrives
    http::MessageReader reader(*b);
    try {
      const auto request = reader.read_request();
      // EOF before any byte of a message is a clean end of stream; a parsed
      // request from a strict prefix would be a framing bug.
      EXPECT_FALSE(request.has_value())
          << "prefix of " << n << "/" << wire.size() << " bytes parsed";
    } catch (const Error&) {
    }
  }

  // The untruncated wire still parses.
  auto [a, b] = net::make_pipe();
  a->write_all(BytesView{wire});
  a->close();
  http::MessageReader reader(*b);
  const auto request = reader.read_request();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->body_string(), "<envelope/>");
}

TEST(TruncationSweep, EveryHttpResponsePrefixFailsCleanly) {
  http::Response valid;
  valid.status = 200;
  valid.headers.set("Content-Type", "application/octet-stream");
  valid.set_body("binary-ish body");
  const Bytes wire = test::http_wire(valid);

  for (std::size_t n = 0; n < wire.size(); ++n) {
    auto [a, b] = net::make_pipe();
    a->write_all(BytesView{wire.data(), n});
    a->close();
    http::MessageReader reader(*b);
    try {
      const auto response = reader.read_response();
      EXPECT_FALSE(response.has_value())
          << "prefix of " << n << "/" << wire.size() << " bytes parsed";
    } catch (const Error&) {
    }
  }
}

TEST(TruncationSweep, EverySoapEnvelopePrefixThrowsTypedError) {
  for (const SoapFuzzTarget& target : soap_fuzz_targets()) {
    ASSERT_NO_THROW(decode_soap(target.envelope, *target.format)) << target.name;
    for (std::size_t n = 0; n < target.envelope.size(); ++n) {
      try {
        decode_soap(target.envelope.substr(0, n), *target.format);
        ADD_FAILURE() << target.name << ": prefix of " << n << "/" << target.envelope.size()
                      << " bytes decoded as a complete envelope";
      } catch (const Error&) {
      }
    }
  }
}

// An oracle for the SOAP receive path. parse_envelope stops at the body
// element and decode_body or parse_fault reads the rest, so between them
// they must reject, with a ParseError, every text that one whole-document
// pass rejects: XML the reader refuses, a root that is not Envelope, a root
// without a Body child, or a first Body that does not hold exactly one
// element. As a reference it stays independent of that path: one reader
// from the first byte to the last, not parse_envelope's two legs.
bool whole_document_accepts(std::string_view text) {
  using Token = xml::Reader::Token;
  bool envelope = false;
  bool in_first_body = false;
  int body_children = -1;  // element children of the first Body; -1 before it
  try {
    xml::Reader reader(text);
    for (Token t = reader.next(); t != Token::kEndOfDocument; t = reader.next()) {
      if (t != Token::kStartElement) continue;
      const std::string_view name = xml::local_part(reader.name());
      if (reader.depth() == 1) {
        envelope = name == "Envelope";
      } else if (reader.depth() == 2) {
        in_first_body = name == "Body" && body_children < 0;
        if (in_first_body) body_children = 0;
      } else if (reader.depth() == 3 && in_first_body) {
        ++body_children;
      }
    }
  } catch (const ParseError&) {
    return false;
  }
  return envelope && body_children == 1;
}

/// Runs the receive pair on `text` against the oracle. When `intact` is
/// set, `text` carries the target's payload unchanged and must decode to it.
void check_against_oracle(const SoapFuzzTarget& target, const std::string& text,
                          bool intact = false) {
  const bool accepted = whole_document_accepts(text);
  ASSERT_TRUE(accepted || !intact) << target.name << ": oracle rejects " << text;
  try {
    const soap::ParsedEnvelope envelope = soap::parse_envelope(text);
    if (envelope.is_fault()) {
      const soap::Fault fault = soap::parse_fault(envelope);
      if (intact) {
        EXPECT_EQ(fault.code, kFuzzFaultCode);
        EXPECT_EQ(fault.message, kFuzzFaultString);
      }
    } else {
      const pbio::Value value = soap::decode_body(envelope, *target.format);
      if (intact) {
        EXPECT_EQ(value, target.value) << target.name;
      }
    }
  } catch (const ParseError&) {
    EXPECT_FALSE(intact) << target.name << ": rejected " << text;
    return;
  } catch (const Error& e) {
    EXPECT_TRUE(accepted) << target.name << ": threw " << e.what()
                          << ", not a ParseError, for " << text;
    return;
  }
  EXPECT_TRUE(accepted) << target.name << ": decoded what a whole-document parse rejects: "
                        << text;
}

TEST(SoapReceiveOracle, IntactEnvelopesDecodeToTheBuiltValue) {
  for (const SoapFuzzTarget& target : soap_fuzz_targets()) {
    check_against_oracle(target, target.envelope, /*intact=*/true);
    // Edits around the payload that keep the envelope valid.
    std::string with_header = target.envelope;
    with_header.insert(with_header.find("<soap:Body"), "<soap:Header><h>1</h></soap:Header>");
    check_against_oracle(target, with_header, true);
    std::string padded_body = target.envelope;
    padded_body.insert(padded_body.find("</soap:Body>"), "\n<!-- c --><?pi x?>text");
    check_against_oracle(target, padded_body, true);
    check_against_oracle(target, target.envelope + "<!-- after --> ", true);
    std::string second_body = target.envelope;
    second_body.insert(second_body.find("</soap:Envelope>"), "<soap:Body><a/><b/></soap:Body>");
    check_against_oracle(target, second_body, true);
  }
}

TEST(SoapReceiveOracle, BrokenEnvelopesThrowParseError) {
  for (const SoapFuzzTarget& target : soap_fuzz_targets()) {
    const std::string& envelope = target.envelope;
    const std::size_t body_end = envelope.find("</soap:Body>");
    const std::string broken[] = {
        envelope.substr(0, body_end) + "<second/>" + envelope.substr(body_end),
        envelope.substr(0, body_end) + "<second>" + envelope.substr(body_end),
        envelope + "<x/>",
        envelope + "junk",
        envelope.substr(0, envelope.find("<soap:Body")) + "<soap:Body/></soap:Envelope>",
        envelope.substr(0, envelope.find("<soap:Body")) + "</soap:Envelope>",
    };
    for (const std::string& text : broken) {
      ASSERT_FALSE(whole_document_accepts(text)) << text;
      check_against_oracle(target, text);
    }
  }
}

TEST(SoapReceiveOracle, PrefixesAndMutationsAgreeWithAWholeDocumentParse) {
  Rng rng(20040324);
  for (const SoapFuzzTarget& target : soap_fuzz_targets()) {
    for (std::size_t n = 0; n < target.envelope.size(); ++n) {
      check_against_oracle(target, target.envelope.substr(0, n));
    }
    for (int i = 0; i < 200; ++i) {
      check_against_oracle(
          target, mutate(rng, target.envelope, 1 + static_cast<int>(rng.next_below(8))));
    }
  }
}

// Edits aimed at the start tags of a payload, where the decoder takes the
// tag this codec writes in one compare and lexes anything else. An edit
// either keeps the payload, and the document must still decode to it, or
// the decode must agree with a whole-document parse.
struct TagEdit {
  std::string text;
  bool keeps_payload;
};

/// Edits of the start tag whose '<' is at `at` in `doc`: its name, its
/// attribute's value and quotes, its '>', an added attribute, `/>`, and
/// prefixes.
std::vector<TagEdit> start_tag_edits(const std::string& doc, std::size_t at) {
  const std::size_t close = doc.find('>', at);
  std::size_t name_end = at + 1;
  while (name_end < close && doc[name_end] != ' ') ++name_end;
  const std::string name = doc.substr(at + 1, name_end - at - 1);
  const std::string tag = doc.substr(at, close + 1 - at);
  const std::string open = tag.substr(0, tag.size() - 1);  // without the '>'
  const auto with = [&](const std::string& edited) {
    return TagEdit{doc.substr(0, at) + edited + doc.substr(close + 1), false};
  };
  const auto keeping = [&](const std::string& edited) {
    TagEdit edit = with(edited);
    edit.keeps_payload = true;
    return edit;
  };
  std::vector<TagEdit> edits = {
      keeping(open + " >"),
      keeping(open + " extra=\"1\">"),
      with(open + "/>"),
      with(open),
      with(open + " extra=1>"),
      with(open + " extra=\"1>"),
      with("<Z" + tag.substr(2)),    // another name: the end tag no longer matches
      with("<p:" + tag.substr(1)),   // a prefix on the start tag alone
      with(tag.substr(0, tag.size() - 1) + "\x01>"),
  };
  if (const std::size_t quote = tag.find('"'); quote != std::string::npos) {
    const std::size_t second = tag.find('"', quote + 1);
    std::string single = tag;
    single[quote] = '\'';
    single[second] = '\'';
    edits.push_back(keeping(single));
    std::string mixed = tag;
    mixed[second] = '\'';
    edits.push_back(with(mixed));
    std::string unclosed = tag;
    unclosed.erase(second, 1);
    edits.push_back(with(unclosed));
    std::string retyped = tag;  // xsi:type values are not checked
    retyped.insert(second, "X");
    edits.push_back(keeping(retyped));
    std::string bad_entity = tag;
    bad_entity.insert(second, "&bogus;");
    edits.push_back(with(bad_entity));
    std::string lt = tag;
    lt.insert(second, "<");
    edits.push_back(with(lt));
    std::string spaced = tag;
    spaced.insert(name_end - at, " ");
    edits.push_back(keeping(spaced));
    const std::string attribute = tag.substr(name_end - at, second + 1 - (name_end - at));
    edits.push_back(with(open + attribute + ">"));  // the attribute twice
  }
  // A prefix on both tags of an element that holds only text.
  const std::string end_tag = "</" + name + ">";
  const std::size_t next = doc.find('<', close);
  if (next != std::string::npos && doc.compare(next, end_tag.size(), end_tag) == 0) {
    std::string prefixed = doc;
    prefixed.replace(next, end_tag.size(), "</p:" + name + ">");
    prefixed.insert(at + 1, "p:");
    edits.push_back({prefixed, true});
  }
  return edits;
}

/// Where the start tags of `doc` begin, from `from` on.
std::vector<std::size_t> start_tags(const std::string& doc, std::size_t from) {
  std::vector<std::size_t> at;
  for (std::size_t i = doc.find('<', from); i != std::string::npos; i = doc.find('<', i + 1)) {
    const char c = i + 1 < doc.size() ? doc[i + 1] : '\0';
    if (c != '/' && c != '!' && c != '?') at.push_back(i);
  }
  return at;
}

TEST(SoapReceiveOracle, StartTagEditsAgreeWithAWholeDocumentParse) {
  for (const SoapFuzzTarget& target : soap_fuzz_targets()) {
    const std::string& envelope = target.envelope;
    const std::size_t body = envelope.find('>', envelope.find("<soap:Body")) + 1;
    const std::size_t body_end = envelope.find("</soap:Body>");
    for (const std::size_t at : start_tags(envelope, body)) {
      if (at >= body_end) break;
      for (const TagEdit& edit : start_tag_edits(envelope, at)) {
        check_against_oracle(target, edit.text, edit.keeps_payload);
      }
    }
  }
}

/// check_against_oracle for a compact document read by value_from_xml.
void check_compact_against_oracle(const SoapFuzzTarget& target, const std::string& text,
                                  bool intact) {
  bool accepted = true;
  try {
    read_whole(text);
  } catch (const ParseError&) {
    accepted = false;
  }
  ASSERT_TRUE(accepted || !intact) << target.name << ": oracle rejects " << text;
  try {
    const pbio::Value value = soap::value_from_xml(text, *target.format);
    if (intact) {
      EXPECT_EQ(value, target.value) << target.name;
    }
  } catch (const ParseError&) {
    EXPECT_FALSE(intact) << target.name << ": rejected " << text;
    return;
  }
  EXPECT_TRUE(accepted) << target.name << ": decoded what a whole-document parse rejects: "
                        << text;
}

TEST(XmlReceiveOracle, CompactStartTagEditsAgreeWithAWholeDocumentParse) {
  for (const SoapFuzzTarget& target : soap_fuzz_targets()) {
    if (target.name == "fault") continue;
    const std::string doc = soap::value_to_xml(target.value, *target.format, "params");
    check_compact_against_oracle(target, doc, true);
    for (const std::size_t at : start_tags(doc, 0)) {
      for (const TagEdit& edit : start_tag_edits(doc, at)) {
        check_compact_against_oracle(target, edit.text, edit.keeps_payload);
      }
    }
  }
}

TEST(TruncationSweep, EveryBitFlipInASoapEnvelopeFailsCleanly) {
  for (const SoapFuzzTarget& target : soap_fuzz_targets()) {
    std::string flipped = target.envelope;
    for (std::size_t i = 0; i < flipped.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        try {
          decode_soap(flipped, *target.format);
        } catch (const Error&) {
        }
        flipped[i] = target.envelope[i];
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range(1, 9));

}  // namespace
}  // namespace sbq
