// Unit tests for the PBIO substrate: formats, registry/format server,
// encode and plan decode with receiver-makes-right conversion, and the
// dynamic Value model every PBIO message is encoded from and decoded to.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <type_traits>

#include "pbio/encode.h"
#include "pbio/format.h"
#include "pbio/plan.h"
#include "pbio/registry.h"
#include "pbio/value.h"
#include "pbio/value_codec.h"
#include "support/wire.h"

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

namespace sbq::pbio {
namespace {

using test::decode_wire;
using test::value_wire;

// The records of the NativeCodec cases below are the shapes a C sender would
// hold as structs (the paper's native records); they travel as Values.
FormatPtr sensor_format() {
  return FormatBuilder("sensor")
      .add_scalar("id", TypeKind::kInt32)
      .add_scalar("reading", TypeKind::kFloat64)
      .add_scalar("flag", TypeKind::kChar)
      .add_string("label")
      .add_var_array("samples", TypeKind::kInt32)
      .build();
}

Value sensor_value(std::int64_t id, double reading, char flag, const char* label,
                   Value samples) {
  return Value::record({{"id", id},
                        {"reading", reading},
                        {"flag", flag},
                        {"label", label},
                        {"samples", std::move(samples)}});
}

Value sample_sensor_value() {
  return sensor_value(42, 3.5, 'y', "cam-1", Value::array({5, -6, 7}));
}

FormatPtr point_format() {
  return FormatBuilder("point")
      .add_scalar("x", TypeKind::kFloat64)
      .add_scalar("y", TypeKind::kFloat64)
      .add_scalar("z", TypeKind::kFloat64)
      .build();
}

Value point_value(double x, double y, double z) {
  return Value::record({{"x", x}, {"y", y}, {"z", z}});
}

FormatPtr molecule_format() {
  return FormatBuilder("molecule")
      .add_scalar("atom_count", TypeKind::kInt32)
      .add_struct("center", point_format())
      .add_struct_var_array("atoms", point_format())
      .build();
}

Value molecule_value() {
  return Value::record(
      {{"atom_count", 2},
       {"center", point_value(0.5, 0.5, 0.5)},
       {"atoms", Value::array({point_value(1, 2, 3), point_value(4, 5, 6)})}});
}

ByteOrder foreign_order() {
  return host_byte_order() == ByteOrder::kLittle ? ByteOrder::kBig : ByteOrder::kLittle;
}

// ---------------------------------------------------------------- formats

TEST(Format, CanonicalRendering) {
  EXPECT_EQ(point_format()->canonical(), "point{x:f64,y:f64,z:f64}");
  auto f = FormatBuilder("m")
               .add_fixed_array("a", TypeKind::kInt32, 4)
               .add_var_array("b", TypeKind::kFloat32)
               .build();
  EXPECT_EQ(f->canonical(), "m{a:i32[4],b:f32[]}");
}

TEST(Format, StructuralIdStableAndDiscriminating) {
  EXPECT_EQ(point_format()->format_id(), point_format()->format_id());
  auto other = FormatBuilder("point")
                   .add_scalar("x", TypeKind::kFloat64)
                   .add_scalar("y", TypeKind::kFloat64)
                   .build();
  EXPECT_NE(point_format()->format_id(), other->format_id());
}

TEST(Format, CountsAndDepth) {
  EXPECT_EQ(point_format()->total_field_count(), 3u);
  EXPECT_EQ(point_format()->nesting_depth(), 1u);
  EXPECT_EQ(molecule_format()->total_field_count(), 3u + 3u + 3u);
  EXPECT_EQ(molecule_format()->nesting_depth(), 2u);
}

TEST(Format, BuilderRejectsBadInput) {
  EXPECT_THROW(FormatBuilder("e").build(), CodecError);
  EXPECT_THROW(FormatBuilder("d")
                   .add_scalar("x", TypeKind::kInt32)
                   .add_scalar("x", TypeKind::kInt32),
               CodecError);
  EXPECT_THROW(FormatBuilder("s").add_scalar("x", TypeKind::kString), CodecError);
  EXPECT_THROW(FormatBuilder("z").add_fixed_array("a", TypeKind::kInt32, 0), CodecError);
  EXPECT_THROW(FormatBuilder("n").add_struct("s", nullptr), CodecError);
}

TEST(Format, SerializationRoundTrips) {
  for (const auto& f : {sensor_format(), molecule_format(), point_format()}) {
    const Bytes wire = serialize_format(*f);
    FormatPtr back = deserialize_format(BytesView{wire});
    EXPECT_EQ(back->canonical(), f->canonical());
    EXPECT_EQ(back->format_id(), f->format_id());
    EXPECT_EQ(min_wire_bytes(*back), min_wire_bytes(*f));
  }
}

TEST(Format, DeserializeRejectsTrailing) {
  Bytes wire = serialize_format(*point_format());
  wire.push_back(0);
  EXPECT_THROW(deserialize_format(BytesView{wire}), CodecError);
}

// ---------------------------------------------------------------- registry

TEST(Registry, RegisterAndLookup) {
  FormatRegistry reg;
  const FormatId id = reg.register_format(point_format());
  ASSERT_NE(reg.lookup(id), nullptr);
  EXPECT_EQ(reg.lookup(id)->name, "point");
  EXPECT_EQ(reg.lookup(12345), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(FormatServerTest, FetchUnknownThrows) {
  FormatServer server;
  EXPECT_THROW(server.fetch(42), CodecError);
  EXPECT_EQ(server.stats().misses, 1u);
}

TEST(FormatServerTest, CacheFetchesOncePerFormat) {
  auto server = std::make_shared<FormatServer>();
  FormatCache sender(server);
  FormatCache receiver(server);

  const FormatId id = sender.announce(molecule_format());
  EXPECT_TRUE(sender.contains(id));
  EXPECT_FALSE(receiver.contains(id));

  // First resolve: server round trip with nonzero description bytes.
  FormatPtr f1 = receiver.resolve(id);
  EXPECT_GT(receiver.last_fetch_bytes(), 0u);
  EXPECT_EQ(receiver.miss_count(), 1u);

  // Second resolve: pure cache hit.
  FormatPtr f2 = receiver.resolve(id);
  EXPECT_EQ(receiver.last_fetch_bytes(), 0u);
  EXPECT_EQ(receiver.hit_count(), 1u);
  EXPECT_EQ(f1->canonical(), f2->canonical());
  EXPECT_EQ(server->stats().lookups, 1u);
}

TEST(FormatServerTest, RegistrationCostGrowsWithNesting) {
  // The paper: first-message cost "becomes significant only for very deeply
  // nested structures". Deeper formats must serialize larger.
  FormatPtr flat = point_format();
  FormatPtr deep = point_format();
  for (int i = 0; i < 8; ++i) {
    deep = FormatBuilder("nest" + std::to_string(i))
               .add_scalar("v", TypeKind::kInt32)
               .add_struct("inner", deep)
               .build();
  }
  EXPECT_GT(serialize_format(*deep).size(), 4 * serialize_format(*flat).size());
}

// ---------------------------------------------------------------- native codec

TEST(NativeCodec, FlatRoundTrip) {
  const auto f = sensor_format();
  const Bytes wire = value_wire(sample_sensor_value(), *f);
  PlanCache plans;
  const Value back = decode_wire(BytesView{wire}, f, f, plans);
  EXPECT_EQ(back, sample_sensor_value());
  EXPECT_EQ(back.field("flag"), Value{'y'});
  EXPECT_EQ(back.field("samples").at(1), Value{-6});
}

TEST(NativeCodec, NestedStructRoundTrip) {
  const auto f = molecule_format();
  const Bytes wire = value_wire(molecule_value(), *f);
  PlanCache plans;
  const Value back = decode_wire(BytesView{wire}, f, f, plans);
  EXPECT_EQ(back, molecule_value());
  EXPECT_DOUBLE_EQ(back.field("atoms").at(1).field("z").as_f64(), 6.0);
}

TEST(NativeCodec, ForeignEndianSenderIsConverted) {
  const Value sent = sensor_value(7, -1.25, 'n', "be", Value::array({100, 200}));
  const auto f = sensor_format();
  const Bytes wire = value_wire(sent, *f, foreign_order());
  PlanCache plans;
  EXPECT_EQ(decode_wire(BytesView{wire}, f, f, plans), sent);
}

TEST(NativeCodec, WireBytesDifferAcrossByteOrders) {
  const Value v = sensor_value(0x01020304, 1.0, 'x', "", Value::empty_array());
  const auto f = sensor_format();
  EXPECT_NE(value_wire(v, *f, ByteOrder::kLittle), value_wire(v, *f, ByteOrder::kBig));
}

TEST(NativeCodec, ReceiverMakesRightFieldSubset) {
  // Receiver only knows id and reading; extra sender fields are skipped.
  auto lite = FormatBuilder("sensor_lite")
                  .add_scalar("id", TypeKind::kInt32)
                  .add_scalar("reading", TypeKind::kFloat64)
                  .build();
  const Bytes wire = value_wire(
      sensor_value(9, 2.75, 'q', "full", Value::array({1, 2, 3, 4})), *sensor_format());
  PlanCache plans;
  EXPECT_EQ(decode_wire(BytesView{wire}, sensor_format(), lite, plans),
            Value::record({{"id", 9}, {"reading", 2.75}}));
}

TEST(NativeCodec, MissingFieldsAreZeroFilled) {
  // Sender has fewer fields than the receiver expects; the decoder pads with
  // zeroes (the quality layer's legacy-compatibility mechanism).
  auto id_only = FormatBuilder("id_only").add_scalar("id", TypeKind::kInt32).build();
  const Bytes wire = value_wire(Value::record({{"id", 31}}), *id_only);
  PlanCache plans;
  const Value back = decode_wire(BytesView{wire}, id_only, sensor_format(), plans);
  EXPECT_EQ(back, sensor_value(31, 0.0, '\0', "", Value::empty_array()));
  EXPECT_EQ(back.field("samples").array_size(), 0u);
}

TEST(NativeCodec, NumericKindConversion) {
  // A field the receiver declares wider decodes to the sent value, widened
  // to its class; it encodes at the receiver's width.
  auto narrow = FormatBuilder("n")
                    .add_scalar("v", TypeKind::kInt32)
                    .add_scalar("f", TypeKind::kFloat32)
                    .build();
  auto wide = FormatBuilder("n")
                  .add_scalar("v", TypeKind::kInt64)
                  .add_scalar("f", TypeKind::kFloat64)
                  .build();
  const Bytes wire = value_wire(Value::record({{"v", -77}, {"f", 1.5}}), *narrow);
  PlanCache plans;
  const Value back = decode_wire(BytesView{wire}, narrow, wide, plans);
  EXPECT_EQ(back, Value::record({{"v", -77}, {"f", 1.5}}));
  EXPECT_EQ(decode_value_message(BytesView{value_wire(back, *wide)}, *wide), back);
}

TEST(NativeCodec, FixedStructArrays) {
  auto f = FormatBuilder("segment")
               .add_struct_fixed_array("endpoints", point_format(), 2)
               .add_scalar("id", TypeKind::kInt32)
               .build();
  EXPECT_EQ(f->canonical(), "segment{endpoints:point{x:f64,y:f64,z:f64}[2],id:i32}");

  const Value v = Value::record(
      {{"endpoints", Value::array({point_value(1, 2, 3), point_value(4, 5, 6)})},
       {"id", 17}});
  const Bytes wire = value_wire(v, *f);
  // Two points and the id, with no count prefix.
  EXPECT_EQ(wire.size(), WireHeader::kSize + 2 * 24 + 4);
  PlanCache plans;
  const Value back = decode_wire(BytesView{wire}, f, f, plans);
  EXPECT_EQ(back, v);
  EXPECT_DOUBLE_EQ(back.field("endpoints").at(1).field("z").as_f64(), 6.0);

  // Serialization round-trips the fixed struct array shape too.
  const FormatPtr again = deserialize_format(BytesView{serialize_format(*f)});
  EXPECT_EQ(again->canonical(), f->canonical());
}

TEST(NativeCodec, FixedArrays) {
  auto f = FormatBuilder("fixed")
               .add_scalar("tag", TypeKind::kInt32)
               .add_fixed_array("values", TypeKind::kFloat64, 4)
               .build();
  const Value v =
      Value::record({{"tag", 5}, {"values", Value::array({1.0, 2.0, 3.0, 4.0})}});
  const Bytes wire = value_wire(v, *f);
  EXPECT_EQ(wire.size(), WireHeader::kSize + 4 + 4 * 8);
  PlanCache plans;
  const Value back = decode_wire(BytesView{wire}, f, f, plans);
  EXPECT_EQ(back, v);
  EXPECT_DOUBLE_EQ(back.field("values").at(3).as_f64(), 4.0);
}

TEST(NativeCodec, EmptyVarArrayAndEmptyString) {
  const Value v = sensor_value(1, 0.0, 'z', "", Value::empty_array());
  const auto f = sensor_format();
  PlanCache plans;
  const Value back = decode_wire(BytesView{value_wire(v, *f)}, f, f, plans);
  EXPECT_EQ(back.field("samples").array_size(), 0u);
  EXPECT_EQ(back.field("label").as_string(), "");
  EXPECT_EQ(back, v);
}

TEST(NativeCodec, WireSizeMatchesEncoding) {
  Value m = molecule_value();
  m.set_field("atoms", Value::array({point_value(1, 2, 3), point_value(4, 5, 6),
                                     point_value(7, 8, 9)}));
  const BufferChain wire = encode_value_message_chain(m, *molecule_format());
  ChainReader reader(wire);
  const WireHeader header = read_header(reader);
  // atom_count, center, the atoms' count prefix, three atoms.
  EXPECT_EQ(header.payload_length, 4u + 24u + 4u + 3u * 24u);
  EXPECT_EQ(header.payload_length + WireHeader::kSize, wire.size());
}

TEST(NativeCodec, TruncatedMessageThrows) {
  const auto f = sensor_format();
  Bytes wire = value_wire(sensor_value(1, 2.0, 'a', "abc", Value::empty_array()), *f);
  wire.resize(wire.size() - 2);
  PlanCache plans;
  EXPECT_THROW((void)decode_wire(BytesView{wire}, f, f, plans), CodecError);
}

TEST(NativeCodec, HeaderValidation) {
  const auto f = sensor_format();
  Bytes wire = value_wire(sensor_value(1, 2.0, 'a', "abc", Value::empty_array()), *f);
  wire[8] = 9;  // corrupt byte-order tag
  PlanCache plans;
  EXPECT_THROW((void)decode_wire(BytesView{wire}, f, f, plans), CodecError);
}

TEST(NativeCodec, UntrustedArrayCountsAreBoundedBeforeAllocating) {
  // A 17-byte message (header + one u32 count) claiming millions of
  // elements must be rejected before any element storage is allocated.
  const auto ints = FormatBuilder("ints").add_var_array("v", TypeKind::kInt32).build();
  const auto points =
      FormatBuilder("points").add_struct_var_array("p", point_format()).build();
  for (const FormatPtr& f : {ints, points}) {
    for (const std::uint32_t count : {0x04000000u, 0xFFFFFFFFu}) {
      ByteBuffer out;
      out.append_u64(f->format_id(), ByteOrder::kLittle);
      out.append_u8(static_cast<std::uint8_t>(host_byte_order()));
      out.append_u32(4, ByteOrder::kLittle);
      out.append_u32(count, host_byte_order());
      ASSERT_EQ(out.size(), 17u);
      PlanCache plans;
      g_largest_allocation = 0;
      EXPECT_THROW((void)decode_wire(out.view(), f, f, plans), CodecError)
          << f->canonical() << " count " << count;
      EXPECT_LT(g_largest_allocation.load(), std::size_t{4096})
          << f->canonical() << " count " << count;
    }
  }
}

/// One field of a wire_shape() format: a scalar when `count` is 0, else a
/// fixed array of `count` elements.
FieldDesc shape_field(std::string name, TypeKind kind, std::uint32_t count,
                      FormatPtr sub = nullptr) {
  FieldDesc field;
  field.name = std::move(name);
  field.kind = kind;
  field.arity = count == 0 ? Arity::kScalar : Arity::kFixedArray;
  field.fixed_count = count;
  field.struct_format = std::move(sub);
  return field;
}

/// A format assembled from its fields without FormatBuilder::build(). build()
/// rejects formats whose records need more than 4 GB on the wire, so this is
/// how a test reaches the decoder with wire sizes near 2^64, whose count
/// bounds must hold on their own.
FormatPtr wire_shape(std::string name, std::vector<FieldDesc> fields) {
  auto f = std::make_shared<FormatDesc>();
  f->name = std::move(name);
  f->fields = std::move(fields);
  return f;
}

TEST(NativeCodec, NestedFixedArraysPastTwoToTheSixtyFourAreRejected) {
  // 2^16 chars inside three levels of 2^16-element fixed struct arrays
  // need 2^64 wire bytes per element: a size that wrapped would be 0.
  const FormatPtr l0 =
      FormatBuilder("l0").add_fixed_array("c", TypeKind::kChar, 65536).build();
  // Its first enclosing level already needs 2^32 wire bytes.
  EXPECT_THROW((void)FormatBuilder("l1").add_struct_fixed_array("a", l0, 65536).build(),
               CodecError);
  FormatPtr huge = l0;
  for (int level = 1; level < 4; ++level) {
    std::string name = "l";
    name += std::to_string(level);
    huge = wire_shape(name, {shape_field("a", TypeKind::kStruct, 65536, huge)});
  }
  const auto f = FormatBuilder("top").add_struct_var_array("items", huge).build();
  ByteBuffer out;
  out.append_u64(f->format_id(), ByteOrder::kLittle);
  out.append_u8(static_cast<std::uint8_t>(host_byte_order()));
  out.append_u32(4, ByteOrder::kLittle);
  out.append_u32(1, host_byte_order());
  PlanCache plans;
  EXPECT_THROW((void)decode_wire(out.view(), f, f, plans), CodecError);
}

TEST(NativeCodec, FixedArraySizesSummingToTwoToTheSixtyFourAreRejected) {
  // t needs exactly 2^32 wire bytes; s = t[1] + t[0xFFFFFFFF] needs
  // 2^32 + (2^64 - 2^32) = 2^64, which a wrapping sum would make 0.
  // build() rejects t itself, so the decoder is reached with wire shapes.
  EXPECT_THROW((void)FormatBuilder("t")
                   .add_fixed_array("a", TypeKind::kChar, 0xFFFFFFFFu)
                   .add_scalar("b", TypeKind::kChar)
                   .build(),
               CodecError);
  const auto t = wire_shape("t", {shape_field("a", TypeKind::kChar, 0xFFFFFFFFu),
                                  shape_field("b", TypeKind::kChar, 0)});
  const auto s = wire_shape("s", {shape_field("x", TypeKind::kStruct, 1, t),
                                  shape_field("y", TypeKind::kStruct, 0xFFFFFFFFu, t)});
  const auto var = FormatBuilder("m").add_struct_var_array("items", s).build();
  const auto fixed = wire_shape("m", {shape_field("items", TypeKind::kStruct, 1, s)});
  // A receiver without `items` skips the field, which still reads its count.
  const auto other = FormatBuilder("m").add_scalar("other", TypeKind::kInt32).build();

  const auto message = [](const FormatDesc& f, bool with_count) {
    ByteBuffer out;
    out.append_u64(f.format_id(), ByteOrder::kLittle);
    out.append_u8(static_cast<std::uint8_t>(host_byte_order()));
    out.append_u32(with_count ? 4 : 0, ByteOrder::kLittle);
    if (with_count) out.append_u32(1, host_byte_order());
    return out;
  };
  const ByteBuffer var_msg = message(*var, true);  // 17 bytes
  const ByteBuffer fixed_msg = message(*fixed, false);  // 13 bytes
  ASSERT_EQ(var_msg.size(), 17u);
  ASSERT_EQ(fixed_msg.size(), 13u);
  for (const FormatPtr& receiver : {var, other}) {
    PlanCache plans;
    EXPECT_THROW((void)decode_wire(var_msg.view(), var, receiver, plans), CodecError);
  }
  for (const FormatPtr& receiver : {fixed, other}) {
    PlanCache plans;
    EXPECT_THROW((void)decode_wire(fixed_msg.view(), fixed, receiver, plans), CodecError);
  }
}

TEST(FormatBuilderLimits, NativeLayoutsPastFourGigabytesAreRejected) {
  // A format builds only if one record fits a PBIO payload, whose length is
  // a u32. The largest that fits builds: 0xFFFFFFFF chars.
  const auto largest =
      FormatBuilder("t").add_fixed_array("a", TypeKind::kChar, 0xFFFFFFFFu).build();
  EXPECT_EQ(min_wire_bytes(*largest), 0xFFFFFFFFu);
  // One more byte does not.
  EXPECT_THROW((void)FormatBuilder("t")
                   .add_fixed_array("a", TypeKind::kChar, 0xFFFFFFFFu)
                   .add_scalar("b", TypeKind::kChar)
                   .build(),
               CodecError);
  // A field past 4 GB, an array past 4 GB, and a struct array past 4 GB.
  EXPECT_THROW((void)FormatBuilder("t")
                   .add_fixed_array("a", TypeKind::kChar, 0xFFFFFFFFu)
                   .add_fixed_array("b", TypeKind::kInt32, 2)
                   .build(),
               CodecError);
  EXPECT_THROW(
      (void)FormatBuilder("t").add_fixed_array("a", TypeKind::kInt64, 0x20000000u).build(),
      CodecError);
  EXPECT_THROW((void)FormatBuilder("t")
                   .add_struct_fixed_array("a", point_format(), 0x10000000u)
                   .build(),
               CodecError);

  // The same format described by a peer: deserialize_format rebuilds the
  // format through build(), so it rejects it with CodecError as well.
  const auto peer = wire_shape("t", {shape_field("a", TypeKind::kChar, 0xFFFFFFFFu),
                                     shape_field("b", TypeKind::kChar, 0)});
  const Bytes described = serialize_format(*peer);
  EXPECT_THROW((void)deserialize_format(BytesView{described}), CodecError);
  EXPECT_EQ(deserialize_format(BytesView{serialize_format(*largest)})->format_id(),
            largest->format_id());
}

// ---------------------------------------------------------------- plans

/// Every level embeds one shared sub-format twice (nested_struct_format's
/// shape in the benches).
FormatPtr binary_tree_format(int depth) {
  FormatPtr format = point_format();
  for (int level = 0; level < depth; ++level) {
    format = FormatBuilder("level" + std::to_string(level))
                 .add_scalar("id", TypeKind::kInt32)
                 .add_struct("left", format)
                 .add_struct("right", format)
                 .build();
  }
  return format;
}

TEST(Plans, ForeignOrderUsesConversionOps) {
  // Each byte order compiles its own plan; the foreign one swaps every
  // scalar back, so both decode the point the sender meant.
  const Value point = point_value(1.5, -2.0, 1e-9);
  PlanCache cache;
  for (const ByteOrder order : {ByteOrder::kLittle, ByteOrder::kBig}) {
    const Bytes wire = value_wire(point, *point_format(), order);
    EXPECT_EQ(decode_wire(BytesView{wire}, point_format(), point_format(), cache), point);
  }
  EXPECT_EQ(cache.compile_count(), 2u);
}

TEST(Plans, ExecutesEquivalentlyToDecoder) {
  // A caller's plan decodes what decode_value_message (the process-wide
  // plans) decodes.
  const Bytes wire = value_wire(sample_sensor_value(), *sensor_format());
  PlanCache cache;
  EXPECT_EQ(decode_wire(BytesView{wire}, sensor_format(), sensor_format(), cache),
            decode_value_message(BytesView{wire}, *sensor_format()));
}

TEST(Plans, CacheCompilesOncePerTriple) {
  PlanCache cache;
  const ByteOrder host = host_byte_order();
  (void)cache.get(point_format(), point_format(), host);
  (void)cache.get(point_format(), point_format(), host);
  (void)cache.get(point_format(), point_format(), foreign_order());
  (void)cache.get(sensor_format(), point_format(), host);
  EXPECT_EQ(cache.compile_count(), 3u);
  EXPECT_EQ(cache.hit_count(), 1u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(Plans, SharedSubFormatCompilesOnce) {
  // Depth 10 has 2^11 - 1 struct nodes but only 11 distinct formats: one
  // plan per level plus the leaf, and every `right` field is a cache hit.
  const FormatPtr tree = binary_tree_format(10);
  PlanCache cache;
  (void)cache.get(tree, tree, host_byte_order());
  EXPECT_EQ(cache.compile_count(), 11u);
  EXPECT_EQ(cache.size(), 11u);
  EXPECT_EQ(cache.hit_count(), 10u);

  const Bytes wire = value_wire(zero_value(*tree), *tree);
  EXPECT_EQ(decode_wire(BytesView{wire}, tree, tree, cache), zero_value(*tree));
  EXPECT_EQ(cache.compile_count(), 11u);
}

TEST(Plans, SkippedStructFieldsCompileNoSubPlan) {
  // The receiver keeps only atom_count: the embedded `center` and the
  // `atoms` struct array are skipped off the sender format, not compiled.
  const auto count_only =
      FormatBuilder("molecule").add_scalar("atom_count", TypeKind::kInt32).build();
  const Bytes wire = value_wire(molecule_value(), *molecule_format());

  PlanCache cache;
  EXPECT_EQ(decode_wire(BytesView{wire}, molecule_format(), count_only, cache),
            Value::record({{"atom_count", 2}}));
  EXPECT_EQ(cache.compile_count(), 1u);
}

TEST(Plans, ReceiverSubsetSkipsAndConverts) {
  // The receiver keeps one field, declared wider than the sender's.
  auto wide = FormatBuilder("wide").add_scalar("id", TypeKind::kInt64).build();
  const Bytes wire = value_wire(
      sensor_value(-9, 1.5, 'q', "drop-me", Value::array({1, 2})), *sensor_format());

  PlanCache cache;
  EXPECT_EQ(decode_wire(BytesView{wire}, sensor_format(), wide, cache),
            Value::record({{"id", -9}}));
}

TEST(Plans, CompileRejectsShapeMismatches) {
  PlanCache cache;
  auto str_fmt = FormatBuilder("sensor2").add_string("id").build();
  EXPECT_THROW(cache.get(sensor_format(), str_fmt, host_byte_order()), CodecError);
  EXPECT_THROW(cache.get(nullptr, point_format(), host_byte_order()), CodecError);
  // An embedded struct cannot land in a struct-array slot.
  auto center_as_array = FormatBuilder("molecule")
                            .add_struct_var_array("center", point_format())
                            .build();
  EXPECT_THROW(cache.get(molecule_format(), center_as_array, host_byte_order()),
               CodecError);
}

// ---------------------------------------------------------------- Value

TEST(ValueTest, ScalarAccessorsAndConversion) {
  EXPECT_EQ(Value{std::int64_t{-3}}.as_i64(), -3);
  EXPECT_EQ(Value{std::int64_t{-3}}.as_f64(), -3.0);
  EXPECT_EQ(Value{2.5}.as_i64(), 2);
  EXPECT_EQ(Value{'A'}.as_i64(), 65);
  EXPECT_EQ(Value{std::uint64_t{7}}.as_u64(), 7u);
  EXPECT_THROW((void)Value{"text"}.as_i64(), CodecError);
  EXPECT_THROW((void)Value{1.0}.as_string(), CodecError);
}

TEST(ValueTest, RecordFieldAccess) {
  Value r = Value::record({{"a", 1}, {"b", "two"}});
  EXPECT_EQ(r.field("a").as_i64(), 1);
  EXPECT_EQ(r.field("b").as_string(), "two");
  EXPECT_EQ(r.find_field("c"), nullptr);
  EXPECT_THROW((void)r.field("c"), CodecError);
  r.set_field("a", 10);
  r.set_field("c", 3.0);
  EXPECT_EQ(r.field("a").as_i64(), 10);
  EXPECT_EQ(r.field_count(), 3u);
  EXPECT_EQ(r.field_name(2), "c");
}

TEST(ValueTest, ArrayOps) {
  Value a = Value::array({1, 2});
  a.push_back(3);
  EXPECT_EQ(a.array_size(), 3u);
  EXPECT_EQ(a.at(2).as_i64(), 3);
  EXPECT_THROW((void)a.at(3), CodecError);
  EXPECT_THROW((void)Value{1}.array_size(), CodecError);
}

/// The storage form an array holds: its span's element type.
template <class T>
bool holds_form(const Value& array) {
  return array.visit_array([](auto elems) {
    return std::is_same_v<typename decltype(elems)::element_type, const T>;
  });
}

TEST(ValueTest, ScalarArraysOfOneClassAreContiguous) {
  EXPECT_TRUE(holds_form<std::int64_t>(Value::array({1, 2})));
  EXPECT_TRUE(holds_form<std::uint64_t>(Value::array({1u, 2u})));
  EXPECT_TRUE(holds_form<double>(Value::array({1.5})));
  Value pushed = Value::empty_array();
  for (int i = 0; i < 3; ++i) pushed.push_back(i);
  EXPECT_TRUE(holds_form<std::int64_t>(pushed));
  // Mixed classes, chars, strings and records are vectors of Values.
  EXPECT_TRUE(holds_form<Value>(Value::array({1, 2u})));
  EXPECT_TRUE(holds_form<Value>(Value::array({'a'})));
  EXPECT_TRUE(holds_form<Value>(Value::array({"s"})));
  EXPECT_TRUE(holds_form<Value>(Value::array({Value::record({{"x", 1}})})));
  EXPECT_TRUE(holds_form<Value>(Value::empty_array()));
  // Pushing another class converts a contiguous array, keeping its elements.
  pushed.push_back(2.5);
  EXPECT_TRUE(holds_form<Value>(pushed));
  EXPECT_EQ(pushed.to_debug_string(), "[0, 1, 2, 2.5]");
  EXPECT_EQ(pushed.at(1), Value{1});
  EXPECT_EQ(pushed.at(3), Value{2.5});
}

TEST(ValueTest, ArrayFormDoesNotChangeEqualityOrRendering) {
  const Value contiguous = Value::array({1u, 2u, 3u});
  const Value generic{std::vector<Value>{1u, 2u, 3u}};
  ASSERT_TRUE(holds_form<Value>(generic));
  EXPECT_EQ(contiguous, generic);
  EXPECT_EQ(generic, contiguous);
  EXPECT_EQ(contiguous.to_debug_string(), "[1u, 2u, 3u]");
  EXPECT_EQ(generic.to_debug_string(), contiguous.to_debug_string());
  // Element classes still count: u64 1 is not i64 1.
  EXPECT_FALSE(Value::array({1, 2, 3}) == generic);
  EXPECT_FALSE((Value{std::vector<Value>{1u, 2u}} == contiguous));
  // Empty arrays are equal in every form, and still not records.
  EXPECT_EQ(Value::empty_array(), Value{Value::F64Array{}});
  EXPECT_EQ(Value{Value::I64Array{}}, Value{Value::U64Array{}});
  EXPECT_FALSE(Value{Value::I64Array{}} == Value::empty_record());
}

TEST(ValueTest, ElementRangeAndSliceWorkOnBothForms) {
  for (const Value& array : {Value::array({10, 11, 12, 13, 14}),
                             Value{std::vector<Value>{10, 11, 12, 13, 14}}}) {
    const auto elems = array.elements();
    ASSERT_EQ(elems.size(), 5u);
    EXPECT_EQ(elems[4], Value{14});
    std::int64_t sum = 0;
    for (const Value& e : elems) sum += e.as_i64();
    EXPECT_EQ(sum, 60);
    EXPECT_EQ(array.slice(5, 2), Value::array({10, 12, 14}));
    EXPECT_EQ(array.slice(2), Value::array({10, 11}));
    EXPECT_EQ(array.slice(99, 4), Value::array({10, 14}));
    EXPECT_EQ(array.slice(0), Value::empty_array());
    EXPECT_EQ(holds_form<Value>(array.slice(5, 2)), holds_form<Value>(array));
    EXPECT_THROW((void)array.slice(5, 0), CodecError);
  }
  EXPECT_THROW((void)Value{1}.slice(1), CodecError);

  // Iterating a vector of Values refers to its elements; records are not
  // copied.
  const Value records = Value::array({Value::record({{"x", 1}}), Value::record({{"x", 2}})});
  const Value* first = records.visit_array([](auto elems) -> const Value* {
    if constexpr (std::is_same_v<typename decltype(elems)::element_type, const Value>) {
      return elems.data();
    } else {
      return nullptr;
    }
  });
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(&*records.elements().begin(), first);
}

TEST(ValueTest, EqualityAndDebug) {
  Value a = Value::record({{"x", Value::array({1, 2})}, {"s", "hi"}});
  Value b = Value::record({{"x", Value::array({1, 2})}, {"s", "hi"}});
  Value c = Value::record({{"x", Value::array({1, 3})}, {"s", "hi"}});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.to_debug_string(), "{x: [1, 2], s: \"hi\"}");
}

TEST(ValueTest, EqualityIsKindAndOrderSensitive) {
  const Value scalars[] = {Value{1}, Value{1u}, Value{1.0}, Value{'\x01'}};
  for (std::size_t i = 0; i < std::size(scalars); ++i) {
    for (std::size_t j = 0; j < std::size(scalars); ++j) {
      EXPECT_EQ(scalars[i] == scalars[j], i == j) << i << " vs " << j;
    }
  }
  EXPECT_FALSE(Value::record({{"a", 1}, {"b", 2}}) == Value::record({{"b", 2}, {"a", 1}}));
  EXPECT_EQ(Value{}, Value{});
  EXPECT_FALSE(Value::empty_array() == Value::empty_record());
}

TEST(ValueTest, CopiesAreDeepAndSetFieldOnNullMakesARecord) {
  Value original = Value::record({{"xs", Value::array({1, 2})}, {"s", "hi"}});
  Value copy = original;
  copy.set_field("s", "changed");
  original.set_field("xs", Value::array({9}));
  EXPECT_EQ(copy.field("s").as_string(), "changed");
  EXPECT_EQ(copy.field("xs"), Value::array({1, 2}));
  EXPECT_EQ(original.field("s").as_string(), "hi");

  Value v;
  v.set_field("n", 7);
  EXPECT_TRUE(v.is_record());
  EXPECT_EQ(v, Value::record({{"n", 7}}));
  Value scalar{3};
  EXPECT_THROW(scalar.set_field("n", 7), CodecError);
  try {
    (void)Value{}.elements();
    FAIL() << "null is not an array";
  } catch (const CodecError& e) {
    EXPECT_STREQ(e.what(), "codec error: value is null, wanted array");
  }
}

TEST(ValueTest, ElementIsAtMostFortyEightBytes) {
  static_assert(sizeof(Value) <= 48, "a Value holds one storage slot");
  EXPECT_LE(sizeof(Value), 48u);
}

// ---------------------------------------------------------------- value codec

TEST(ValueCodec, RoundTrip) {
  auto f = sensor_format();
  const Bytes wire = value_wire(sample_sensor_value(), *f);
  const Value back = decode_value_message(BytesView{wire}, *f);
  EXPECT_EQ(back, sample_sensor_value());
}

TEST(ValueCodec, NestedRoundTrip) {
  auto f = molecule_format();
  Value m = Value::record(
      {{"atom_count", 2},
       {"center", Value::record({{"x", 0.5}, {"y", 0.5}, {"z", 0.5}})},
       {"atoms", Value::array({Value::record({{"x", 1.0}, {"y", 2.0}, {"z", 3.0}}),
                               Value::record({{"x", 4.0}, {"y", 5.0}, {"z", 6.0}})})}});
  const Bytes wire = value_wire(m, *f);
  EXPECT_EQ(decode_value_message(BytesView{wire}, *f), m);
}

TEST(ValueCodec, ForeignEndianRoundTrip) {
  auto f = sensor_format();
  const Bytes wire = value_wire(sample_sensor_value(), *f, foreign_order());
  EXPECT_EQ(decode_value_message(BytesView{wire}, *f), sample_sensor_value());
}

TEST(ValueCodec, MissingFieldThrows) {
  Value incomplete = Value::record({{"id", 1}});
  EXPECT_THROW((void)encode_value_message_chain(incomplete, *sensor_format()), CodecError);
}

TEST(ValueCodec, FixedArrayCountEnforced) {
  auto f = FormatBuilder("fx").add_fixed_array("a", TypeKind::kInt32, 3).build();
  Value bad = Value::record({{"a", Value::array({1, 2})}});
  EXPECT_THROW((void)encode_value_message_chain(bad, *f), CodecError);
}

TEST(ValueCodec, ZeroValueSkeleton) {
  const Value z = zero_value(*sensor_format());
  EXPECT_EQ(z.field("id").as_i64(), 0);
  EXPECT_EQ(z.field("label").as_string(), "");
  EXPECT_EQ(z.field("samples").array_size(), 0u);
  // Skeleton must be encodable as-is.
  EXPECT_GT(encode_value_message_chain(z, *sensor_format()).size(), WireHeader::kSize);
}

TEST(ValueCodec, ProjectionCopiesCommonAndPadsRest) {
  auto small = FormatBuilder("sensor_small")
                   .add_scalar("id", TypeKind::kInt32)
                   .add_scalar("extra", TypeKind::kFloat64)
                   .build();
  const Value projected = project_value(sample_sensor_value(), *small);
  EXPECT_EQ(projected.field("id").as_i64(), 42);
  EXPECT_DOUBLE_EQ(projected.field("extra").as_f64(), 0.0);
  EXPECT_EQ(projected.field_count(), 2u);
}

TEST(ValueCodec, ProjectionRoundTripThroughSmallerType) {
  // Full -> small (send) -> full (receive, zero padded): the SOAP-binQ
  // quality-file flow for legacy applications.
  auto full = sensor_format();
  auto small = FormatBuilder("sensor_small")
                   .add_scalar("id", TypeKind::kInt32)
                   .add_scalar("reading", TypeKind::kFloat64)
                   .build();
  const Value sent = project_value(sample_sensor_value(), *small);
  const Bytes wire = value_wire(sent, *small);
  const Value received = decode_value_message(BytesView{wire}, *small);
  const Value padded = project_value(received, *full);
  EXPECT_EQ(padded.field("id").as_i64(), 42);
  EXPECT_DOUBLE_EQ(padded.field("reading").as_f64(), 3.5);
  EXPECT_EQ(padded.field("label").as_string(), "");
  EXPECT_EQ(padded.field("samples").array_size(), 0u);
}

}  // namespace
}  // namespace sbq::pbio
