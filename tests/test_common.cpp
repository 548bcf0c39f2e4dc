// Unit tests for the common substrate: buffers, endian ops, strings, RNG,
// arena.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/strings.h"

namespace sbq {
namespace {

TEST(Bytes, ByteswapRoundTrips) {
  EXPECT_EQ(byteswap16(0x1234), 0x3412);
  EXPECT_EQ(byteswap32(0x12345678u), 0x78563412u);
  EXPECT_EQ(byteswap64(0x0102030405060708ull), 0x0807060504030201ull);
  EXPECT_EQ(byteswap64(byteswap64(0xDEADBEEFCAFEF00Dull)), 0xDEADBEEFCAFEF00Dull);
}

TEST(Bytes, AppendAndReadLittleEndian) {
  ByteBuffer buf;
  buf.append_u8(0xAB);
  buf.append_u16(0x1234, ByteOrder::kLittle);
  buf.append_u32(0xDEADBEEF, ByteOrder::kLittle);
  buf.append_u64(0x0102030405060708ull, ByteOrder::kLittle);
  buf.append_f32(1.5F, ByteOrder::kLittle);
  buf.append_f64(-2.25, ByteOrder::kLittle);

  ByteReader r(buf.view());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u16(ByteOrder::kLittle), 0x1234);
  EXPECT_EQ(r.read_u32(ByteOrder::kLittle), 0xDEADBEEF);
  EXPECT_EQ(r.read_u64(ByteOrder::kLittle), 0x0102030405060708ull);
  EXPECT_EQ(r.read_f32(ByteOrder::kLittle), 1.5F);
  EXPECT_EQ(r.read_f64(ByteOrder::kLittle), -2.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, AppendAndReadBigEndian) {
  ByteBuffer buf;
  buf.append_u32(0x11223344, ByteOrder::kBig);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.view()[0], 0x11);
  EXPECT_EQ(buf.view()[3], 0x44);
  ByteReader r(buf.view());
  EXPECT_EQ(r.read_u32(ByteOrder::kBig), 0x11223344u);
}

TEST(Bytes, CrossEndianMismatchSwaps) {
  ByteBuffer buf;
  buf.append_u16(0x00FF, ByteOrder::kBig);
  ByteReader r(buf.view());
  EXPECT_EQ(r.read_u16(ByteOrder::kLittle), 0xFF00);
}

TEST(Bytes, ReaderUnderrunThrows) {
  ByteBuffer buf;
  buf.append_u16(7, ByteOrder::kLittle);
  ByteReader r(buf.view());
  EXPECT_THROW(r.read_u32(ByteOrder::kLittle), CodecError);
}

TEST(Bytes, ReadViewAndString) {
  ByteBuffer buf;
  buf.append(std::string_view{"hello world"});
  ByteReader r(buf.view());
  EXPECT_EQ(r.read_string(5), "hello");
  r.skip(1);
  BytesView rest = r.read_view(5);
  EXPECT_EQ(to_string(rest), "world");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, Split) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitWhitespace) {
  auto parts = split_whitespace("  10   20\t- type_a ");
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "10");
  EXPECT_EQ(parts[2], "-");
  EXPECT_EQ(parts[3], "type_a");
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(to_lower("Content-TYPE"), "content-type");
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_FALSE(iequals("a", "ab"));
}

TEST(Strings, ParseNumbers) {
  EXPECT_EQ(parse_u64("123"), 123u);
  EXPECT_EQ(parse_i64("-5"), -5);
  EXPECT_DOUBLE_EQ(parse_f64("2.5e3"), 2500.0);
  EXPECT_THROW(parse_u64("12x"), ParseError);
  EXPECT_THROW(parse_i64(""), ParseError);
  EXPECT_THROW(parse_f64("abc"), ParseError);
}

// parse_f64 reads with std::from_chars and retries with strtod only when
// from_chars rejects, so the forms strtod alone accepts still parse.
TEST(Strings, ParseF64AcceptsWhatStrtodAccepts) {
  EXPECT_EQ(parse_f64("+1.5"), 1.5);
  EXPECT_EQ(parse_f64("0x1p3"), 8.0);
  EXPECT_TRUE(std::isinf(parse_f64("1e400")));
  EXPECT_GT(parse_f64("1e400"), 0.0);
  EXPECT_TRUE(std::isinf(parse_f64("inf")));
  EXPECT_TRUE(std::isinf(parse_f64("-inf")));
  EXPECT_TRUE(std::isnan(parse_f64("nan")));
  EXPECT_EQ(parse_f64(" 2.5 "), 2.5);
  EXPECT_EQ(parse_f64("1e-400"), 0.0);
  EXPECT_EQ(parse_f64("4.9406564584124654e-324"), 4.9406564584124654e-324);
  EXPECT_THROW(parse_f64("1.5x"), ParseError);
  EXPECT_THROW(parse_f64(""), ParseError);
  EXPECT_THROW(parse_f64("   "), ParseError);
  EXPECT_THROW(parse_f64("1e"), ParseError);
}

TEST(Strings, IsBlank) {
  EXPECT_TRUE(is_blank("  \t\n"));
  EXPECT_TRUE(is_blank(""));
  EXPECT_FALSE(is_blank(" x "));
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRanges) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.uniform(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
    const auto n = rng.uniform_int(-3, 3);
    EXPECT_GE(n, -3);
    EXPECT_LE(n, 3);
    const auto b = rng.next_below(10);
    EXPECT_LT(b, 10u);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMeanApprox) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Arena, AllocatesAlignedDistinct) {
  Arena arena(128);
  void* a = arena.allocate(10, 8);
  void* b = arena.allocate(10, 8);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
}

TEST(Arena, GrowsPastChunkSize) {
  Arena arena(64);
  void* big = arena.allocate(1024);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xAA, 1024);  // must be writable
  void* after = arena.allocate(16);
  EXPECT_NE(after, nullptr);
}

TEST(Arena, BytesUsedCountsTheCurrentChunk) {
  Arena arena(64);
  EXPECT_EQ(arena.bytes_used(), 0u);
  (void)arena.allocate(1024);
  EXPECT_GE(arena.bytes_used(), 1024u);
  (void)arena.allocate(16);
  EXPECT_GE(arena.bytes_used(), 1040u);
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
}

TEST(Arena, CopyPreservesBytes) {
  Arena arena;
  const char src[] = "payload";
  auto* copy = static_cast<char*>(arena.copy(src, sizeof src));
  EXPECT_STREQ(copy, "payload");
  EXPECT_NE(static_cast<const void*>(copy), static_cast<const void*>(src));
}

TEST(Arena, ZeroSizeAllocationsAreValid) {
  Arena arena;
  void* a = arena.allocate(0);
  void* b = arena.allocate(0);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(b, nullptr);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace sbq
