#include "compress/lzss.h"

#include <algorithm>
#include <vector>

namespace sbq::lz {

namespace {

constexpr std::size_t kWindow = 4096;              // 12-bit distance
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = kMinMatch + 15;  // 4-bit length field
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1 << kHashBits;

std::uint32_t hash3(const std::uint8_t* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

}  // namespace

Bytes compress(BytesView input, const CompressOptions& options) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  const std::uint32_t size32 = static_cast<std::uint32_t>(input.size());
  out.push_back(static_cast<std::uint8_t>(size32 & 0xFF));
  out.push_back(static_cast<std::uint8_t>((size32 >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((size32 >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((size32 >> 24) & 0xFF));

  // head[h] = most recent position (offset by 1; 0 = none) with hash h;
  // prev[i % kWindow] links to the previous position in the same chain.
  std::vector<std::uint32_t> head(kHashSize, 0);
  std::vector<std::uint32_t> prev(kWindow, 0);

  const std::uint8_t* data = input.data();
  const std::size_t n = input.size();
  std::size_t pos = 0;

  std::size_t flag_pos = 0;
  std::uint8_t flag_bits = 0;
  int tokens_in_group = 0;

  auto begin_token = [&] {
    if (tokens_in_group == 0) {
      flag_pos = out.size();
      out.push_back(0);
      flag_bits = 0;
    }
  };
  auto finish_token = [&](bool literal) {
    if (literal) flag_bits |= static_cast<std::uint8_t>(1u << tokens_in_group);
    out[flag_pos] = flag_bits;
    if (++tokens_in_group == 8) tokens_in_group = 0;
  };
  auto insert_hash = [&](std::size_t p) {
    if (p + kMinMatch <= n) {
      const std::uint32_t h = hash3(data + p);
      prev[p % kWindow] = head[h];
      head[h] = static_cast<std::uint32_t>(p + 1);
    }
  };

  while (pos < n) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;

    if (pos + kMinMatch <= n) {
      std::uint32_t cand = head[hash3(data + pos)];
      int chain = options.max_chain;
      const std::size_t max_len = std::min(kMaxMatch, n - pos);
      while (cand != 0 && chain-- > 0) {
        const std::size_t cpos = cand - 1;
        if (pos - cpos > kWindow) break;  // older entries are only further away
        std::size_t len = 0;
        while (len < max_len && data[cpos + len] == data[pos + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = pos - cpos;
          if (len == max_len) break;
        }
        const std::uint32_t next = prev[cpos % kWindow];
        // A ring slot overwritten by a newer position would point forward;
        // that means the chain has been recycled — stop.
        if (next != 0 && next - 1 >= cpos) break;
        cand = next;
      }
    }

    if (best_len >= kMinMatch) {
      begin_token();
      const std::uint16_t token = static_cast<std::uint16_t>(
          ((best_dist - 1) << 4) | (best_len - kMinMatch));
      out.push_back(static_cast<std::uint8_t>(token & 0xFF));
      out.push_back(static_cast<std::uint8_t>(token >> 8));
      finish_token(false);
      for (std::size_t k = 0; k < best_len; ++k) insert_hash(pos + k);
      pos += best_len;
    } else {
      begin_token();
      out.push_back(data[pos]);
      finish_token(true);
      insert_hash(pos);
      ++pos;
    }
  }

  return out;
}

Bytes decompress(BytesView input) {
  ByteReader reader(input);
  const std::uint32_t expected = reader.read_u32(ByteOrder::kLittle);
  Bytes out;
  out.reserve(expected);

  std::uint8_t flags = 0;
  int bits_left = 0;
  while (out.size() < expected) {
    if (bits_left == 0) {
      flags = reader.read_u8();
      bits_left = 8;
    }
    const bool literal = (flags & 1u) != 0;
    flags >>= 1;
    --bits_left;
    if (literal) {
      out.push_back(reader.read_u8());
    } else {
      const std::uint8_t lo = reader.read_u8();
      const std::uint8_t hi = reader.read_u8();
      const std::uint16_t token = static_cast<std::uint16_t>(lo | (hi << 8));
      const std::size_t dist = static_cast<std::size_t>(token >> 4) + 1;
      const std::size_t len = static_cast<std::size_t>(token & 0x0F) + kMinMatch;
      if (dist > out.size()) throw CodecError("lzss: distance before start of data");
      if (out.size() + len > expected) throw CodecError("lzss: output overrun");
      const std::size_t from = out.size() - dist;
      for (std::size_t k = 0; k < len; ++k) out.push_back(out[from + k]);
    }
  }
  return out;
}

Bytes compress_string(std::string_view s, const CompressOptions& options) {
  return compress(as_bytes(s), options);
}

std::string decompress_string(BytesView input) {
  const Bytes b = decompress(input);
  return to_string(BytesView{b});
}

std::string decompress_string(const BufferChain& input) {
  if (input.segment_count() == 1) return decompress_string(input.segment(0));
  const Bytes flat = input.coalesce();
  return decompress_string(BytesView{flat});
}

}  // namespace sbq::lz
