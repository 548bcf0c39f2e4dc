// Lempel–Ziv (LZSS) compression, built from scratch.
//
// The paper's "SOAP (compressed XML)" baseline compresses SOAP payloads with
// Lempel–Ziv encoding before transmission. This module provides that
// baseline: a window-based LZSS with a hash-chain match finder. Highly tagged
// XML compresses to roughly PBIO size or below (Table I: 3898 B XML →
// 1264 B compressed), which this implementation reproduces.
//
// Wire format
//   [u32 le: uncompressed size]
//   repeated groups: 1 flag byte (LSB-first; 1 = literal, 0 = match)
//     literal: 1 raw byte
//     match:   2 bytes: 12-bit distance-1, 4-bit length-kMinMatch
//              (distance ∈ [1, 4096], length ∈ [3, 18])
#pragma once

#include "common/buffer_chain.h"
#include "common/bytes.h"

namespace sbq::lz {

/// Effort knob: larger values follow longer hash chains for better ratios.
struct CompressOptions {
  int max_chain = 64;
};

/// Compresses `input`; output always decompresses to exactly `input`.
Bytes compress(BytesView input, const CompressOptions& options = {});

/// Decompresses a buffer produced by compress(). Throws CodecError on
/// corrupt input (bad distances, truncated stream, size mismatch).
Bytes decompress(BytesView input);

/// Convenience overloads for text payloads.
Bytes compress_string(std::string_view s, const CompressOptions& options = {});
std::string decompress_string(BytesView input);
/// Decompresses a chain (a message body): a chain of one segment is read in
/// place, any other is coalesced first (a counted copy).
std::string decompress_string(const BufferChain& input);

}  // namespace sbq::lz
