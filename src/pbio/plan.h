// PBIO "receiver makes right" decoding through compiled plans — the
// dynamic-code-generation analogue, and the only PBIO decoder.
//
// The receiver decodes a payload described by the SENDER's format into the
// shape of the RECEIVER's format. The decoder reads the payload once, in
// order; it swaps byte order when the sender's differs, matches fields by NAME
// (senders and receivers may disagree about field order or about which
// fields exist), and zero-fills receiver fields the sender did not supply —
// the mechanism SOAP-binQ's quality layer reuses to lift a reduced request
// and pad a reduced reply back to the operation's full type in one decode.
//
// The original PBIO used DILL dynamic binary code generation to emit a
// specialized conversion routine per (sender format, receiver format) pair.
// Portable C++ cannot JIT, but it can compile the conversion *decisions*
// (field matching by name, byte-order handling, skips, zero-fills) once into
// a flat operation list, one op per sender field, and execute that list
// with a tight interpreter: metadata work happens once per format pair, not
// per message.
//
// The plan has one sink, execute_value(), reading through a ChainReader so
// a message that arrived in segments is never flattened. It builds a Value
// record of the receiver's fields in its order. A matched field keeps what
// the sender sent (kind class and element count); receiver-only fields are
// filled as zero_value() fills them. Shapes no conversion bridges (scalar vs
// array, struct vs non-struct, fixed vs var array, string vs non-string)
// fail to compile with CodecError.
//
// A plan is specific to sender format + receiver format + sender byte
// order; PlanCache memoizes all three and compiles each shared sub-format
// once. Callers own the cache and keep it across messages. A server's cache
// holds at most one plan (plus sub-plans) per registered sender format ×
// operation type × byte order: sender formats resolve only through the
// format server, so a peer cannot make it compile plans for unknown formats.
//
// Array counts read off the wire are checked against the bytes left before
// any element storage is allocated.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/buffer_chain.h"
#include "pbio/format.h"
#include "pbio/value.h"

namespace sbq::pbio {

class DecodePlan;
class PlanCache;
using PlanPtr = std::shared_ptr<const DecodePlan>;

/// A compiled conversion routine. Thread-safe to execute concurrently.
class DecodePlan {
 public:
  /// Decodes the `payload_length`-byte payload at `reader` (no wire header)
  /// into a Value record of the receiver's fields (see the file comment).
  Value execute_value(ChainReader& reader, std::size_t payload_length) const;

 private:
  friend class PlanCache;

  /// One sender field.
  struct Op {
    enum class Kind : std::uint8_t {
      kScalar,       // one scalar
      kString,       // u32 length + bytes
      kScalarArray,  // [count] scalars, fixed or var
      kStruct,       // embedded struct via sub-plan (or skip)
      kStructArray,  // fixed or var array of structs via sub-plan (or skip)
    };
    Kind kind = Kind::kScalar;
    TypeKind wire_kind = TypeKind::kInt32;
    std::int32_t slot = -1;         // receiver field; -1 = skipped
    std::uint32_t fixed_count = 0;  // fixed arrays; 0 = read u32 count
    std::size_t min_elem_wire = 0;  // arrays: fewest wire bytes per element
                                    // (exact for scalar elements)
    const FormatDesc* wire_format = nullptr;  // struct ops: sender sub-format
    PlanPtr sub_plan;  // struct ops that are not skipped
  };

  DecodePlan(FormatPtr sender, FormatPtr receiver, ByteOrder order)
      : sender_(std::move(sender)), receiver_(std::move(receiver)), order_(order) {}

  /// Compiles sender→receiver for payloads in `order`; sub-plans for
  /// embedded structs come from `cache`.
  static PlanPtr compile(FormatPtr sender, FormatPtr receiver, ByteOrder order,
                         PlanCache& cache);

  /// The walk over one record; sub-plans run it for nested ones.
  [[nodiscard]] Value value_record(ChainReader& reader) const;
  /// Reads an array op's element count, rejecting one the message cannot hold.
  std::uint32_t read_count(const Op& op, ChainReader& reader) const;

  FormatPtr sender_;  // owns the sub-formats that ops' wire_format point into
  FormatPtr receiver_;
  ByteOrder order_;
  std::vector<Op> ops_;
  std::vector<std::uint32_t> zero_fields_;  // receiver fields the sender lacks
};

/// Memoizes plans by (sender id, receiver id, order), sub-plans included,
/// and is the only way to obtain a plan. Thread-safe.
class PlanCache {
 public:
  PlanPtr get(const FormatPtr& sender, const FormatPtr& receiver, ByteOrder order);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t hit_count() const;
  [[nodiscard]] std::size_t compile_count() const;

 private:
  struct Key {
    FormatId sender;
    FormatId receiver;
    std::uint8_t order;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>{}(k.sender * 1000003u ^ k.receiver ^
                                        (std::uint64_t{k.order} << 63));
    }
  };

  mutable std::mutex mu_;
  std::unordered_map<Key, PlanPtr, KeyHash> plans_;
  std::size_t hits_ = 0;
  std::size_t compiles_ = 0;
};

/// Decodes a payload known to use `format` into a Value record, consuming
/// exactly `payload_length` bytes from the reader, through the plan from
/// `format` to itself. Those plans live in one process-wide cache, one per
/// format and byte order; `format` must be owned by a FormatPtr.
Value decode_value_payload(ChainReader& reader, std::size_t payload_length,
                           ByteOrder sender_order, const FormatDesc& format);

/// Decodes a full message (header + payload) held in one buffer, as above.
Value decode_value_message(BytesView message, const FormatDesc& format);

}  // namespace sbq::pbio
