// PBIO format descriptors ("formats").
//
// A format plays the role an XML schema plays for a document: it describes
// the fields of a structured record and so the shape of its PBIO payload.
// PBIO ("Portable Binary Input/Output", Eisenhauer et al.) lets the sender
// transmit records in its own byte order; the receiver converts only if its
// order or its format differs — the "receiver makes right" discipline.
// Records are held as pbio::Value trees (pbio/value.h); a format carries no
// C memory layout.
//
// Differences from the historical C library, documented per DESIGN.md §3:
//  * a variable-length array carries its own u32 count on the wire instead
//    of referencing a separate integer length field by name,
//  * formats are identified by a 64-bit structural hash rather than a
//    server-assigned ordinal; two structurally identical formats share an id,
//    which is exactly the caching behavior the format server needs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"

namespace sbq::pbio {

/// Scalar and composite kinds a field can have. The schema mirrors Soup's:
/// integer, char, string and float base types plus structs and arrays.
enum class TypeKind : std::uint8_t {
  kInt32 = 0,
  kInt64 = 1,
  kUInt32 = 2,
  kUInt64 = 3,
  kFloat32 = 4,
  kFloat64 = 5,
  kChar = 6,
  kString = 7,   // u32 length + bytes
  kStruct = 8,   // embedded sub-record
};

/// How many instances of the base kind a field holds.
enum class Arity : std::uint8_t {
  kScalar = 0,
  kFixedArray = 1,  // `count` elements embedded inline
  kVarArray = 2,    // u32 count + that many elements
};

struct FormatDesc;  // forward

/// One field of a format.
struct FieldDesc {
  std::string name;
  TypeKind kind = TypeKind::kInt32;
  Arity arity = Arity::kScalar;
  std::uint32_t fixed_count = 0;  // kFixedArray only
  std::shared_ptr<const FormatDesc> struct_format;  // kStruct only
};

/// Identifier under which a format is registered with the format server.
using FormatId = std::uint64_t;

/// A complete format: named, ordered fields. Formats are shared
/// (FormatPtr); shared_from_this() recovers the owner of one held by
/// reference.
struct FormatDesc : std::enable_shared_from_this<FormatDesc> {
  std::string name;
  std::vector<FieldDesc> fields;

  /// Structural 64-bit id (FNV-1a over the canonical rendering), computed
  /// once by FormatBuilder::build(). Stable across processes, so both peers
  /// compute the same id independently.
  [[nodiscard]] FormatId format_id() const;

  /// Canonical one-line rendering, e.g. "bond{count:u32,atoms:f64[]}".
  [[nodiscard]] std::string canonical() const;

  /// Field lookup by name; nullptr when absent.
  [[nodiscard]] const FieldDesc* field(std::string_view name) const;

  /// Total number of fields including those of nested structs (recursive) —
  /// the paper's format-registration cost grows with this.
  [[nodiscard]] std::size_t total_field_count() const;

  /// Maximum struct nesting depth (a flat format has depth 1).
  [[nodiscard]] std::size_t nesting_depth() const;

 private:
  friend class FormatBuilder;
  FormatId id_ = 0;
};

using FormatPtr = std::shared_ptr<const FormatDesc>;

/// Builds a FormatDesc.
class FormatBuilder {
 public:
  explicit FormatBuilder(std::string name);

  FormatBuilder& add_scalar(std::string name, TypeKind kind);
  FormatBuilder& add_fixed_array(std::string name, TypeKind kind, std::uint32_t count);
  FormatBuilder& add_var_array(std::string name, TypeKind kind);
  FormatBuilder& add_string(std::string name);
  FormatBuilder& add_struct(std::string name, FormatPtr format);
  FormatBuilder& add_struct_var_array(std::string name, FormatPtr format);
  FormatBuilder& add_struct_fixed_array(std::string name, FormatPtr format,
                                        std::uint32_t count);

  /// Computes the format id and returns the immutable format. Throws
  /// CodecError for a format one record of which needs more wire bytes than
  /// a PBIO payload length (u32) can carry.
  [[nodiscard]] FormatPtr build();

 private:
  FieldDesc& push(std::string name, TypeKind kind, Arity arity);

  FormatDesc desc_;
};

/// Size in bytes of one scalar of `kind` (strings/structs have no fixed
/// scalar size and throw CodecError).
std::uint32_t scalar_size(TypeKind kind);

/// Fewest wire bytes one record of `format` can occupy, saturated at 2^32
/// (more than any payload). Every field takes at least one byte, so this is
/// >= 1 for any format FormatBuilder accepts.
std::size_t min_wire_bytes(const FormatDesc& format);

/// Human-readable kind name ("i32", "f64", "string", ...).
std::string_view kind_name(TypeKind kind);

/// Serializes a format description for transmission to the format server.
Bytes serialize_format(const FormatDesc& format);

/// Reconstructs a format description received from the format server.
FormatPtr deserialize_format(BytesView bytes);

}  // namespace sbq::pbio
