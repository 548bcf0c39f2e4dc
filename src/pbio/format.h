// PBIO format descriptors ("formats").
//
// A format plays the role an XML schema plays for a document: it describes
// how a structured record is laid out. PBIO ("Portable Binary Input/Output",
// Eisenhauer et al., the paper's native data representation) lets the sender
// transmit records in its own native layout; the receiver converts only if
// its layout differs — the "receiver makes right" discipline.
//
// Differences from the historical C library, documented per DESIGN.md §3:
//  * variable-length arrays are represented natively as an inline
//    {count, pointer} pair (see VarArray<T>) instead of referencing a
//    separate integer length field by name; this keeps the native and
//    dynamic (Value) paths symmetric,
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
  kString = 7,   // native: const char*, NUL-terminated
  kStruct = 8,   // native: embedded sub-struct
};

/// How many instances of the base kind a field holds.
enum class Arity : std::uint8_t {
  kScalar = 0,
  kFixedArray = 1,  // `count` elements embedded inline
  kVarArray = 2,    // native: VarArray<T> {count, data}
};

/// Native representation of a variable-length array field.
///
/// The pointed-to data is NOT owned by the record; encode reads through the
/// pointer, decode allocates the element storage from the caller's Arena.
template <typename T>
struct VarArray {
  std::uint32_t count = 0;
  const T* data = nullptr;
};

struct FormatDesc;  // forward

/// One field of a format.
struct FieldDesc {
  std::string name;
  TypeKind kind = TypeKind::kInt32;
  Arity arity = Arity::kScalar;
  std::uint32_t fixed_count = 0;  // kFixedArray only
  std::shared_ptr<const FormatDesc> struct_format;  // kStruct only

  std::uint32_t offset = 0;  // byte offset in the native struct
  std::uint32_t size = 0;    // native size of the whole field (incl. arrays)

  /// Native size of a single element of this field.
  [[nodiscard]] std::uint32_t element_size() const;
  /// Native alignment of this field.
  [[nodiscard]] std::uint32_t alignment() const;
};

/// Identifier under which a format is registered with the format server.
using FormatId = std::uint64_t;

/// A complete format: named, ordered fields plus the native struct size.
/// Formats are shared (FormatPtr); shared_from_this() recovers the owner of
/// one held by reference.
struct FormatDesc : std::enable_shared_from_this<FormatDesc> {
  std::string name;
  std::vector<FieldDesc> fields;
  std::uint32_t native_size = 0;
  std::uint32_t native_align = 1;

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

/// Builds a FormatDesc, computing natural-alignment offsets automatically
/// (matching what a C++ compiler produces for a struct with the same member
/// order, which lets native structs round-trip through offsetof checks).
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

  /// Finalizes offsets/sizes and returns the immutable format.
  [[nodiscard]] FormatPtr build();

 private:
  FieldDesc& push(std::string name, TypeKind kind, Arity arity);

  FormatDesc desc_;
};

/// Size in bytes of one scalar of `kind` (strings/structs have no fixed
/// scalar size and throw CodecError).
std::uint32_t scalar_size(TypeKind kind);

/// Human-readable kind name ("i32", "f64", "string", ...).
std::string_view kind_name(TypeKind kind);

/// Serializes a format description for transmission to the format server.
Bytes serialize_format(const FormatDesc& format);

/// Reconstructs a format description received from the format server.
FormatPtr deserialize_format(BytesView bytes);

}  // namespace sbq::pbio
