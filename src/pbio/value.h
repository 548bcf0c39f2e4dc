// Dynamic record model.
//
// The SOAP-binQ runtime learns parameter types from WSDL at runtime, so it
// cannot use compile-time native structs. Value is the dynamic counterpart:
// a tree of scalars, strings, arrays and records that encodes to exactly the
// same PBIO wire bytes as a native struct with the same format — tests
// assert byte-for-byte equality between the two paths.
//
// A Value holds one std::variant, so exactly one alternative is live: null,
// a widened scalar, a string, an array of Values, or a record stored as an
// ordered vector of NamedValue {name, value} pairs.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/error.h"

namespace sbq::pbio {

/// A dynamically typed datum. Numeric scalars are stored widened (i64 / u64 /
/// double); the format supplies the wire width at encode time. Records keep
/// their fields ordered because PBIO payloads are positional.
class Value {
 public:
  struct NamedValue;  // {name, value}; defined after Value is complete

  Value() = default;
  Value(std::int64_t v) : data_(v) {}                  // NOLINT(google-explicit-constructor)
  Value(int v) : data_(std::int64_t{v}) {}             // NOLINT
  Value(std::uint64_t v) : data_(v) {}                 // NOLINT
  Value(unsigned v) : data_(std::uint64_t{v}) {}       // NOLINT
  Value(double v) : data_(v) {}                        // NOLINT
  Value(char v) : data_(v) {}                          // NOLINT
  Value(std::string v) : data_(std::move(v)) {}        // NOLINT
  Value(const char* v) : data_(std::string(v)) {}      // NOLINT

  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(data_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<std::vector<Value>>(data_); }
  [[nodiscard]] bool is_record() const {
    return std::holds_alternative<std::vector<NamedValue>>(data_);
  }

  /// Numeric accessors convert between numeric classes; non-numeric storage
  /// throws CodecError.
  [[nodiscard]] std::int64_t as_i64() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] double as_f64() const;
  [[nodiscard]] char as_char() const;

  /// Exact-type accessors; throw CodecError on kind mismatch.
  [[nodiscard]] const std::string& as_string() const;

  // --- arrays -------------------------------------------------------------

  /// Creates an empty array value.
  static Value empty_array();
  static Value array(std::initializer_list<Value> elements);

  [[nodiscard]] std::size_t array_size() const;
  [[nodiscard]] const Value& at(std::size_t i) const;
  void push_back(Value v);
  [[nodiscard]] const std::vector<Value>& elements() const;

  // --- records ------------------------------------------------------------

  /// Creates an empty record value.
  static Value empty_record();
  static Value record(std::initializer_list<NamedValue> fields);

  [[nodiscard]] std::size_t field_count() const;
  [[nodiscard]] const std::string& field_name(std::size_t i) const;
  [[nodiscard]] const Value& field_at(std::size_t i) const;

  /// Field access by name. `field` throws when absent; `find_field` returns
  /// nullptr.
  [[nodiscard]] const Value& field(std::string_view name) const;
  [[nodiscard]] const Value* find_field(std::string_view name) const;

  /// Sets (appending) or replaces a record field. A null Value becomes a
  /// record first.
  void set_field(std::string_view name, Value v);

  // --- misc ---------------------------------------------------------------

  /// Equal when the same alternative holds equal contents; record fields
  /// compare in order, names included.
  bool operator==(const Value& other) const = default;

  /// Debug rendering, e.g. `{count: 3, data: [1, 2, 3]}`.
  [[nodiscard]] std::string to_debug_string() const;

 private:
  template <class T>
  const T& get(const char* what) const;
  template <class T>
  T& get(const char* what);
  template <class R>
  R numeric(const char* what) const;
  [[noreturn]] void wrong_kind(const char* what) const;

  std::variant<std::monostate, std::int64_t, std::uint64_t, double, char, std::string,
               std::vector<Value>, std::vector<NamedValue>>
      data_;
};

/// One record field; also the element type of the Value::record(...) literal.
struct Value::NamedValue {
  std::string name;
  Value value;

  bool operator==(const NamedValue& other) const = default;
};

}  // namespace sbq::pbio
