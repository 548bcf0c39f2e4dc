// Dynamic record model.
//
// The SOAP-binQ runtime learns parameter types from WSDL at runtime, so it
// cannot use compile-time structs. Value is the one record model: a tree of
// scalars, strings, arrays and records, which every PBIO message is encoded
// from and decoded to (pbio/value_codec.h, pbio/plan.h) and which the XML
// codecs and the quality handlers read and build.
//
// A Value holds one std::variant, so exactly one alternative is live: null,
// a widened scalar, a string, an array, or a record stored as an ordered
// vector of NamedValue {name, value} pairs. An array whose elements are all
// of one widened scalar class (i64, u64 or double) is stored contiguously as
// a std::vector of that class, so the codec, copies and the quality handlers
// move it in one loop; any other array (records, strings, mixed kinds) is a
// vector of Values. The two array forms are one thing to callers: element
// access, `==` and `to_debug_string` do not depend on which form is held.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
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
  class Elements;     // read-only element range; defined after Value

  /// Contiguous storage of a scalar array, one vector per widened class.
  using I64Array = std::vector<std::int64_t>;
  using U64Array = std::vector<std::uint64_t>;
  using F64Array = std::vector<double>;

  Value() = default;
  // Out of line: destroying or copying a variant of eleven alternatives
  // inlined at every use would crowd the codec walkers out of inlining.
  Value(const Value& other);
  Value(Value&& other) noexcept;
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept;
  ~Value();
  Value(std::int64_t v) : data_(v) {}                  // NOLINT(google-explicit-constructor)
  Value(int v) : data_(std::int64_t{v}) {}             // NOLINT
  Value(std::uint64_t v) : data_(v) {}                 // NOLINT
  Value(unsigned v) : data_(std::uint64_t{v}) {}       // NOLINT
  Value(double v) : data_(v) {}                        // NOLINT
  Value(char v) : data_(v) {}                          // NOLINT
  Value(std::string v) : data_(std::move(v)) {}        // NOLINT
  Value(const char* v) : data_(std::string(v)) {}      // NOLINT
  /// Arrays from storage: a contiguous scalar array, or a vector of Values
  /// kept as given.
  explicit Value(std::vector<Value> v) : data_(std::move(v)) {}
  explicit Value(I64Array v) : data_(std::move(v)) {}
  explicit Value(U64Array v) : data_(std::move(v)) {}
  explicit Value(F64Array v) : data_(std::move(v)) {}
  /// A record from its fields, kept in the given order.
  explicit Value(std::vector<NamedValue> fields);

  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(data_); }
  [[nodiscard]] bool is_array() const;
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
  /// Same-class scalar elements build the contiguous form.
  static Value array(std::initializer_list<Value> elements);

  [[nodiscard]] std::size_t array_size() const;
  /// Element `i` as a Value (a copy); throws CodecError when out of range.
  [[nodiscard]] Value at(std::size_t i) const;
  /// Appends an element. A scalar pushed onto an empty array, or onto a
  /// contiguous array of its own class, stays contiguous; anything else
  /// turns the array into a vector of Values first.
  void push_back(Value v);
  /// Read-only range over the elements, yielding Values, for either form.
  [[nodiscard]] Elements elements() const;

  /// Calls `f` with the array's storage as a span: `std::span<const Value>`
  /// for a vector of Values, `std::span<const T>` (T = std::int64_t,
  /// std::uint64_t or double) for a contiguous scalar array. Throws
  /// CodecError when the value is not an array.
  template <class F>
  decltype(auto) visit_array(F&& f) const;

  /// Elements 0, step, 2·step, ... below `end` (clamped to the size), in
  /// the same storage form: the truncate and stride quality reductions.
  [[nodiscard]] Value slice(std::size_t end, std::size_t step = 1) const;

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

  /// Equal when both hold the same kind with equal contents; record fields
  /// compare in order, names included. Arrays compare element by element,
  /// whichever storage form each side holds.
  bool operator==(const Value& other) const;

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
               std::vector<Value>, std::vector<NamedValue>, I64Array, U64Array, F64Array>
      data_;
};

/// One record field; also the element type of the Value::record(...) literal.
struct Value::NamedValue {
  std::string name;
  Value value;

  bool operator==(const NamedValue& other) const = default;
};

/// What Value::elements() returns: size(), operator[] and iteration over
/// the elements of either array form, each yielded as a Value. It refers to
/// the array it came from, which must outlive it.
class Value::Elements {
 public:
  class iterator {
   public:
    using value_type = Value;
    using difference_type = std::ptrdiff_t;

    iterator(const Value* array, std::size_t i) : array_(array), i_(i) {}
    /// The element, by reference into a vector of Values (no copy of a
    /// record), or built from contiguous storage into the iterator, where
    /// it stays valid until the iterator moves.
    const Value& operator*() const;
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const iterator& other) const {
      return array_ == other.array_ && i_ == other.i_;
    }

   private:
    const Value* array_;
    std::size_t i_;
    mutable Value current_;
  };

  explicit Elements(const Value& array) : array_(&array) {}

  [[nodiscard]] std::size_t size() const { return array_->array_size(); }
  Value operator[](std::size_t i) const { return array_->at(i); }
  [[nodiscard]] iterator begin() const { return {array_, 0}; }
  [[nodiscard]] iterator end() const { return {array_, size()}; }

 private:
  const Value* array_;
};

template <class F>
decltype(auto) Value::visit_array(F&& f) const {
  if (const auto* v = std::get_if<std::vector<Value>>(&data_)) {
    return f(std::span<const Value>(*v));
  }
  if (const auto* v = std::get_if<I64Array>(&data_)) return f(std::span<const std::int64_t>(*v));
  if (const auto* v = std::get_if<U64Array>(&data_)) return f(std::span<const std::uint64_t>(*v));
  if (const auto* v = std::get_if<F64Array>(&data_)) return f(std::span<const double>(*v));
  wrong_kind("array");
}

}  // namespace sbq::pbio
