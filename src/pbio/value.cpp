#include "pbio/value.h"

#include <algorithm>
#include <cstdio>
#include <type_traits>

namespace sbq::pbio {

namespace {
// Indexed by the variant's alternative order.
constexpr const char* kKindLabels[] = {"null", "int",    "uint",  "float", "char", "string",
                                       "array", "record", "array", "array", "array"};

// Element-wise equality of two array storages of any form.
template <class A, class B>
bool same_elements(std::span<const A> a, std::span<const B> b) {
  if constexpr (std::is_same_v<A, B>) {
    return std::ranges::equal(a, b);
  } else if constexpr (std::is_same_v<A, Value>) {
    return std::ranges::equal(a, b, [](const Value& x, B y) { return x == Value(y); });
  } else if constexpr (std::is_same_v<B, Value>) {
    return same_elements(b, a);
  } else {
    return a.empty() && b.empty();  // no element of one class equals one of another
  }
}

// Renders one storage alternative for Value::to_debug_string().
struct Render {
  std::string operator()(std::monostate) const { return "null"; }
  std::string operator()(std::int64_t x) const { return std::to_string(x); }
  std::string operator()(std::uint64_t x) const { return std::to_string(x) + "u"; }
  std::string operator()(double x) const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%g", x);
    return buf;
  }
  std::string operator()(char x) const { return std::string("'") + x + "'"; }
  std::string operator()(const std::string& x) const { return '"' + x + '"'; }
  std::string operator()(const Value& v) const { return v.to_debug_string(); }
  template <class T>
  std::string operator()(const std::vector<T>& elems) const {
    std::string out = "[";
    for (const T& e : elems) out += (out.size() > 1 ? ", " : "") + (*this)(e);
    return out + "]";
  }
  std::string operator()(const std::vector<Value::NamedValue>& fields) const {
    std::string out = "{";
    for (const Value::NamedValue& f : fields) {
      out += (out.size() > 1 ? ", " : "") + f.name + ": " + f.value.to_debug_string();
    }
    return out + "}";
  }
};
}  // namespace

Value::Value(const Value& other) = default;
Value::Value(Value&& other) noexcept = default;
Value& Value::operator=(const Value& other) = default;
Value& Value::operator=(Value&& other) noexcept = default;
Value::~Value() = default;
Value::Value(std::vector<NamedValue> fields) : data_(std::move(fields)) {}

void Value::wrong_kind(const char* what) const {
  throw CodecError(std::string("value is ") + kKindLabels[data_.index()] + ", wanted " + what);
}

template <class T>
const T& Value::get(const char* what) const {
  if (const T* p = std::get_if<T>(&data_)) return *p;
  wrong_kind(what);
}

template <class T>
T& Value::get(const char* what) {
  if (T* p = std::get_if<T>(&data_)) return *p;
  wrong_kind(what);
}

// Every arithmetic alternative converts with static_cast; the rest throw.
template <class R>
R Value::numeric(const char* what) const {
  return std::visit(
      [&](const auto& x) -> R {
        if constexpr (std::is_arithmetic_v<std::decay_t<decltype(x)>>) {
          return static_cast<R>(x);
        } else {
          wrong_kind(what);
        }
      },
      data_);
}

std::int64_t Value::as_i64() const { return numeric<std::int64_t>("numeric"); }

std::uint64_t Value::as_u64() const {
  if (const char* c = std::get_if<char>(&data_)) return static_cast<unsigned char>(*c);
  return numeric<std::uint64_t>("numeric");
}

double Value::as_f64() const { return numeric<double>("numeric"); }

char Value::as_char() const {
  if (std::holds_alternative<double>(data_)) wrong_kind("char");
  return numeric<char>("char");
}

const std::string& Value::as_string() const { return get<std::string>("string"); }

bool Value::is_array() const {
  return std::holds_alternative<std::vector<Value>>(data_) ||
         std::holds_alternative<I64Array>(data_) || std::holds_alternative<U64Array>(data_) ||
         std::holds_alternative<F64Array>(data_);
}

Value Value::empty_array() {
  Value v;
  v.data_.emplace<std::vector<Value>>();
  return v;
}

Value Value::array(std::initializer_list<Value> elements) {
  Value v = empty_array();
  for (const Value& e : elements) v.push_back(e);
  return v;
}

std::size_t Value::array_size() const {
  return visit_array([](auto elems) { return elems.size(); });
}

Value Value::at(std::size_t i) const {
  return visit_array([i](auto elems) -> Value {
    if (i >= elems.size()) throw CodecError("array index " + std::to_string(i) + " out of range");
    return elems[i];
  });
}

void Value::push_back(Value v) {
  const std::size_t size = array_size();  // throws unless an array
  // A scalar of a contiguous class starts an empty array in that form, or
  // extends an array already in it.
  const auto extend = [&]<class T>(std::type_identity<T>) {
    const T* x = std::get_if<T>(&v.data_);
    if (x == nullptr) return false;
    if (size == 0) {
      data_.emplace<std::vector<T>>(1, *x);
      return true;
    }
    auto* contiguous = std::get_if<std::vector<T>>(&data_);
    if (contiguous != nullptr) contiguous->push_back(*x);
    return contiguous != nullptr;
  };
  if (extend(std::type_identity<std::int64_t>{}) || extend(std::type_identity<std::uint64_t>{}) ||
      extend(std::type_identity<double>{})) {
    return;
  }
  // Anything else lives in a vector of Values.
  if (!std::holds_alternative<std::vector<Value>>(data_)) {
    data_ = visit_array(
        [](auto elems) { return std::vector<Value>(elems.begin(), elems.end()); });
  }
  std::get<std::vector<Value>>(data_).push_back(std::move(v));
}

Value::Elements Value::elements() const {
  if (!is_array()) wrong_kind("array");
  return Elements(*this);
}

const Value& Value::Elements::iterator::operator*() const {
  if (const auto* generic = std::get_if<std::vector<Value>>(&array_->data_)) {
    return (*generic)[i_];
  }
  current_ = array_->at(i_);
  return current_;
}

Value Value::slice(std::size_t end, std::size_t step) const {
  if (step == 0) throw CodecError("slice step must be positive");
  return visit_array([&](auto elems) {
    using T = std::remove_const_t<typename decltype(elems)::element_type>;
    const std::size_t stop = std::min(end, elems.size());
    std::vector<T> kept;
    kept.reserve(stop == 0 ? 0 : (stop - 1) / step + 1);
    for (std::size_t i = 0; i < stop; i += step) kept.push_back(elems[i]);
    Value out;
    out.data_ = std::move(kept);
    return out;
  });
}

Value Value::empty_record() {
  Value v;
  v.data_.emplace<std::vector<NamedValue>>();
  return v;
}

Value Value::record(std::initializer_list<NamedValue> fields) {
  Value v;
  v.data_.emplace<std::vector<NamedValue>>(fields);
  return v;
}

std::size_t Value::field_count() const { return get<std::vector<NamedValue>>("record").size(); }

const std::string& Value::field_name(std::size_t i) const {
  return get<std::vector<NamedValue>>("record").at(i).name;
}

const Value& Value::field_at(std::size_t i) const {
  return get<std::vector<NamedValue>>("record").at(i).value;
}

const Value* Value::find_field(std::string_view name) const {
  for (const NamedValue& f : get<std::vector<NamedValue>>("record")) {
    if (f.name == name) return &f.value;
  }
  return nullptr;
}

const Value& Value::field(std::string_view name) const {
  const Value* v = find_field(name);
  if (v == nullptr) throw CodecError("record has no field '" + std::string(name) + "'");
  return *v;
}

void Value::set_field(std::string_view name, Value v) {
  if (std::holds_alternative<std::monostate>(data_)) data_.emplace<std::vector<NamedValue>>();
  auto& fields = get<std::vector<NamedValue>>("record");
  for (NamedValue& f : fields) {
    if (f.name == name) {
      f.value = std::move(v);
      return;
    }
  }
  fields.push_back({std::string(name), std::move(v)});
}

bool Value::operator==(const Value& other) const {
  if (data_.index() == other.data_.index()) return data_ == other.data_;
  if (!is_array() || !other.is_array()) return false;
  return visit_array([&other](auto mine) {
    return other.visit_array([mine](auto theirs) { return same_elements(mine, theirs); });
  });
}

std::string Value::to_debug_string() const {
  return std::visit(Render{}, data_);
}

}  // namespace sbq::pbio
