#include "pbio/value.h"

#include <cstdio>
#include <type_traits>

namespace sbq::pbio {

namespace {
// Indexed by the variant's alternative order.
constexpr const char* kKindLabels[] = {"null",   "int",   "uint",  "float",
                                       "char",   "string", "array", "record"};
}  // namespace

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

Value Value::empty_array() {
  Value v;
  v.data_.emplace<std::vector<Value>>();
  return v;
}

Value Value::array(std::initializer_list<Value> elements) {
  Value v;
  v.data_.emplace<std::vector<Value>>(elements);
  return v;
}

std::size_t Value::array_size() const { return elements().size(); }

const Value& Value::at(std::size_t i) const {
  const auto& elems = elements();
  if (i >= elems.size()) throw CodecError("array index " + std::to_string(i) + " out of range");
  return elems[i];
}

void Value::push_back(Value v) { get<std::vector<Value>>("array").push_back(std::move(v)); }

const std::vector<Value>& Value::elements() const { return get<std::vector<Value>>("array"); }

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

std::string Value::to_debug_string() const {
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
    std::string operator()(const std::vector<Value>& elems) const {
      std::string out = "[";
      for (const Value& e : elems) out += (out.size() > 1 ? ", " : "") + e.to_debug_string();
      return out + "]";
    }
    std::string operator()(const std::vector<NamedValue>& fields) const {
      std::string out = "{";
      for (const NamedValue& f : fields) {
        out += (out.size() > 1 ? ", " : "") + f.name + ": " + f.value.to_debug_string();
      }
      return out + "}";
    }
  };
  return std::visit(Render{}, data_);
}

}  // namespace sbq::pbio
