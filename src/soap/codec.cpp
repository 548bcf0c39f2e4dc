#include "soap/codec.h"

#include <charconv>
#include <limits>
#include <span>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/base64.h"
#include "common/error.h"
#include "common/strings.h"

namespace sbq::soap {

using pbio::Arity;
using pbio::FieldDesc;
using pbio::FormatDesc;
using pbio::TypeKind;
using pbio::Value;

namespace {

std::string_view xsi_type_name(TypeKind kind) {
  switch (kind) {
    case TypeKind::kInt32: return "xsd:int";
    case TypeKind::kInt64: return "xsd:long";
    case TypeKind::kUInt32: return "xsd:unsignedInt";
    case TypeKind::kUInt64: return "xsd:unsignedLong";
    case TypeKind::kFloat32: return "xsd:float";
    case TypeKind::kFloat64: return "xsd:double";
    case TypeKind::kChar: return "xsd:byte";
    case TypeKind::kString: return "xsd:string";
    case TypeKind::kStruct: return "tns:struct";
  }
  return "xsd:anyType";
}

bool is_signed_kind(TypeKind kind) {
  return kind == TypeKind::kInt32 || kind == TypeKind::kInt64;
}
bool is_unsigned_kind(TypeKind kind) {
  return kind == TypeKind::kUInt32 || kind == TypeKind::kUInt64;
}
bool is_float_kind(TypeKind kind) {
  return kind == TypeKind::kFloat32 || kind == TypeKind::kFloat64;
}

// ---------------------------------------------------------------- write

class Encoder {
 public:
  Encoder(xml::XmlWriter& writer, XmlStyle style) : writer_(writer), style_(style) {}

  void record(const Value& value, const FormatDesc& format, std::string_view name) {
    if (!value.is_record()) {
      throw CodecError("XML encoding of format '" + format.name + "' needs a record");
    }
    writer_.start_element(name);
    if (style_.typed) {
      scratch_.assign("tns:");
      scratch_ += format.name;
      writer_.attribute("xsi:type", scratch_);
    }
    for (std::size_t i = 0; i < format.fields.size(); ++i) {
      const FieldDesc& field = format.fields[i];
      // Records built for a format hold its fields in order; look up by
      // name only when this one does not.
      const Value* v = i < value.field_count() && value.field_name(i) == field.name
                           ? &value.field_at(i)
                           : value.find_field(field.name);
      if (v == nullptr) {
        throw CodecError("record missing field '" + field.name + "'");
      }
      write_field(*v, field);
    }
    writer_.end_element();
  }

 private:
  void start_scalar(TypeKind kind, std::string_view name) {
    writer_.start_element(name);
    if (style_.typed) writer_.attribute("xsi:type", xsi_type_name(kind));
  }

  void scalar(const Value& v, TypeKind kind, std::string_view name) {
    start_scalar(kind, name);
    switch (kind) {
      case TypeKind::kInt32:
      case TypeKind::kInt64:
        writer_.number(v.as_i64());
        break;
      case TypeKind::kUInt32:
      case TypeKind::kUInt64:
        writer_.number(v.as_u64());
        break;
      case TypeKind::kFloat32:
      case TypeKind::kFloat64:
        writer_.number(v.as_f64());
        break;
      case TypeKind::kChar:
        // Chars travel as their numeric value: whitespace and control
        // characters are not representable as XML character data (and would
        // be destroyed by whitespace trimming on the read side).
        writer_.number(std::int64_t{static_cast<unsigned char>(v.as_char())});
        break;
      case TypeKind::kString:
        writer_.text(v.as_string());
        break;
      default:
        throw CodecError("write_scalar: unexpected kind");
    }
    writer_.end_element();
  }

  // One <item> per element of a contiguous numeric array, converted as
  // the Value accessors convert, without a Value per element.
  template <class T>
  void numeric_items(std::span<const T> elems, TypeKind kind) {
    for (const T x : elems) {
      start_scalar(kind, "item");
      if (is_signed_kind(kind)) {
        writer_.number(static_cast<std::int64_t>(x));
      } else if (is_unsigned_kind(kind)) {
        writer_.number(static_cast<std::uint64_t>(x));
      } else {
        writer_.number(static_cast<double>(x));
      }
      writer_.end_element();
    }
  }

  void write_field(const Value& v, const FieldDesc& field) {
    if (field.arity == Arity::kScalar) {
      if (field.kind == TypeKind::kStruct) {
        record(v, *field.struct_format, field.name);
      } else {
        scalar(v, field.kind, field.name);
      }
      return;
    }
    // Bulk char arrays (string-backed) travel as xsd:base64Binary text.
    if (field.kind == TypeKind::kChar && v.is_string()) {
      writer_.start_element(field.name);
      if (style_.typed) writer_.attribute("xsi:type", "xsd:base64Binary");
      writer_.text(base64_encode(std::string_view{v.as_string()}));
      writer_.end_element();
      return;
    }
    // SOAP array encoding: a container element with one <item> per value —
    // the per-element tagging that makes XML arrays several times the size
    // of the equivalent PBIO message.
    writer_.start_element(field.name);
    if (style_.typed) {
      char count[24];
      const auto end = std::to_chars(count, count + sizeof count, v.array_size()).ptr;
      scratch_.assign(xsi_type_name(field.kind));
      scratch_ += '[';
      scratch_.append(count, end);
      scratch_ += ']';
      writer_.attribute("soapenc:arrayType", scratch_);
    }
    v.visit_array([&](auto elems) {
      using T = std::remove_cv_t<typename decltype(elems)::element_type>;
      if constexpr (std::is_same_v<T, Value>) {
        for (const Value& elem : elems) item(elem, field);
      } else if (is_signed_kind(field.kind) || is_unsigned_kind(field.kind) ||
                 is_float_kind(field.kind)) {
        numeric_items(elems, field.kind);
      } else {
        for (const T elem : elems) item(Value{elem}, field);
      }
    });
    writer_.end_element();
  }

  void item(const Value& elem, const FieldDesc& field) {
    if (field.kind == TypeKind::kStruct) {
      record(elem, *field.struct_format, "item");
    } else {
      scalar(elem, field.kind, "item");
    }
  }

  xml::XmlWriter& writer_;
  XmlStyle style_;
  std::string scratch_;  // attribute values built per element
};

// ---------------------------------------------------------------- read

Value scalar_from_text(TypeKind kind, std::string_view text) {
  switch (kind) {
    case TypeKind::kInt32:
    case TypeKind::kInt64:
      return Value{parse_i64(text)};
    case TypeKind::kUInt32:
    case TypeKind::kUInt64:
      return Value{parse_u64(text)};
    case TypeKind::kFloat32:
    case TypeKind::kFloat64:
      return Value{parse_f64(text)};
    case TypeKind::kChar: {
      const std::string_view t = trim(text);
      if (t.empty()) return Value{'\0'};
      // Numeric form (written by this codec); single-character form is
      // accepted for hand-written documents.
      if (t.size() > 1 || (t[0] >= '0' && t[0] <= '9')) {
        std::int64_t n = 0;
        const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), n);
        if (ec == std::errc{} && end == t.data() + t.size()) return Value{static_cast<char>(n)};
      }
      return Value{t[0]};
    }
    case TypeKind::kString:
      // Strings keep untrimmed text (whitespace may be significant).
      return Value{std::string(text)};
    default:
      throw CodecError("read_scalar: unexpected kind");
  }
}

// Reads one record in a single pass over the reader's tokens, without
// recursion: an explicit stack holds one frame per open record or array.
// A record frame holds the record's fields, one slot per format field,
// filled as the elements arrive; a field's element is expected in format
// order and looked up by name otherwise.
class Decoder {
 public:
  explicit Decoder(xml::Reader& reader) : reader_(reader) {}

  Value read(const FormatDesc& format) {
    push_record(format, kItem);
    for (;;) {
      switch (reader_.next()) {
        case xml::Reader::Token::kStartElement:
          start_child();
          break;
        case xml::Reader::Token::kText:
        case xml::Reader::Token::kCData:
          // Only a char array keeps its own text: the base64 form.
          if (const FieldDesc* array = frames_.back().array;
              array != nullptr && array->kind == TypeKind::kChar) {
            base64_ += reader_.text();
          }
          break;
        case xml::Reader::Token::kEndElement: {
          const std::size_t slot = frames_.back().slot;
          Value done = finish_top();
          if (frames_.empty()) return done;
          if (slot == kItem) {
            std::get<std::vector<Value>>(frames_.back().items).push_back(std::move(done));
          } else {
            fill(slot, std::move(done));
          }
          break;
        }
        case xml::Reader::Token::kEndOfDocument:
          throw ParseError("document ended inside <" + std::string(frames_.back().element) + ">");
        default:
          break;
      }
    }
  }

 private:
  static constexpr std::size_t kItem = std::numeric_limits<std::size_t>::max();

  // An array's elements: Values, or a typed vector for numbers.
  using Items =
      std::variant<std::vector<Value>, Value::I64Array, Value::U64Array, Value::F64Array>;

  struct Frame {
    const FormatDesc* format = nullptr;  // a record's format
    const FieldDesc* array = nullptr;    // an array's field
    std::string_view element;            // element name, for errors
    std::size_t slot = kItem;            // field index in the parent record, or kItem
    std::size_t filled_base = 0;         // record: its first flag in filled_
    std::size_t next_field = 0;          // record: the field expected next
    bool saw_item = false;               // array
    std::vector<Value::NamedValue> fields;  // record: one slot per format field
    Items items;                            // array: its elements
  };

  void push_record(const FormatDesc& format, std::size_t slot) {
    Frame& frame = frames_.emplace_back();
    frame.format = &format;
    frame.element = reader_.name();
    frame.slot = slot;
    frame.filled_base = filled_.size();
    frame.fields.resize(format.fields.size());
    filled_.resize(filled_.size() + format.fields.size(), 0);
  }

  void push_array(const FieldDesc& field, std::size_t slot) {
    Frame& frame = frames_.emplace_back();
    frame.array = &field;
    frame.element = reader_.name();
    frame.slot = slot;
    if (is_signed_kind(field.kind)) {
      frame.items.emplace<Value::I64Array>();
    } else if (is_unsigned_kind(field.kind)) {
      frame.items.emplace<Value::U64Array>();
    } else if (is_float_kind(field.kind)) {
      frame.items.emplace<Value::F64Array>();
    }
    if (field.kind == TypeKind::kChar) base64_.clear();
  }

  // Stores field `slot` of the record on top of the stack.
  void fill(std::size_t slot, Value value) {
    Frame& record = frames_.back();
    record.fields[slot].value = std::move(value);
    filled_[record.filled_base + slot] = 1;
  }

  void start_child() {
    Frame& top = frames_.back();
    const std::string_view local = xml::local_part(reader_.name());
    if (top.array != nullptr) {
      if (local != "item") return reader_.skip_element();
      top.saw_item = true;
      const FieldDesc& field = *top.array;
      if (field.kind == TypeKind::kStruct) return push_record(*field.struct_format, kItem);
      text_.clear();
      reader_.read_text(text_);
      return std::visit([&](auto& items) { append_item(items, field.kind); }, top.items);
    }
    const std::vector<FieldDesc>& fields = top.format->fields;
    std::size_t i = top.next_field;
    if (i >= fields.size() || fields[i].name != local) {
      i = 0;
      while (i < fields.size() && fields[i].name != local) ++i;
      if (i == fields.size()) return reader_.skip_element();
    }
    // The first occurrence of a field wins.
    if (filled_[top.filled_base + i] != 0) return reader_.skip_element();
    top.next_field = i + 1;
    const FieldDesc& field = fields[i];
    if (field.arity != Arity::kScalar) return push_array(field, i);
    if (field.kind == TypeKind::kStruct) return push_record(*field.struct_format, i);
    text_.clear();
    reader_.read_text(text_);
    fill(i, scalar_from_text(field.kind, text_));
  }

  void append_item(Value::I64Array& items, TypeKind) { items.push_back(parse_i64(text_)); }
  void append_item(Value::U64Array& items, TypeKind) { items.push_back(parse_u64(text_)); }
  void append_item(Value::F64Array& items, TypeKind) { items.push_back(parse_f64(text_)); }
  void append_item(std::vector<Value>& items, TypeKind kind) {
    items.push_back(scalar_from_text(kind, text_));
  }

  Value finish_top() {
    Frame& top = frames_.back();
    Value done = top.array != nullptr ? finish_array(top) : finish_record(top);
    frames_.pop_back();
    return done;
  }

  Value finish_record(Frame& frame) {
    const FormatDesc& format = *frame.format;
    for (std::size_t i = 0; i < format.fields.size(); ++i) {
      const FieldDesc& field = format.fields[i];
      if (filled_[frame.filled_base + i] == 0) {
        throw ParseError("element <" + std::string(frame.element) + "> missing <" +
                         field.name + "> required by format '" + format.name + "'");
      }
      frame.fields[i].name = field.name;
    }
    filled_.resize(frame.filled_base);
    return Value(std::move(frame.fields));
  }

  Value finish_array(Frame& frame) {
    const FieldDesc& field = *frame.array;
    // Char arrays without <item> children are base64-encoded bulk bytes.
    if (field.kind == TypeKind::kChar && !frame.saw_item) {
      Value bytes{base64_decode_string(trim(base64_))};
      if (field.arity == Arity::kFixedArray && bytes.as_string().size() != field.fixed_count) {
        throw ParseError("fixed char array '" + field.name + "' expects " +
                         std::to_string(field.fixed_count) + " bytes");
      }
      return bytes;
    }
    const std::size_t count =
        std::visit([](const auto& items) { return items.size(); }, frame.items);
    if (field.arity == Arity::kFixedArray && count != field.fixed_count) {
      throw ParseError("fixed array '" + field.name + "' expects " +
                       std::to_string(field.fixed_count) + " items, got " +
                       std::to_string(count));
    }
    return std::visit([](auto& items) { return Value(std::move(items)); }, frame.items);
  }

  xml::Reader& reader_;
  std::vector<Frame> frames_;
  std::vector<std::uint8_t> filled_;  // per open record, a flag per field
  std::string text_;     // the current scalar's text
  std::string base64_;   // the open char array's own text
};

}  // namespace

void write_value_xml(xml::XmlWriter& writer, const Value& value,
                     const FormatDesc& format, std::string_view name,
                     XmlStyle style) {
  Encoder(writer, style).record(value, format, name);
}

std::string value_to_xml(const Value& value, const FormatDesc& format,
                         std::string_view name, XmlStyle style) {
  xml::XmlWriter writer;
  write_value_xml(writer, value, format, name, style);
  return writer.take();
}

Value read_value_xml(xml::Reader& reader, const FormatDesc& format) {
  return Decoder(reader).read(format);
}

Value value_from_xml(std::string_view document, const FormatDesc& format) {
  xml::Reader reader(document);
  // Anything before the root is a comment or PI; the reader rejects the rest.
  while (reader.next() != xml::Reader::Token::kStartElement) {
  }
  Value value = read_value_xml(reader, format);
  while (reader.next() != xml::Reader::Token::kEndOfDocument) {
  }
  return value;
}

}  // namespace sbq::soap
