#include "soap/codec.h"

#include <charconv>
#include <initializer_list>
#include <limits>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/arena.h"
#include "common/base64.h"
#include "common/error.h"
#include "common/strings.h"
#include "xml/escape.h"

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

// ---------------------------------------------------------------- tags

// The tags of one format field, exactly as this codec writes them in one
// style.
struct FieldTags {
  std::string_view start;   // a typed array's container tag runs up to its count
  std::string_view end;
  std::string_view bulk;    // char arrays: the start tag of the base64 form
  std::string_view item;    // arrays: an item's start tag
  std::string_view expect;  // the start tag the decoder tries, if any
  FieldTags* sub = nullptr;  // struct fields and arrays: struct_format's tags, once reached
};

constexpr std::string_view kItemEnd = "</item>";

// The element tags, in one style, of every format one call reaches,
// rendered the first time the call reaches the format. A field remembers
// its struct format's tags once resolved, so the walk looks a format up
// once per field, not once per record. The table lives for one call,
// during which the caller holds the format tree, so no address it is keyed
// by can be reused. Tags and their text live in an arena, so they stay put
// as more formats are rendered.
class TagTable {
 public:
  explicit TagTable(bool typed) : typed_(typed), arena_(1024) {}

  // The tags of `format`'s fields, in field order.
  FieldTags* format(const FormatDesc& format) {
    FieldTags*& tags = index_[&format];
    if (tags == nullptr) tags = render(format);
    return tags;
  }

  // The tags of `field`'s struct format.
  FieldTags* sub(FieldTags& field, const FormatDesc& struct_format) {
    if (field.sub == nullptr) field.sub = format(struct_format);
    return field.sub;
  }

 private:
  FieldTags* render(const FormatDesc& format) {
    FieldTags* const tags = arena_.allocate_array<FieldTags>(format.fields.size());
    // The same puts twice: the first pass sizes the text, the second
    // writes it and takes views into it.
    std::size_t size = 0;
    char* text = nullptr;
    for (const bool write : {false, true}) {
      if (write) text = arena_.allocate_array<char>(size);
      std::size_t at = 0;
      const auto put = [&](std::initializer_list<std::string_view> parts) {
        const std::size_t start = at;
        for (const std::string_view part : parts) {
          if (write) part.copy(text + at, part.size());
          at += part.size();
        }
        return write ? std::string_view(text + start, at - start) : std::string_view{};
      };
      for (std::size_t i = 0; i < format.fields.size(); ++i) {
        const FieldDesc& field = format.fields[i];
        const std::string_view name = field.name;
        const bool scalar = field.arity == Arity::kScalar;
        FieldTags& out = tags[i];
        out = FieldTags{};
        out.end = put({"</", name, ">"});
        if (!typed_) {
          out.start = out.bulk = out.expect = put({"<", name, ">"});
          if (!scalar) out.item = put({"<item>"});
        } else {
          // Records and struct items name their struct; attribute values
          // are escaped, as XmlWriter::attribute escapes them.
          const bool is_struct = field.kind == TypeKind::kStruct;
          const std::string escaped = is_struct ? xml::escape(field.struct_format->name) : "";
          const std::string_view ns = is_struct ? "tns:" : "";
          const std::string_view type = is_struct ? escaped : xsi_type_name(field.kind);
          if (scalar) {
            out.start = out.expect = put({"<", name, " xsi:type=\"", ns, type, "\">"});
          } else {
            // The container tag holds the count, so the decoder lexes it.
            out.start = put({"<", name, " soapenc:arrayType=\"", xsi_type_name(field.kind), "["});
            out.item = put({"<item xsi:type=\"", ns, type, "\">"});
            if (field.kind == TypeKind::kChar) {
              out.bulk = out.expect = put({"<", name, " xsi:type=\"xsd:base64Binary\">"});
            }
          }
        }
        // A name the lexer reads otherwise gets no literal: one it rejects,
        // and a prefixed one, which it reads as its local part.
        if (!xml::is_name(name) || name.find(':') != std::string_view::npos) out.expect = {};
      }
      size = at;
    }
    return tags;
  }

  bool typed_;
  Arena arena_;
  std::unordered_map<const FormatDesc*, FieldTags*> index_;
};

// ---------------------------------------------------------------- write

// Writes one record. The root element goes through the writer, which
// tracks it; every element inside is written from the tag table, one
// append per tag, into the open root. Output is compact markup.
class Encoder {
 public:
  Encoder(xml::XmlWriter& writer, XmlStyle style)
      : writer_(writer), typed_(style.typed), table_(style.typed) {}

  void root(const Value& value, const FormatDesc& format, std::string_view name) {
    check_record(value, format);
    writer_.start_element(name);
    if (typed_) writer_.attribute("xsi:type", "tns:" + format.name);
    fields(value, format, table_.format(format));
    writer_.end_element();
  }

 private:
  static void check_record(const Value& value, const FormatDesc& format) {
    if (!value.is_record()) {
      throw CodecError("XML encoding of format '" + format.name + "' needs a record");
    }
  }

  // A start tag; an element without content closes in it, `<name …/>`.
  void open(std::string_view tag, bool empty) {
    if (!empty) return writer_.raw(tag);
    tag.remove_suffix(1);
    writer_.raw(tag);
    writer_.raw("/>");
  }

  void fields(const Value& value, const FormatDesc& format, FieldTags* tags) {
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
      write_field(*v, field, tags[i]);
    }
  }

  void record(const Value& value, const FormatDesc& format, FieldTags* tags,
              std::string_view start, std::string_view end) {
    check_record(value, format);
    open(start, format.fields.empty());
    if (format.fields.empty()) return;
    fields(value, format, tags);
    writer_.raw(end);
  }

  void scalar(const Value& v, TypeKind kind) {
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
  }

  // One <item> per element of a contiguous numeric array, converted as
  // the Value accessors convert, without a Value per element.
  template <class T>
  void numeric_items(std::span<const T> elems, TypeKind kind, std::string_view start) {
    for (const T x : elems) {
      writer_.raw(start);
      if (is_signed_kind(kind)) {
        writer_.number(static_cast<std::int64_t>(x));
      } else if (is_unsigned_kind(kind)) {
        writer_.number(static_cast<std::uint64_t>(x));
      } else {
        writer_.number(static_cast<double>(x));
      }
      writer_.raw(kItemEnd);
    }
  }

  void write_field(const Value& v, const FieldDesc& field, FieldTags& tags) {
    if (field.arity == Arity::kScalar) {
      if (field.kind == TypeKind::kStruct) {
        return record(v, *field.struct_format, table_.sub(tags, *field.struct_format),
                      tags.start, tags.end);
      }
      writer_.raw(tags.start);
      scalar(v, field.kind);
      return writer_.raw(tags.end);
    }
    // Bulk char arrays (string-backed) travel as xsd:base64Binary text.
    if (field.kind == TypeKind::kChar && v.is_string()) {
      writer_.raw(tags.bulk);
      writer_.text(base64_encode(std::string_view{v.as_string()}));
      return writer_.raw(tags.end);
    }
    // SOAP array encoding: a container element with one <item> per value —
    // the per-element tagging that makes XML arrays several times the size
    // of the equivalent PBIO message.
    const std::size_t count = v.array_size();
    if (typed_) {
      writer_.raw(tags.start);
      writer_.number(std::uint64_t{count});
      writer_.raw(count == 0 ? "]\"/>" : "]\">");
    } else {
      open(tags.start, count == 0);
    }
    if (count == 0) return;
    v.visit_array([&](auto elems) {
      using T = std::remove_cv_t<typename decltype(elems)::element_type>;
      if constexpr (std::is_same_v<T, Value>) {
        for (const Value& elem : elems) write_item(elem, field, tags);
      } else if (is_signed_kind(field.kind) || is_unsigned_kind(field.kind) ||
                 is_float_kind(field.kind)) {
        numeric_items(elems, field.kind, tags.item);
      } else {
        for (const T elem : elems) write_item(Value{elem}, field, tags);
      }
    });
    writer_.raw(tags.end);
  }

  void write_item(const Value& elem, const FieldDesc& field, FieldTags& tags) {
    if (field.kind == TypeKind::kStruct) {
      return record(elem, *field.struct_format, table_.sub(tags, *field.struct_format),
                    tags.item, kItemEnd);
    }
    writer_.raw(tags.item);
    scalar(elem, field.kind);
    writer_.raw(kItemEnd);
  }

  xml::XmlWriter& writer_;
  bool typed_;
  TagTable table_;
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
// order and looked up by name otherwise. Before each token the decoder
// offers the reader the start tag the top frame expects next, as this
// codec writes it; when the document holds those bytes the reader takes
// the tag in one compare, and the decoder enters that child as it would
// have after next() returned the same tag.
class Decoder {
 public:
  explicit Decoder(xml::Reader& reader) : reader_(reader), table_(typed_root(reader)) {}

  Value read(const FormatDesc& format) {
    push_record(format, kItem, table_.format(format));
    for (;;) {
      if (accept_expected()) continue;
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

  // A root typed as this codec types it heads a typed document.
  static bool typed_root(const xml::Reader& reader) {
    for (const xml::Reader::Attribute& attribute : reader.attributes()) {
      if (attribute.name == "xsi:type") return true;
    }
    return false;
  }

  // An array's elements: Values, or a typed vector for numbers.
  using Items =
      std::variant<std::vector<Value>, Value::I64Array, Value::U64Array, Value::F64Array>;

  struct Frame {
    const FormatDesc* format = nullptr;  // a record's format
    const FieldDesc* array = nullptr;    // an array's field
    std::string_view element;            // element name, for errors
    std::size_t slot = kItem;            // field index in the parent record, or kItem
    FieldTags* tags = nullptr;           // record: its fields' tags; array: its field's
    std::size_t filled_base = 0;         // record: its first flag in filled_
    std::size_t next_field = 0;          // record: the field expected next
    bool saw_item = false;               // array
    std::vector<Value::NamedValue> fields;  // record: one slot per format field
    Items items;                            // array: its elements
  };

  void push_record(const FormatDesc& format, std::size_t slot, FieldTags* tags) {
    Frame& frame = frames_.emplace_back();
    frame.format = &format;
    frame.element = reader_.name();
    frame.slot = slot;
    frame.tags = tags;
    frame.filled_base = filled_.size();
    frame.fields.resize(format.fields.size());
    filled_.resize(filled_.size() + format.fields.size(), 0);
  }

  void push_array(const FieldDesc& field, std::size_t slot, FieldTags& tags) {
    Frame& frame = frames_.emplace_back();
    frame.array = &field;
    frame.element = reader_.name();
    frame.slot = slot;
    frame.tags = &tags;
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

  // Takes the start tag the top frame expects next when the document holds
  // it as this codec writes it in the document's style, and enters that
  // child.
  bool accept_expected() {
    Frame& top = frames_.back();
    if (top.array != nullptr) {
      if (!reader_.accept_start_tag(top.tags->item)) return false;
      enter_item(top);
      return true;
    }
    const std::size_t i = top.next_field;
    if (i >= top.format->fields.size() || !reader_.accept_start_tag(top.tags[i].expect)) {
      return false;
    }
    enter_field(top, i);
    return true;
  }

  // A start tag the lexer read: an item, or the field it names.
  void start_child() {
    Frame& top = frames_.back();
    const std::string_view local = xml::local_part(reader_.name());
    if (top.array != nullptr) {
      if (local != "item") return reader_.skip_element();
      return enter_item(top);
    }
    const std::vector<FieldDesc>& fields = top.format->fields;
    std::size_t i = top.next_field;
    if (i >= fields.size() || fields[i].name != local) {
      i = 0;
      while (i < fields.size() && fields[i].name != local) ++i;
      if (i == fields.size()) return reader_.skip_element();
    }
    enter_field(top, i);
  }

  void enter_item(Frame& top) {
    top.saw_item = true;
    const FieldDesc& field = *top.array;
    if (field.kind == TypeKind::kStruct) {
      return push_record(*field.struct_format, kItem, table_.sub(*top.tags, *field.struct_format));
    }
    text_.clear();
    reader_.read_text(text_);
    std::visit([&](auto& items) { append_item(items, field.kind); }, top.items);
  }

  void enter_field(Frame& top, std::size_t i) {
    // The first occurrence of a field wins.
    if (filled_[top.filled_base + i] != 0) return reader_.skip_element();
    top.next_field = i + 1;
    const FieldDesc& field = top.format->fields[i];
    if (field.arity != Arity::kScalar) return push_array(field, i, top.tags[i]);
    if (field.kind == TypeKind::kStruct) {
      return push_record(*field.struct_format, i, table_.sub(top.tags[i], *field.struct_format));
    }
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
  TagTable table_;
  std::vector<Frame> frames_;
  std::vector<std::uint8_t> filled_;  // per open record, a flag per field
  std::string text_;     // the current scalar's text
  std::string base64_;   // the open char array's own text
};

}  // namespace

void write_value_xml(xml::XmlWriter& writer, const Value& value,
                     const FormatDesc& format, std::string_view name,
                     XmlStyle style) {
  Encoder(writer, style).root(value, format, name);
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
