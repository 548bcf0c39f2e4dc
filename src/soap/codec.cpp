#include "soap/codec.h"

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

void write_scalar(xml::XmlWriter& writer, const Value& v, TypeKind kind,
                  std::string_view name, const XmlStyle& style) {
  writer.start_element(name);
  if (style.typed) writer.attribute("xsi:type", xsi_type_name(kind));
  switch (kind) {
    case TypeKind::kInt32:
    case TypeKind::kInt64:
      writer.text(std::to_string(v.as_i64()));
      break;
    case TypeKind::kUInt32:
    case TypeKind::kUInt64:
      writer.text(std::to_string(v.as_u64()));
      break;
    case TypeKind::kFloat32:
    case TypeKind::kFloat64:
      writer.text(xml::format_double(v.as_f64()));
      break;
    case TypeKind::kChar:
      // Chars travel as their numeric value: whitespace and control
      // characters are not representable as XML character data (and would
      // be destroyed by whitespace trimming on the read side).
      writer.text(std::to_string(static_cast<int>(
          static_cast<unsigned char>(v.as_char()))));
      break;
    case TypeKind::kString:
      writer.text(std::string_view{v.as_string()});
      break;
    default:
      throw CodecError("write_scalar: unexpected kind");
  }
  writer.end_element();
}

void write_record(xml::XmlWriter& writer, const Value& value,
                  const FormatDesc& format, std::string_view name,
                  const XmlStyle& style);

void write_field(xml::XmlWriter& writer, const Value& v, const FieldDesc& field,
                 const XmlStyle& style) {
  switch (field.arity) {
    case Arity::kScalar:
      if (field.kind == TypeKind::kStruct) {
        write_record(writer, v, *field.struct_format, field.name, style);
      } else {
        write_scalar(writer, v, field.kind, field.name, style);
      }
      break;
    case Arity::kFixedArray:
    case Arity::kVarArray: {
      // Bulk char arrays (string-backed) travel as xsd:base64Binary text.
      if (field.kind == TypeKind::kChar && v.is_string()) {
        writer.start_element(field.name);
        if (style.typed) writer.attribute("xsi:type", "xsd:base64Binary");
        writer.text(base64_encode(std::string_view{v.as_string()}));
        writer.end_element();
        break;
      }
      // SOAP array encoding: a container element with one <item> per value —
      // the per-element tagging that makes XML arrays several times the
      // size of the equivalent PBIO message.
      writer.start_element(field.name);
      if (style.typed) {
        writer.attribute("soapenc:arrayType",
                         std::string(xsi_type_name(field.kind)) + "[" +
                             std::to_string(v.array_size()) + "]");
      }
      v.visit_array([&](auto elems) {
        for (const auto& elem : elems) {
          if (field.kind == TypeKind::kStruct) {
            write_record(writer, elem, *field.struct_format, "item", style);
          } else {
            write_scalar(writer, elem, field.kind, "item", style);
          }
        }
      });
      writer.end_element();
      break;
    }
  }
}

void write_record(xml::XmlWriter& writer, const Value& value,
                  const FormatDesc& format, std::string_view name,
                  const XmlStyle& style) {
  if (!value.is_record()) {
    throw CodecError("XML encoding of format '" + format.name + "' needs a record");
  }
  writer.start_element(name);
  if (style.typed) writer.attribute("xsi:type", "tns:" + format.name);
  for (const FieldDesc& field : format.fields) {
    const Value* v = value.find_field(field.name);
    if (v == nullptr) {
      throw CodecError("record missing field '" + field.name + "'");
    }
    write_field(writer, *v, field, style);
  }
  writer.end_element();
}

Value read_scalar(const xml::Element& element, TypeKind kind) {
  const std::string_view text = element.trimmed_text();
  switch (kind) {
    case TypeKind::kInt32:
    case TypeKind::kInt64:
      return Value{parse_i64(text)};
    case TypeKind::kUInt32:
    case TypeKind::kUInt64:
      return Value{static_cast<std::uint64_t>(parse_u64(text))};
    case TypeKind::kFloat32:
    case TypeKind::kFloat64:
      return Value{parse_f64(text)};
    case TypeKind::kChar: {
      if (text.empty()) return Value{'\0'};
      // Numeric form (written by this codec); single-character form is
      // accepted for hand-written documents.
      if (text.size() > 1 || (text[0] >= '0' && text[0] <= '9')) {
        try {
          return Value{static_cast<char>(parse_i64(text))};
        } catch (const ParseError&) {
          // fall through to first-character semantics
        }
      }
      return Value{text[0]};
    }
    case TypeKind::kString:
      // Strings keep untrimmed text (whitespace may be significant).
      return Value{std::string(element.text)};
    default:
      throw CodecError("read_scalar: unexpected kind");
  }
}

Value read_record(const xml::Element& element, const FormatDesc& format);

Value read_field(const xml::Element& element, const FieldDesc& field) {
  switch (field.arity) {
    case Arity::kScalar:
      if (field.kind == TypeKind::kStruct) {
        return read_record(element, *field.struct_format);
      }
      return read_scalar(element, field.kind);
    case Arity::kFixedArray:
    case Arity::kVarArray: {
      // Char arrays without <item> children are base64-encoded bulk bytes.
      if (field.kind == TypeKind::kChar && element.child("item") == nullptr) {
        Value text{base64_decode_string(element.trimmed_text())};
        if (field.arity == Arity::kFixedArray &&
            text.as_string().size() != field.fixed_count) {
          throw ParseError("fixed char array '" + field.name + "' expects " +
                           std::to_string(field.fixed_count) + " bytes");
        }
        return text;
      }
      Value array = Value::empty_array();
      for (const xml::Element* item : element.children_named("item")) {
        if (field.kind == TypeKind::kStruct) {
          array.push_back(read_record(*item, *field.struct_format));
        } else {
          array.push_back(read_scalar(*item, field.kind));
        }
      }
      if (field.arity == Arity::kFixedArray &&
          array.array_size() != field.fixed_count) {
        throw ParseError("fixed array '" + field.name + "' expects " +
                         std::to_string(field.fixed_count) + " items, got " +
                         std::to_string(array.array_size()));
      }
      return array;
    }
  }
  throw CodecError("read_field: unreachable");
}

Value read_record(const xml::Element& element, const FormatDesc& format) {
  Value record = Value::empty_record();
  for (const FieldDesc& field : format.fields) {
    const xml::Element* child = element.child(field.name);
    if (child == nullptr) {
      throw ParseError("element <" + element.name + "> missing <" + field.name +
                       "> required by format '" + format.name + "'");
    }
    record.set_field(field.name, read_field(*child, field));
  }
  return record;
}

}  // namespace

void write_value_xml(xml::XmlWriter& writer, const Value& value,
                     const FormatDesc& format, std::string_view name,
                     XmlStyle style) {
  write_record(writer, value, format, name, style);
}

std::string value_to_xml(const Value& value, const FormatDesc& format,
                         std::string_view name, XmlStyle style) {
  xml::XmlWriter writer;
  write_record(writer, value, format, name, style);
  return writer.take();
}

Value value_from_xml(const xml::Element& element, const FormatDesc& format) {
  return read_record(element, format);
}

}  // namespace sbq::soap
