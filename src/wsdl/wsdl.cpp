#include "wsdl/wsdl.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "common/error.h"
#include "common/strings.h"
#include "xml/reader.h"
#include "xml/writer.h"

namespace sbq::wsdl {

using pbio::Arity;
using pbio::FieldDesc;
using pbio::FormatBuilder;
using pbio::FormatDesc;
using pbio::FormatPtr;
using pbio::TypeKind;

const OperationDesc* ServiceDesc::operation(std::string_view op_name) const {
  for (const auto& op : operations) {
    if (op.name == op_name) return &op;
  }
  return nullptr;
}

const OperationDesc& ServiceDesc::required_operation(std::string_view op_name) const {
  const OperationDesc* op = operation(op_name);
  if (op == nullptr) {
    throw ParseError("service '" + name + "' has no operation '" +
                     std::string(op_name) + "'");
  }
  return *op;
}

FormatPtr ServiceDesc::type(std::string_view type_name) const {
  auto it = types.find(std::string(type_name));
  return it == types.end() ? nullptr : it->second;
}

namespace {

/// The PBIO kind of an XSD scalar type name, or nullopt for any other name.
std::optional<TypeKind> scalar_kind(std::string_view type_name) {
  static constexpr std::pair<std::string_view, TypeKind> kScalars[] = {
      {"int", TypeKind::kInt32},          {"integer", TypeKind::kInt32},
      {"long", TypeKind::kInt64},         {"unsignedInt", TypeKind::kUInt32},
      {"unsignedLong", TypeKind::kUInt64}, {"float", TypeKind::kFloat32},
      {"double", TypeKind::kFloat64},     {"byte", TypeKind::kChar},
      {"char", TypeKind::kChar},          {"unsignedByte", TypeKind::kChar},
      {"string", TypeKind::kString},
  };
  const std::string_view local = xml::local_part(type_name);
  for (const auto& [name, kind] : kScalars) {
    if (name == local) return kind;
  }
  return std::nullopt;
}

using Token = xml::Reader::Token;

std::string_view xsd_name_for(TypeKind kind) {
  switch (kind) {
    case TypeKind::kInt32: return "xsd:int";
    case TypeKind::kInt64: return "xsd:long";
    case TypeKind::kUInt32: return "xsd:unsignedInt";
    case TypeKind::kUInt64: return "xsd:unsignedLong";
    case TypeKind::kFloat32: return "xsd:float";
    case TypeKind::kFloat64: return "xsd:double";
    case TypeKind::kChar: return "xsd:byte";
    case TypeKind::kString: return "xsd:string";
    case TypeKind::kStruct: break;
  }
  throw ParseError("no XSD name for struct kind");
}

// The walk below reads each element at its start tag. WSDL authors prefix
// freely, so elements and attributes match by local name.

/// The first attribute of the current start tag named `name`.
std::optional<std::string> attribute(const xml::Reader& reader, std::string_view name) {
  for (const xml::Reader::Attribute& a : reader.attributes()) {
    if (xml::local_part(a.name) == name) return a.value();
  }
  return std::nullopt;
}

std::string required_attribute(const xml::Reader& reader, std::string_view name) {
  std::optional<std::string> value = attribute(reader, name);
  if (!value) {
    throw ParseError("element <" + std::string(reader.name()) +
                     "> missing attribute '" + std::string(name) + "'");
  }
  return std::move(*value);
}

/// After a start tag: offers the start tag of each child element, by local
/// name, to `take`, which either reads the child through its end tag and
/// returns true or returns false to have it skipped; then consumes the
/// element's end tag.
template <typename Take>
void read_children(xml::Reader& reader, Take&& take) {
  for (Token t = reader.next(); t != Token::kEndElement; t = reader.next()) {
    if (t == Token::kStartElement && !take(xml::local_part(reader.name()))) {
      reader.skip_element();
    }
  }
}

/// read_children() that hands only the first child named `tag` to `read`,
/// which reads it through its end tag. Returns whether there was one.
template <typename Read>
bool read_first_child(xml::Reader& reader, std::string_view tag, Read&& read) {
  bool found = false;
  read_children(reader, [&](std::string_view name) {
    if (found || name != tag) return false;
    found = true;
    read();
    return true;
  });
  return found;
}

/// Adds the field an <element> start tag declares; `types` holds the types
/// compiled so far.
void add_field(FormatBuilder& builder, const xml::Reader& element,
               const std::map<std::string, FormatPtr>& types) {
  const std::string field_name = required_attribute(element, "name");
  const std::string field_type = required_attribute(element, "type");
  const std::string max_occurs = attribute(element, "maxOccurs").value_or("1");

  std::uint32_t fixed = 1;
  bool unbounded = false;
  if (max_occurs == "unbounded") {
    unbounded = true;
  } else {
    const std::uint64_t occurs = parse_u64(max_occurs);
    if (occurs == 0 || occurs > std::numeric_limits<std::uint32_t>::max()) {
      throw ParseError("element '" + field_name +
                       "': maxOccurs must be in [1, 4294967295]");
    }
    fixed = static_cast<std::uint32_t>(occurs);
  }

  if (const std::optional<TypeKind> kind = scalar_kind(field_type)) {
    if (unbounded) {
      builder.add_var_array(field_name, *kind);
    } else if (fixed > 1) {
      builder.add_fixed_array(field_name, *kind, fixed);
    } else if (*kind == TypeKind::kString) {
      builder.add_string(field_name);
    } else {
      builder.add_scalar(field_name, *kind);
    }
    return;
  }
  // Reference to another complexType (possibly "tns:"-prefixed).
  const std::string referenced(xml::local_part(field_type));
  auto it = types.find(referenced);
  if (it == types.end()) {
    throw ParseError("element '" + field_name + "' references unknown type '" +
                     referenced + "' (forward references are not supported)");
  }
  if (unbounded) {
    builder.add_struct_var_array(field_name, it->second);
  } else if (fixed > 1) {
    builder.add_struct_fixed_array(field_name, it->second, fixed);
  } else {
    builder.add_struct(field_name, it->second);
  }
}

/// Compiles the <complexType> the reader is at, through its end tag, into a
/// FormatDesc; `types` holds the types compiled so far (forward references
/// are not supported, matching the single-pass WSDL compiler in the
/// paper's prototype).
FormatPtr compile_complex_type(xml::Reader& reader,
                               const std::map<std::string, FormatPtr>& types) {
  const std::string type_name = required_attribute(reader, "name");
  FormatBuilder builder(type_name);
  try {
    const bool has_sequence = read_first_child(reader, "sequence", [&] {
      read_children(reader, [&](std::string_view tag) {
        if (tag == "element") add_field(builder, reader, types);
        return false;
      });
    });
    if (!has_sequence) {
      throw ParseError("complexType '" + type_name + "' has no <sequence>");
    }
    return builder.build();
  } catch (const CodecError& e) {
    // A shape PBIO cannot hold (a duplicate or string-array field, an
    // empty sequence) is a WSDL outside the supported subset.
    throw ParseError("complexType '" + type_name + "': " + e.what());
  }
}

/// A <message> as declared: its part's type is resolved once every type is
/// known.
struct MessageDecl {
  std::string name;
  std::string part_type;
};

/// An <operation> as declared: its messages are resolved once every message
/// is known.
struct OperationDecl {
  OperationDesc desc;
  std::optional<std::string> input;
  std::optional<std::string> output;
};

/// Reads the <message> the reader is at, through its end tag.
MessageDecl read_message(xml::Reader& reader) {
  MessageDecl message{required_attribute(reader, "name"), {}};
  std::size_t parts = 0;
  read_children(reader, [&](std::string_view tag) {
    if (tag == "part" && parts++ == 0) {
      message.part_type = xml::local_part(required_attribute(reader, "type"));
    }
    return false;
  });
  if (parts != 1) {
    throw ParseError("message '" + message.name + "' must have exactly one part, has " +
                     std::to_string(parts));
  }
  return message;
}

/// Reads the <operation> the reader is at, through its end tag.
OperationDecl read_operation(xml::Reader& reader) {
  OperationDecl op;
  op.desc.name = required_attribute(reader, "name");
  const std::string idem = attribute(reader, "idempotent").value_or("false");
  op.desc.idempotent = (idem == "true" || idem == "yes" || idem == "1");
  read_children(reader, [&](std::string_view tag) {
    std::optional<std::string>* message = tag == "input"    ? &op.input
                                          : tag == "output" ? &op.output
                                                            : nullptr;
    if (message != nullptr && !*message) {
      *message = std::string(xml::local_part(required_attribute(reader, "message")));
    }
    return false;
  });
  if (!op.input || !op.output) {
    throw ParseError("operation '" + op.desc.name +
                     "' needs an <input> and an <output>");
  }
  return op;
}

}  // namespace

TypeKind xsd_scalar_kind(std::string_view type_name) {
  if (const std::optional<TypeKind> kind = scalar_kind(type_name)) return *kind;
  throw ParseError("unsupported XSD type: '" + std::string(type_name) + "'");
}

ServiceDesc parse_wsdl(std::string_view wsdl_xml) {
  // One forward walk: each child of <definitions> is read as it streams by
  // and names are resolved at the end, so sections may come in any order.
  // The first <types>, <schema>, <service>, <port> and <address> count.
  xml::Reader reader(wsdl_xml);
  while (reader.next() != Token::kStartElement) {
  }
  if (xml::local_part(reader.name()) != "definitions") {
    throw ParseError("WSDL root must be <definitions>, got <" +
                     std::string(reader.name()) + ">");
  }

  ServiceDesc service;
  service.name = attribute(reader, "name").value_or("");
  service.target_namespace = attribute(reader, "targetNamespace").value_or("");

  std::vector<MessageDecl> messages;
  std::vector<OperationDecl> operations;
  bool has_types = false;
  bool has_service = false;
  read_children(reader, [&](std::string_view tag) {
    if (tag == "types" && !has_types) {
      has_types = true;
      read_first_child(reader, "schema", [&] {
        read_children(reader, [&](std::string_view child) {
          if (child != "complexType") return false;
          const FormatPtr format = compile_complex_type(reader, service.types);
          service.types.emplace(format->name, format);
          return true;
        });
      });
    } else if (tag == "message") {
      messages.push_back(read_message(reader));
    } else if (tag == "portType") {
      read_children(reader, [&](std::string_view child) {
        if (child != "operation") return false;
        operations.push_back(read_operation(reader));
        return true;
      });
    } else if (tag == "service" && !has_service) {
      has_service = true;
      if (service.name.empty()) service.name = attribute(reader, "name").value_or("");
      read_first_child(reader, "port", [&] {
        read_first_child(reader, "address", [&] {
          service.location = attribute(reader, "location").value_or("");
          reader.skip_element();
        });
      });
    } else {
      return false;
    }
    return true;
  });
  while (reader.next() != Token::kEndOfDocument) {
  }

  // Message name → part type (single-part messages, like Soup's schema).
  std::map<std::string, FormatPtr> message_types;
  for (const MessageDecl& message : messages) {
    const FormatPtr type = service.type(message.part_type);
    if (type == nullptr) {
      throw ParseError("message '" + message.name + "' part references unknown type '" +
                       message.part_type + "'");
    }
    message_types.emplace(message.name, type);
  }
  auto resolve_message = [&](const std::string& message_name) {
    auto it = message_types.find(message_name);
    if (it == message_types.end()) {
      throw ParseError("operation references unknown message '" + message_name + "'");
    }
    return it->second;
  };
  for (OperationDecl& op : operations) {
    op.desc.input = resolve_message(*op.input);
    op.desc.output = resolve_message(*op.output);
    service.operations.push_back(std::move(op.desc));
  }
  if (service.operations.empty()) {
    throw ParseError("WSDL defines no operations");
  }
  return service;
}

namespace {

void write_schema_element(xml::XmlWriter& w, const FieldDesc& field) {
  w.start_element("xsd:element");
  w.attribute("name", field.name);
  if (field.kind == TypeKind::kStruct) {
    w.attribute("type", "tns:" + field.struct_format->name);
  } else {
    w.attribute("type", xsd_name_for(field.kind));
  }
  if (field.arity == Arity::kVarArray) {
    w.attribute("minOccurs", "0");
    w.attribute("maxOccurs", "unbounded");
  } else if (field.arity == Arity::kFixedArray) {
    w.attribute("minOccurs", std::int64_t{field.fixed_count});
    w.attribute("maxOccurs", std::int64_t{field.fixed_count});
  }
  w.end_element();
}

}  // namespace

std::string generate_wsdl(const ServiceDesc& service) {
  xml::XmlWriter w(/*pretty=*/true);
  w.declaration();
  w.start_element("definitions");
  w.attribute("name", service.name);
  if (!service.target_namespace.empty()) {
    w.attribute("targetNamespace", service.target_namespace);
  }
  w.attribute("xmlns:tns", service.target_namespace.empty()
                               ? "urn:" + service.name
                               : service.target_namespace);
  w.attribute("xmlns:xsd", "http://www.w3.org/2001/XMLSchema");

  // Emit types in dependency order: a struct's nested formats first.
  w.start_element("types");
  w.start_element("xsd:schema");
  std::vector<std::string> emitted;
  auto already_emitted = [&](const std::string& n) {
    return std::find(emitted.begin(), emitted.end(), n) != emitted.end();
  };
  // The types map may hold entries the operations never reference; emit all.
  std::function<void(const FormatDesc&)> emit = [&](const FormatDesc& format) {
    if (already_emitted(format.name)) return;
    for (const FieldDesc& field : format.fields) {
      if (field.kind == TypeKind::kStruct) emit(*field.struct_format);
    }
    emitted.push_back(format.name);
    w.start_element("xsd:complexType");
    w.attribute("name", format.name);
    w.start_element("xsd:sequence");
    for (const FieldDesc& field : format.fields) write_schema_element(w, field);
    w.end_element();
    w.end_element();
  };
  for (const auto& [type_name, format] : service.types) emit(*format);
  for (const auto& op : service.operations) {
    emit(*op.input);
    emit(*op.output);
  }
  w.end_element();  // schema
  w.end_element();  // types

  for (const auto& op : service.operations) {
    w.start_element("message");
    w.attribute("name", op.name + "Input");
    w.start_element("part");
    w.attribute("name", "params");
    w.attribute("type", "tns:" + op.input->name);
    w.end_element();
    w.end_element();
    w.start_element("message");
    w.attribute("name", op.name + "Output");
    w.start_element("part");
    w.attribute("name", "result");
    w.attribute("type", "tns:" + op.output->name);
    w.end_element();
    w.end_element();
  }

  w.start_element("portType");
  w.attribute("name", service.name + "Port");
  for (const auto& op : service.operations) {
    w.start_element("operation");
    w.attribute("name", op.name);
    if (op.idempotent) w.attribute("idempotent", "true");
    w.start_element("input");
    w.attribute("message", "tns:" + op.name + "Input");
    w.end_element();
    w.start_element("output");
    w.attribute("message", "tns:" + op.name + "Output");
    w.end_element();
    w.end_element();
  }
  w.end_element();  // portType

  w.start_element("service");
  w.attribute("name", service.name);
  w.start_element("port");
  w.attribute("name", service.name + "Port");
  w.attribute("binding", "tns:" + service.name + "Binding");
  w.start_element("address");
  w.attribute("location",
              service.location.empty() ? "http://localhost/" : service.location);
  w.end_element();
  w.end_element();
  w.end_element();  // service

  w.end_element();  // definitions
  return w.take();
}

}  // namespace sbq::wsdl
