// XML ↔ Value parameter codec (standard SOAP encoding of PBIO-typed data).
//
// This is the textual representation SOAP-bin avoids: every scalar becomes
// ASCII digits, every array element gets its own enclosing tag, every
// struct level adds a tag pair. The codec is shared by the plain-SOAP
// baseline and by SOAP-bin's conversion handlers (XML → binary at the edge).
//
// Both directions stream: the writer appends straight into one output
// string, and the reader pulls tokens from xml::Reader and fills one slot
// per format field, with no DOM in between. Each call renders the element
// tags of every format it reaches once, into a table that lives for the
// call: the writer appends each tag whole, and the reader takes the start
// tag it expects next in one compare and lexes anything else.
#pragma once

#include <string>
#include <string_view>

#include "pbio/format.h"
#include "pbio/value.h"
#include "xml/reader.h"
#include "xml/writer.h"

namespace sbq::soap {

/// XML rendering style. `typed` adds SOAP Section-5 `xsi:type` annotations
/// to every element — what 2004-era stacks (including Soup) put on the wire,
/// and what makes standard SOAP messages so much larger than their binary
/// equivalents. The compact style is used for internal conversions.
struct XmlStyle {
  bool typed = false;
};

/// Writes `value` (a record of `format`) as `<name>...</name>`, in compact
/// markup: everything inside the root is appended as is, so `writer` must
/// not be a pretty one.
void write_value_xml(xml::XmlWriter& writer, const pbio::Value& value,
                     const pbio::FormatDesc& format, std::string_view name,
                     XmlStyle style = {});

/// Convenience: standalone document-free rendering of one record.
std::string value_to_xml(const pbio::Value& value, const pbio::FormatDesc& format,
                         std::string_view name, XmlStyle style = {});

/// Reads the record of `format` whose start tag `reader` has just returned,
/// through its end tag. The read is driven by the format and is lenient:
/// fields may come in any order, the first occurrence of a field wins,
/// and unknown elements, comments and PIs are skipped (the reader still
/// checks they are well-formed). Numbers are trimmed, strings are not. A
/// missing field throws ParseError naming the field and the format.
pbio::Value read_value_xml(xml::Reader& reader, const pbio::FormatDesc& format);

/// Parses a document whose root element is a record written by
/// write_value_xml, as read_value_xml does, and checks the rest of the
/// document.
pbio::Value value_from_xml(std::string_view document, const pbio::FormatDesc& format);

}  // namespace sbq::soap
