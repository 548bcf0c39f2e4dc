// XML text escaping/unescaping shared by the reader and the writer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace sbq::xml {

/// Escapes `&`, `<`, `>`, `"`, `'` for use in element content or attributes.
std::string escape(std::string_view raw);

/// Appends `raw` to `out` escaped as escape() does; a run without special
/// characters is appended in one piece.
void append_escaped(std::string& out, std::string_view raw);

/// Resolves the five predefined entities plus `&#NNN;` / `&#xHHH;` numeric
/// character references (emitted as UTF-8). Throws ParseError on malformed
/// or unknown entities.
std::string unescape(std::string_view escaped);

/// Appends `escaped` to `out` with entities resolved as unescape() does.
/// Returns an empty string on success, else what is wrong with the first
/// bad entity (`out` then holds a partial result).
std::string append_unescaped(std::string& out, std::string_view escaped);

/// Encodes a Unicode code point as UTF-8, appending to `out`.
void append_utf8(std::string& out, std::uint32_t codepoint);

}  // namespace sbq::xml
