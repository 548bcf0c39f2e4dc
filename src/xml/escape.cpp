#include "xml/escape.h"

#include <cstdint>

#include "common/error.h"

namespace sbq::xml {

void append_escaped(std::string& out, std::string_view raw) {
  std::size_t done = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    std::string_view entity;
    switch (raw[i]) {
      case '&': entity = "&amp;"; break;
      case '<': entity = "&lt;"; break;
      case '>': entity = "&gt;"; break;
      case '"': entity = "&quot;"; break;
      case '\'': entity = "&apos;"; break;
      default: continue;
    }
    out.append(raw.substr(done, i - done));
    out.append(entity);
    done = i + 1;
  }
  out.append(raw.substr(done));
}

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  append_escaped(out, raw);
  return out;
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp <= 0x7F) {
    out += static_cast<char>(cp);
  } else if (cp <= 0x7FF) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp <= 0xFFFF) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp <= 0x10FFFF) {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    throw ParseError("character reference beyond U+10FFFF");
  }
}

std::string append_unescaped(std::string& out, std::string_view s) {
  std::size_t i = 0;
  while (i < s.size()) {
    const std::size_t amp = s.find('&', i);
    if (amp == std::string_view::npos) {
      out.append(s.substr(i));
      break;
    }
    out.append(s.substr(i, amp - i));
    std::size_t semi = s.find(';', amp + 1);
    if (semi == std::string_view::npos) return "unterminated entity";
    std::string_view name = s.substr(amp + 1, semi - amp - 1);
    if (name == "amp") {
      out += '&';
    } else if (name == "lt") {
      out += '<';
    } else if (name == "gt") {
      out += '>';
    } else if (name == "quot") {
      out += '"';
    } else if (name == "apos") {
      out += '\'';
    } else if (!name.empty() && name[0] == '#') {
      std::uint32_t cp = 0;
      bool any = false;
      if (name.size() > 1 && (name[1] == 'x' || name[1] == 'X')) {
        for (std::size_t k = 2; k < name.size(); ++k) {
          char h = name[k];
          std::uint32_t digit;
          if (h >= '0' && h <= '9') digit = static_cast<std::uint32_t>(h - '0');
          else if (h >= 'a' && h <= 'f') digit = static_cast<std::uint32_t>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') digit = static_cast<std::uint32_t>(h - 'A' + 10);
          else return "bad hex character reference";
          cp = cp * 16 + digit;
          any = true;
        }
      } else {
        for (std::size_t k = 1; k < name.size(); ++k) {
          char d = name[k];
          if (d < '0' || d > '9') return "bad character reference";
          cp = cp * 10 + static_cast<std::uint32_t>(d - '0');
          any = true;
        }
      }
      if (!any) return "empty character reference";
      if (cp > 0x10FFFF) return "character reference beyond U+10FFFF";
      append_utf8(out, cp);
    } else {
      return "unknown entity: &" + std::string(name) + ";";
    }
    i = semi + 1;
  }
  return {};
}

std::string unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  if (std::string error = append_unescaped(out, s); !error.empty()) throw ParseError(error);
  return out;
}

}  // namespace sbq::xml
