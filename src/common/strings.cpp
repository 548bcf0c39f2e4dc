#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "common/error.h"

namespace sbq {

namespace {
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v';
}
}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_whitespace(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::uint64_t parse_u64(std::string_view s) {
  s = trim(s);
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ParseError("invalid unsigned integer: '" + std::string(s) + "'");
  }
  return v;
}

std::int64_t parse_i64(std::string_view s) {
  s = trim(s);
  std::int64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ParseError("invalid integer: '" + std::string(s) + "'");
  }
  return v;
}

double parse_f64(std::string_view s) {
  s = trim(s);
  if (s.empty()) throw ParseError("empty float");
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc{} && end == s.data() + s.size()) return v;
  // from_chars rejects some forms strtod accepts (a leading '+', hex floats,
  // values out of range); retry those with strtod so the accepted set stays
  // strtod's. The copy bounds the input for strtod's NUL requirement.
  std::string buf(s);
  char* stop = nullptr;
  v = std::strtod(buf.c_str(), &stop);
  if (stop != buf.c_str() + buf.size()) {
    throw ParseError("invalid float: '" + buf + "'");
  }
  return v;
}

bool is_blank(std::string_view s) {
  for (char c : s) {
    if (!is_space(c)) return false;
  }
  return true;
}

}  // namespace sbq
