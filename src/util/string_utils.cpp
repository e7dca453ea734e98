#include "util/string_utils.hpp"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

namespace bellamy::util {

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      parts.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string join(const std::vector<std::string>& parts, std::string_view delim) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += delim;
    out += parts[i];
  }
  return out;
}

double parse_double(std::string_view s) {
  const std::string str = trim(s);
  try {
    std::size_t pos = 0;
    const double v = std::stod(str, &pos);
    if (pos != str.size()) throw std::invalid_argument("trailing characters");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_double: cannot parse '" + str + "'");
  }
}

long long parse_int(std::string_view s) {
  const std::string str = trim(s);
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(str, &pos);
    if (pos != str.size()) throw std::invalid_argument("trailing characters");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_int: cannot parse '" + str + "'");
  }
}

std::string format(const char* fmt, ...) {
  va_list args1;
  va_start(args1, fmt);
  va_list args2;
  va_copy(args2, args1);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args1);
  va_end(args1);
  if (needed < 0) {
    va_end(args2);
    throw std::runtime_error("format: encoding error");
  }
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

}  // namespace bellamy::util
