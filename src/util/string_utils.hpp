#pragma once
// Small string helpers shared by the encoding subsystem and CSV I/O.

#include <string>
#include <string_view>
#include <vector>

namespace bellamy::util {

/// ASCII lower-casing (the property vocabulary is case-insensitive).
std::string to_lower(std::string_view s);

/// Trim ASCII whitespace from both ends.
std::string trim(std::string_view s);

/// Split on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Join with a delimiter.
std::string join(const std::vector<std::string>& parts, std::string_view delim);

/// Parse helpers that throw std::invalid_argument with context on failure.
double parse_double(std::string_view s);
long long parse_int(std::string_view s);

/// printf-style formatting into std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace bellamy::util
