#pragma once
// Checked integer flags for the command-line programs (apps/ and bench/).  A
// value a program cannot honour is refused with a message naming the flag,
// never replaced: `--workers=abc` must not quietly run one worker, nor
// `--threads=0` one thread.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace bellamy::util {

/// `text` as a base-10 integer in [lo, hi]; false when it is not one (empty,
/// trailing characters, out of range).
inline bool parse_int_in(const char* text, long long lo, long long hi, long long& out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) return false;
  out = v;
  return true;
}

/// True when `arg` is `name=VALUE`, with VALUE stored in `out` (an integer
/// or a std::chrono duration).  A VALUE outside [lo, hi] prints
/// "NAME expects LO..HI, got 'VALUE'" and exits with status 2.
template <typename T>
bool int_flag(const char* arg, const char* name, long long lo, long long hi, T& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  const char* text = arg + len + 1;
  long long v = 0;
  if (!parse_int_in(text, lo, hi, v)) {
    std::fprintf(stderr, "%s expects %lld..%lld, got '%s'\n", name, lo, hi, text);
    std::exit(2);
  }
  out = T(v);
  return true;
}

}  // namespace bellamy::util
