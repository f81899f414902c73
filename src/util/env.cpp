#include "util/env.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cesm::util {

namespace {

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

/// Consumes the decimal digits at `p`. nullopt when there are none or the
/// value overflows 64 bits; `p` ends past the last digit either way.
std::optional<std::uint64_t> digit_run(const char*& p) {
  const char* digits = p;
  std::uint64_t acc = 0;
  bool overflow = false;
  for (; *p >= '0' && *p <= '9'; ++p) {
    const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
    if (acc > (UINT64_MAX - digit) / 10) {
      overflow = true;
    } else {
      acc = acc * 10 + digit;
    }
  }
  if (p == digits || overflow) return std::nullopt;
  return acc;
}

}  // namespace

std::optional<std::uint64_t> parse_env_u64(const char* name, const char* value) {
  if (value == nullptr) return std::nullopt;
  const char* p = value;
  while (is_space(*p)) ++p;
  const std::optional<std::uint64_t> v = digit_run(p);
  while (is_space(*p)) ++p;
  // Reject: no digits at all (covers "", "-1", "+5", "abc"), trailing
  // garbage after the digit run ("64abc"), or 64-bit overflow. strtoull
  // would have accepted the first two shapes — "-1" via unsigned
  // wraparound — which is exactly what this parser exists to stop.
  if (!v || *p != '\0') {
    if (*value != '\0') {
      std::fprintf(stderr, "%s ignored: not a non-negative integer: \"%s\"\n", name,
                   value);
    }
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint64_t> parse_u64_arg(const char* text) {
  if (text == nullptr) return std::nullopt;
  const char* p = text;
  const std::optional<std::uint64_t> v = digit_run(p);
  if (*p != '\0') return std::nullopt;
  return v;
}

std::optional<std::uint64_t> env_u64(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return parse_env_u64(name, value);
}

}  // namespace cesm::util
