#pragma once
// Strict environment-variable and command-line integer parsing (cesm::util).
//
// A long-lived multi-client process cannot afford the classic strtoull
// foot-guns: "-1" wrapping around to a ~16-exabyte cache budget, "64abc"
// silently reading as 64, or an out-of-range value truncating. Every
// numeric CESM_* variable goes through env_u64(), whose policy matches
// the CESM_FAILPOINTS malformed-spec contract: a malformed value is
// reported on stderr and IGNORED (the caller keeps its default) — never
// trusted, never fatal. Command-line flags of cesmtool and cesmd go through
// parse_u64_arg instead, where a malformed value is a usage error.

#include <cstdint>
#include <optional>

namespace cesm::util {

/// Parse `value` as a non-negative decimal integer for the environment
/// variable `name`. Rejects — with a stderr warning naming the variable —
/// empty strings, any sign ('-' wraparound is exactly the bug this
/// exists to kill; '+' is rejected for symmetry), non-digit trailing
/// garbage, and values that overflow 64 bits. Leading/trailing ASCII
/// whitespace is tolerated. Returns nullopt on rejection.
std::optional<std::uint64_t> parse_env_u64(const char* name, const char* value);

/// Parse a command-line flag value as a non-negative decimal integer. The
/// same reject set as parse_env_u64, but stricter still: no surrounding
/// whitespace either, and no warning — the tool names the flag and exits
/// with status 2. Returns nullopt on rejection.
std::optional<std::uint64_t> parse_u64_arg(const char* text);

/// getenv(name) + parse_env_u64. Unset or empty returns nullopt silently
/// (absence is not an error); a present-but-malformed value warns.
std::optional<std::uint64_t> env_u64(const char* name);

}  // namespace cesm::util
