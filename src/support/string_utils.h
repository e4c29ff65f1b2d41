// Small string helpers used by the printers, parsers and report formatters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bw::support {

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string_view> split(std::string_view text, char sep);

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Count the number of non-empty, non-comment ("//"-prefixed) lines.
/// Used by the Table IV harness to report benchmark LOC the way the
/// paper counts source lines.
int count_code_lines(std::string_view source);

/// Parse a count given on a command line: decimal digits, or hex digits
/// after "0x". A sign, a space, an empty string or anything after the
/// digits is refused, as is a value outside [min, max].
std::optional<std::uint64_t> parse_count(std::string_view text,
                                         std::uint64_t min,
                                         std::uint64_t max);

/// parse_count for a command-line argument of `program`: a bad count
/// prints "<program>: bad <what> '<text>': expected a whole number in
/// <min>..<max>" to stderr and exits 2.
std::uint64_t count_arg_or_exit(const char* program, const char* what,
                                std::string_view text, std::uint64_t min,
                                std::uint64_t max);

}  // namespace bw::support
