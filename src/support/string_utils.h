// Small string helpers used by the printers, parsers and report formatters.
#pragma once

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

}  // namespace bw::support
