#include "support/string_utils.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace bw::support {

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

int count_code_lines(std::string_view source) {
  int count = 0;
  for (std::string_view line : split(source, '\n')) {
    std::string_view t = trim(line);
    if (t.empty()) continue;
    if (starts_with(t, "//")) continue;
    ++count;
  }
  return count;
}

std::optional<std::uint64_t> parse_count(std::string_view text,
                                         std::uint64_t min,
                                         std::uint64_t max) {
  std::uint64_t base = 10;
  if (text.size() > 2 && text[0] == '0' &&
      (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  }
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : text) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (base == 16 && std::isxdigit(static_cast<unsigned char>(c))) {
      digit = static_cast<std::uint64_t>(
          std::tolower(static_cast<unsigned char>(c)) - 'a' + 10);
    } else {
      return std::nullopt;
    }
    if (value > (UINT64_MAX - digit) / base) return std::nullopt;
    value = value * base + digit;
  }
  if (value < min || value > max) return std::nullopt;
  return value;
}

std::uint64_t count_arg_or_exit(const char* program, const char* what,
                                std::string_view text, std::uint64_t min,
                                std::uint64_t max) {
  if (std::optional<std::uint64_t> value = parse_count(text, min, max)) {
    return *value;
  }
  std::fprintf(stderr,
               "%s: bad %s '%.*s': expected a whole number in %llu..%llu\n",
               program, what, static_cast<int>(text.size()), text.data(),
               static_cast<unsigned long long>(min),
               static_cast<unsigned long long>(max));
  std::exit(2);
}

}  // namespace bw::support
