// Strict whole-token value parsing for text that arrives from outside the
// program: tableau CLI flags and the reproducer spec codecs. A token parses
// only when all of it is one value of the requested type — no leading
// whitespace or '+', no trailing characters, nothing out of range — so a
// typo is rejected instead of silently read as a prefix or as 0.
#ifndef SRC_COMMON_PARSE_H_
#define SRC_COMMON_PARSE_H_

#include <charconv>
#include <string_view>
#include <system_error>

namespace tableau {

// Integers and doubles. Leaves `*out` untouched on failure.
template <typename T>
bool ParseValue(std::string_view token, T* out) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

// Booleans are exactly "0" or "1".
inline bool ParseValue(std::string_view token, bool* out) {
  if (token != "0" && token != "1") {
    return false;
  }
  *out = token == "1";
  return true;
}

}  // namespace tableau

#endif  // SRC_COMMON_PARSE_H_
