// Small string helpers shared across modules.

#ifndef SRC_COMMON_STRINGS_H_
#define SRC_COMMON_STRINGS_H_

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace philly {

// The one parser for every number a user or a trace file hands the program
// (flags, env knobs, argv, trace cells). All of `text` must be a base-10
// number of type T: no leading whitespace or '+', no hex, no trailing bytes,
// an integer in T's range and a finite double. Returns false and leaves *out
// untouched otherwise.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    return false;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return false;
    }
  }
  *out = value;
  return true;
}

// Splits on `sep`; keeps empty fields ("a,,b" -> {"a", "", "b"}).
std::vector<std::string_view> Split(std::string_view s, char sep);

bool Contains(std::string_view haystack, std::string_view needle);

// Formats a double with `digits` decimal places ("%.Nf").
std::string FormatDouble(double v, int digits = 2);

// Formats a fraction in [0,1] as a percentage string, e.g. 0.123 -> "12.3%".
std::string FormatPercent(double fraction, int digits = 1);

// Escapes `s` for use inside a double-quoted JSON string (no surrounding
// quotes added). Control bytes other than \n, \r and \t become \u00xx.
std::string JsonEscape(std::string_view s);
// JsonEscape, appended to `out`.
void AppendJsonEscaped(std::string& out, std::string_view s);

}  // namespace philly

#endif  // SRC_COMMON_STRINGS_H_
