// Small string helpers shared across modules.

#ifndef SRC_COMMON_STRINGS_H_
#define SRC_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace philly {

// Splits on `sep`; keeps empty fields ("a,,b" -> {"a", "", "b"}).
std::vector<std::string_view> Split(std::string_view s, char sep);

// Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool Contains(std::string_view haystack, std::string_view needle);

// Case-insensitive substring search (ASCII).
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

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
