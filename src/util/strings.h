// Small string helpers shared by the XML, classad and DAG layers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace vmp::util {

/// Split on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char sep);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

std::string to_lower(std::string_view text);

/// Parse helpers returning false on malformed input (no exceptions).
bool parse_int64(std::string_view text, long long* out);
bool parse_double(std::string_view text, double* out);

/// Render a double without trailing zero noise ("4", "4.5", "0.0625").
std::string format_double(double v);

/// Escape text for a JSON string literal (quotes not included): `"`, `\`,
/// `\n`, `\r` and `\t` get their short escapes, every other control byte
/// below 0x20 becomes `\u00XX`, and all other bytes pass through.
std::string json_escape(std::string_view text);

}  // namespace vmp::util
