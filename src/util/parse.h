#pragma once

// Tiny shared parsing helpers for the spec-string grammars (topology
// scenarios, churn DSL) and the bench command line. Centralized so
// strictness fixes — e.g. the rejection of "nan"/"inf", which strtod
// happily accepts but every range check silently passes — reach every
// grammar at once.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

namespace bamboo::util {

/// Split on every occurrence of `sep`; adjacent separators yield empty
/// strings, so callers can reject them with context.
inline std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t next = text.find(sep, start);
    parts.push_back(text.substr(
        start, next == std::string::npos ? std::string::npos : next - start));
    if (next == std::string::npos) break;
    start = next + 1;
  }
  return parts;
}

/// Strict finite double: the whole string must parse and the value must
/// be finite (no "nan"/"inf" — those defeat range checks downstream).
/// nullopt on anything else; callers format their own error context.
inline std::optional<double> parse_finite_double(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

/// Strict unsigned decimal: digits only (no sign, blank or base prefix),
/// the whole string, at most `max`. nullopt on anything else, so "two",
/// "x7", "3x" and "-1" never read as a number.
inline std::optional<std::uint64_t> parse_unsigned(
    const std::string& text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || stop != end || v > max) {
    return std::nullopt;
  }
  return v;
}

}  // namespace bamboo::util
