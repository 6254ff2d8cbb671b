// Strict command-line number parsing, shared by the benches' [reps]
// argument and every numeric mip6sim option.
#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace mip6::bench {

/// Parses all of `text` as a non-negative decimal number (an integer type
/// or double). False on empty input, a sign, non-numeric text, trailing
/// characters, a value out of T's range, or a non-finite double.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  if (text.empty() || text.front() == '-' || text.front() == '+') return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}

}  // namespace mip6::bench
