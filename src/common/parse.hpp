// Strict whole-number reader for command-line flags and replay lines.
#pragma once

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

#include "common/types.hpp"

namespace fpq {

/// Reads `s` as a whole decimal number no greater than `max`: digits only,
/// with no sign, no space and nothing after the last digit, so "3junk",
/// "-1" and "" are refused rather than read as 3, wrapped, or taken as 0.
/// Throws std::invalid_argument for anything else.
inline u64 parse_whole(std::string_view s, u64 max = UINT64_MAX) {
  u64 n = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
  if (ec != std::errc{} || end != s.data() + s.size() || n > max)
    throw std::invalid_argument("expected a whole number no greater than " +
                                std::to_string(max));
  return n;
}

} // namespace fpq
