// Simulated time.
//
// Integer microseconds: additions are exact, event ordering is total, and
// runs are reproducible across platforms (no floating-point drift).
#pragma once

#include <cstdint>

namespace st::sim {

// Microseconds since simulation start.
using SimTime = std::int64_t;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1000 * kMicrosecond;
constexpr SimTime kSecond = 1000 * kMillisecond;
constexpr SimTime kMinute = 60 * kSecond;
constexpr SimTime kHour = 60 * kMinute;
constexpr SimTime kDay = 24 * kHour;

constexpr double toSeconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

constexpr double toMillis(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

constexpr SimTime fromSeconds(double seconds) {
  return static_cast<SimTime>(seconds * static_cast<double>(kSecond));
}

constexpr SimTime fromMillis(double millis) {
  return static_cast<SimTime>(millis * static_cast<double>(kMillisecond));
}

// fromSeconds / fromMillis for user input: converts `count` units of `unit`
// (kSecond, kMillisecond) into `*out` when the microseconds fit SimTime, and
// returns false otherwise (NaN and infinities included). In range the result
// equals fromSeconds(count) / fromMillis(count) exactly.
constexpr bool checkedTime(double count, SimTime unit, SimTime* out) {
  const double micros = count * static_cast<double>(unit);
  // ±2^63 are exact doubles; NaN fails both comparisons.
  if (!(micros >= -0x1p63 && micros < 0x1p63)) return false;
  *out = static_cast<SimTime>(micros);
  return true;
}

}  // namespace st::sim
