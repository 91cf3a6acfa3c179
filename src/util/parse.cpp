#include "util/parse.h"

#include <charconv>
#include <cmath>
#include <system_error>
#include <utility>

namespace st::parse {

namespace {

template <typename T>
bool wholeToken(std::string_view token, T* out) {
  T value{};
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc{} || end != last) return false;
  *out = value;
  return true;
}

}  // namespace

bool number(std::string_view token, double* out) {
  double value = 0.0;
  if (!wholeToken(token, &value) || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool number(std::string_view token, std::int64_t* out) {
  return wholeToken(token, out);
}

bool number(std::string_view token, std::uint64_t* out) {
  return wholeToken(token, out);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

void fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace st::parse
