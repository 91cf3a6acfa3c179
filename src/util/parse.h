// Whole-token text parsing shared by the command-line flags (util/flags.h)
// and the --faults / --overload spec grammars.
//
// Numbers go through std::from_chars: a token parses only when all of it is
// the number (no blanks, no '+', no trailing characters), the value fits its
// type, and a double is finite. NaN, infinities and overflowing values never
// reach a range check.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace st::parse {

[[nodiscard]] bool number(std::string_view token, double* out);
[[nodiscard]] bool number(std::string_view token, std::int64_t* out);
[[nodiscard]] bool number(std::string_view token, std::uint64_t* out);

// `s` without the spaces and tabs at either end.
[[nodiscard]] std::string_view trim(std::string_view s);

// Stores `message` in `*error` when the caller passed an error sink.
void fail(std::string* error, std::string message);

}  // namespace st::parse
