#include "util/flags.h"

#include <cstdio>
#include <cstdlib>

#include "util/parse.h"

namespace st {

namespace {

[[noreturn]] void rejectValue(const std::string& name, const std::string& value,
                              const std::string& expected) {
  std::fprintf(stderr, "--%s: expected %s, got '%s'\n", name.c_str(),
               expected.c_str(), value.c_str());
  std::exit(2);
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      error_ = "expected --flag, got: " + arg;
      return;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is another flag or absent.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const {
  consumed_[name] = true;
  return values_.count(name) > 0;
}

std::string Flags::getString(const std::string& name,
                             std::string fallback) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::getInt(const std::string& name, std::int64_t fallback,
                           std::int64_t min) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  std::int64_t parsed = 0;
  if (!parse::number(value, &parsed) || parsed < min) {
    std::string expected = "an integer";
    if (min != std::numeric_limits<std::int64_t>::min()) {
      expected += " >= " + std::to_string(min);
    }
    rejectValue(name, value, expected);
  }
  return parsed;
}

double Flags::getDouble(const std::string& name, double fallback) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  double parsed = 0.0;
  if (!parse::number(value, &parsed)) {
    rejectValue(name, value, "a finite number");
  }
  return parsed;
}

sim::SimTime Flags::getSeconds(const std::string& name,
                               sim::SimTime fallback) const {
  if (!has(name)) return fallback;
  sim::SimTime time = 0;
  if (!sim::checkedTime(getDouble(name, 0.0), sim::kSecond, &time)) {
    rejectValue(name, values_.at(name),
                "a number of seconds below 9.2e12 in magnitude");
  }
  return time;
}

bool Flags::getBool(const std::string& name, bool fallback) const {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0";
}

std::vector<std::string> Flags::unconsumed() const {
  std::vector<std::string> result;
  for (const auto& [name, value] : values_) {
    if (!consumed_.count(name)) result.push_back(name);
  }
  return result;
}

}  // namespace st
