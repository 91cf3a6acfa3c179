#include "cli.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string_view>

namespace st::e2e {

namespace {

bool parseUint(const std::string& token, std::uint64_t max,
               std::uint64_t* out) {
  if (token.empty() || token.front() < '0' || token.front() > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (errno != 0 || end != token.c_str() + token.size() || value > max) {
    return false;
  }
  *out = value;
  return true;
}

bool parseSeconds(const std::string& token, double* out) {
  if (token.empty() || token.front() < '0' || token.front() > '9') {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || !std::isfinite(value) ||
      value <= 0.0 || value > 3600.0) {
    return false;
  }
  *out = value;
  return true;
}

bool parseWorkloads(const std::string& token,
                    std::vector<const Workload*>* out, std::string* error) {
  std::size_t begin = 0;
  while (begin <= token.size()) {
    const std::size_t comma = std::min(token.find(',', begin), token.size());
    const std::string name = token.substr(begin, comma - begin);
    const Workload* workload = findWorkload(name);
    if (workload == nullptr) {
      *error = "unknown workload '" + name + "'";
      return false;
    }
    out->push_back(workload);
    begin = comma + 1;
  }
  return true;
}

}  // namespace

const char* usage() {
  return "usage: e2e_bench --workload NAME[,NAME...] --seed N "
         "[--seconds S] [--trace 0|1] [--repeats N]\n"
         "workloads: fig16, churn-storm\n";
}

bool parseOptions(int argc, char** argv, Options* out, std::string* error) {
  Options options;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (flag.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + flag + "'";
      return false;
    }
    if (const std::size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "missing value for " + flag;
      return false;
    }
    if (!seen.insert(flag).second) {
      *error = "repeated flag " + flag;
      return false;
    }
    bool ok = true;
    if (flag == "--workload") {
      if (!parseWorkloads(value, &options.workloads, error)) return false;
    } else if (flag == "--seed") {
      ok = parseUint(value, std::uint64_t{1} << 62, &options.seed);
    } else if (flag == "--seconds") {
      ok = parseSeconds(value, &options.seconds);
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--repeats") {
      std::uint64_t repeats = 0;
      ok = parseUint(value, 1000, &repeats) && repeats > 0;
      options.minRepeats = static_cast<std::size_t>(repeats);
    } else {
      *error = "unknown flag '" + flag + "'";
      return false;
    }
    if (!ok) {
      *error = "invalid value '" + value + "' for " + flag;
      return false;
    }
  }
  for (const char* required : {"--workload", "--seed"}) {
    if (seen.count(required) == 0) {
      *error = std::string("missing required flag ") + required;
      return false;
    }
  }
  *out = std::move(options);
  return true;
}

}  // namespace st::e2e
