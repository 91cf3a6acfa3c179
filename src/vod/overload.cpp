#include "vod/overload.h"

#include "util/parse.h"

namespace st::vod {

namespace {

using parse::fail;
using parse::trim;

// The "on" shorthand: the full degradation ladder at sane defaults (half
// the 320 kbps bitrate as the floor, a 30 s first-chunk deadline matching
// the default firstChunkTimeout's order of magnitude, modest prefetch
// credit, 3-strike breakers with a 5-minute cooldown).
void enableDefaults(OverloadConfig* out) {
  out->playbackFloorBps = 160'000.0;
  out->serverQueueCap = 64;
  out->admissionDeadlineSeconds = 30.0;
  out->prefetchCredit = 2;
  out->contentionThreshold = 3;
  out->breakerThreshold = 3;
  out->breakerCooldown = 300 * sim::kSecond;
  out->rebufferSloRatio = 0.05;
}

}  // namespace

bool OverloadConfig::parse(std::string_view spec, OverloadConfig* out,
                           std::string* error) {
  *out = OverloadConfig{};
  std::string_view rest = trim(spec);
  if (rest.empty() || rest == "none") return true;

  OverloadConfig config;
  while (true) {
    const std::size_t comma = rest.find(',');
    const std::string_view field = trim(rest.substr(0, comma));
    if (field.empty()) {
      fail(error, "empty field in overload spec");
      *out = OverloadConfig{};
      return false;
    }
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      if (field == "on") {
        enableDefaults(&config);
      } else {
        fail(error, "unknown overload field '" + std::string(field) + "'");
        *out = OverloadConfig{};
        return false;
      }
    } else {
      const std::string_view key = trim(field.substr(0, eq));
      const std::string_view value = trim(field.substr(eq + 1));
      double number = 0.0;
      std::uint64_t count = 0;
      sim::SimTime time = 0;  // range check of the seconds-valued keys
      if (key == "floor_kbps") {
        if (!parse::number(value, &number) || number < 0.0) {
          fail(error, "bad floor_kbps '" + std::string(value) + "'");
          *out = OverloadConfig{};
          return false;
        }
        config.playbackFloorBps = number * 1000.0;
      } else if (key == "queue") {
        if (!parse::number(value, &count)) {
          fail(error, "bad queue cap '" + std::string(value) + "'");
          *out = OverloadConfig{};
          return false;
        }
        config.serverQueueCap = count;
      } else if (key == "deadline") {
        if (!parse::number(value, &number) || number < 0.0 ||
            !sim::checkedTime(number, sim::kSecond, &time)) {
          fail(error, "bad deadline '" + std::string(value) + "'");
          *out = OverloadConfig{};
          return false;
        }
        config.admissionDeadlineSeconds = number;
      } else if (key == "credit") {
        if (!parse::number(value, &count)) {
          fail(error, "bad prefetch credit '" + std::string(value) + "'");
          *out = OverloadConfig{};
          return false;
        }
        config.prefetchCredit = count;
      } else if (key == "contention") {
        if (!parse::number(value, &count)) {
          fail(error, "bad contention threshold '" + std::string(value) +
                          "'");
          *out = OverloadConfig{};
          return false;
        }
        config.contentionThreshold = count;
      } else if (key == "breaker") {
        if (!parse::number(value, &count)) {
          fail(error, "bad breaker threshold '" + std::string(value) + "'");
          *out = OverloadConfig{};
          return false;
        }
        config.breakerThreshold = count;
      } else if (key == "cooldown") {
        if (!parse::number(value, &number) || number <= 0.0 ||
            !sim::checkedTime(number, sim::kSecond, &config.breakerCooldown)) {
          fail(error, "bad breaker cooldown '" + std::string(value) + "'");
          *out = OverloadConfig{};
          return false;
        }
      } else if (key == "slo") {
        if (!parse::number(value, &number) || number < 0.0 || number > 1.0) {
          fail(error, "slo must be in [0,1], got '" + std::string(value) +
                          "'");
          *out = OverloadConfig{};
          return false;
        }
        config.rebufferSloRatio = number;
      } else if (key == "hedge") {
        if (!parse::number(value, &number) || number < 0.0 ||
            !sim::checkedTime(number, sim::kSecond, &time)) {
          fail(error, "bad hedge deadline '" + std::string(value) + "'");
          *out = OverloadConfig{};
          return false;
        }
        config.hedgeDelaySeconds = number;
      } else {
        fail(error, "unknown overload field '" + std::string(key) + "'");
        *out = OverloadConfig{};
        return false;
      }
    }
    if (comma == std::string_view::npos) break;
    rest = rest.substr(comma + 1);
  }
  *out = config;
  return true;
}

const char* OverloadConfig::grammar() {
  return "accepted --overload grammar:\n"
         "  spec  := \"\" | \"none\" | field (\",\" field)*\n"
         "  field := \"on\" | key \"=\" value\n"
         "  keys  := floor_kbps (playback floor, kbit/s)\n"
         "           queue      (server admission queue cap, flows)\n"
         "           deadline   (admission deadline, seconds)\n"
         "           credit     (in-flight prefetches per user)\n"
         "           contention (active downloads that veto prefetch)\n"
         "           breaker    (failures that open a circuit breaker)\n"
         "           cooldown   (open-breaker cooldown, seconds)\n"
         "           slo        (rebuffer-ratio target in [0,1])\n"
         "           hedge      (hedged first-chunk deadline, seconds; 0=off)\n"
         "  \"on\" enables every knob at its default; later fields override\n"
         "  (hedge stays off under \"on\" and must be set explicitly).";
}

}  // namespace st::vod
