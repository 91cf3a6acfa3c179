#include "fault/schedule.h"

#include <algorithm>
#include <limits>

#include "util/parse.h"

namespace st::fault {

const char* faultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kBlackhole: return "blackhole";
    case FaultKind::kLoss: return "loss";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kServerOutage: return "outage";
    case FaultKind::kSlow: return "slow";
    case FaultKind::kFlap: return "flap";
    case FaultKind::kDup: return "dup";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kRejoin: return "rejoin";
  }
  return "unknown";
}

namespace {

using parse::fail;
using parse::trim;

bool parseKind(std::string_view token, FaultKind* out) {
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    const auto kind = static_cast<FaultKind>(i);
    if (token == faultKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

bool parseEvent(std::string_view text, FaultEvent* out, std::string* error) {
  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos) {
    fail(error, "fault event missing ':' after kind: '" + std::string(text) +
                    "'");
    return false;
  }
  FaultEvent event;
  const std::string_view kindToken = trim(text.substr(0, colon));
  if (!parseKind(kindToken, &event.kind)) {
    fail(error, "unknown fault kind '" + std::string(kindToken) + "'");
    return false;
  }
  // Reordering displaces a message forward in time; a zero window would be
  // a no-op, so the kind carries its own default (explicit delay_ms wins).
  if (event.kind == FaultKind::kReorder) event.extraDelay = sim::fromMillis(200);

  bool haveTime = false;
  std::string_view rest = text.substr(colon + 1);
  while (true) {
    const std::size_t comma = rest.find(',');
    const std::string_view field = trim(rest.substr(0, comma));
    if (field.empty()) {
      fail(error, "empty field in fault event '" + std::string(text) + "'");
      return false;
    }
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      fail(error, "fault field missing '=': '" + std::string(field) + "'");
      return false;
    }
    const std::string_view key = trim(field.substr(0, eq));
    const std::string_view value = trim(field.substr(eq + 1));
    double number = 0.0;
    std::uint64_t integer = 0;

    if (key == "t") {
      if (!parse::number(value, &number) || number < 0.0 ||
          !sim::checkedTime(number, sim::kSecond, &event.at)) {
        fail(error, "bad fault time '" + std::string(value) + "'");
        return false;
      }
      haveTime = true;
    } else if (key == "dur") {
      if (!parse::number(value, &number) || number <= 0.0 ||
          !sim::checkedTime(number, sim::kSecond, &event.duration)) {
        fail(error, "bad fault duration '" + std::string(value) + "'");
        return false;
      }
    } else if (key == "frac") {
      if (!parse::number(value, &number) || number < 0.0 || number > 1.0) {
        fail(error, "fault fraction must be in [0,1], got '" +
                        std::string(value) + "'");
        return false;
      }
      event.fraction = number;
    } else if (key == "user") {
      if (!parse::number(value, &integer) ||
          integer >= UserId::kInvalidValue) {
        fail(error, "bad user id '" + std::string(value) + "'");
        return false;
      }
      event.user = UserId{static_cast<std::uint32_t>(integer)};
    } else if (key == "peer") {
      if (!parse::number(value, &integer) ||
          integer >= UserId::kInvalidValue) {
        fail(error, "bad peer id '" + std::string(value) + "'");
        return false;
      }
      event.peer = UserId{static_cast<std::uint32_t>(integer)};
    } else if (key == "factor") {
      if (!parse::number(value, &number) || number < 1.0) {
        fail(error, "slowdown factor must be >= 1, got '" +
                        std::string(value) + "'");
        return false;
      }
      event.factor = number;
    } else if (key == "period") {
      if (!parse::number(value, &number) || number <= 0.0 ||
          !sim::checkedTime(number, sim::kSecond, &event.period)) {
        fail(error, "flap period must be > 0 seconds, got '" +
                        std::string(value) + "'");
        return false;
      }
    } else if (key == "cat") {
      if (!parse::number(value, &integer) ||
          integer >= CategoryId::kInvalidValue) {
        fail(error, "bad category id '" + std::string(value) + "'");
        return false;
      }
      event.category = CategoryId{static_cast<std::uint32_t>(integer)};
    } else if (key == "rate") {
      if (!parse::number(value, &number) || number < 0.0 || number > 1.0) {
        fail(error, "loss rate must be in [0,1], got '" + std::string(value) +
                        "'");
        return false;
      }
      event.lossRate = number;
    } else if (key == "delay_ms") {
      if (!parse::number(value, &number) || number < 0.0 ||
          !sim::checkedTime(number, sim::kMillisecond, &event.extraDelay)) {
        fail(error, "bad delay_ms '" + std::string(value) + "'");
        return false;
      }
    } else if (key == "server") {
      if (!parse::number(value, &integer) || integer > 1) {
        fail(error, "'server' must be 0 or 1, got '" + std::string(value) +
                        "'");
        return false;
      }
      event.cutServer = integer != 0;
    } else {
      fail(error, "unknown fault field '" + std::string(key) + "'");
      return false;
    }

    if (comma == std::string_view::npos) break;
    rest = rest.substr(comma + 1);
  }

  if (!haveTime) {
    fail(error, "fault event missing required 't=' field: '" +
                    std::string(text) + "'");
    return false;
  }
  if (event.kind == FaultKind::kPartition && !event.category.valid()) {
    fail(error, "partition event requires 'cat=': '" + std::string(text) +
                    "'");
    return false;
  }
  if (event.kind == FaultKind::kFlap && event.period == 0) {
    fail(error, "flap period rounds to zero microseconds: '" +
                    std::string(text) + "'");
    return false;
  }
  // A window's end, and a flap's flip one period past its last one inside
  // the window, must fit the clock: arm() would schedule a wrapped time.
  constexpr sim::SimTime kClockMax = std::numeric_limits<sim::SimTime>::max();
  const sim::SimTime flip = event.kind == FaultKind::kFlap ? event.period : 0;
  if (event.kind != FaultKind::kCrash && event.kind != FaultKind::kRejoin &&
      (event.duration > kClockMax - event.at ||
       flip > kClockMax - event.at - event.duration)) {
    fail(error, "fault window ends past the simulation clock: '" +
                    std::string(text) + "'");
    return false;
  }
  if (event.peer.valid()) {
    const bool edgeKind = event.kind == FaultKind::kSlow ||
                          event.kind == FaultKind::kDup ||
                          event.kind == FaultKind::kReorder;
    if (!edgeKind) {
      fail(error, "'peer=' only applies to slow/dup/reorder events: '" +
                      std::string(text) + "'");
      return false;
    }
    if (!event.user.valid()) {
      fail(error, "'peer=' requires 'user=' to name the edge: '" +
                      std::string(text) + "'");
      return false;
    }
    if (event.peer == event.user) {
      fail(error, "'peer=' must differ from 'user=': '" + std::string(text) +
                      "'");
      return false;
    }
  }
  *out = event;
  return true;
}

}  // namespace

bool Schedule::parse(std::string_view spec, Schedule* out,
                     std::string* error) {
  out->events_.clear();
  std::string_view rest = trim(spec);
  if (rest.empty() || rest == "none") return true;

  std::vector<FaultEvent> events;
  while (true) {
    const std::size_t semi = rest.find(';');
    const std::string_view text = trim(rest.substr(0, semi));
    if (text.empty()) {
      fail(error, "empty fault event in spec");
      return false;
    }
    FaultEvent event;
    if (!parseEvent(text, &event, error)) return false;
    events.push_back(event);
    if (semi == std::string_view::npos) break;
    rest = rest.substr(semi + 1);
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  out->events_ = std::move(events);
  return true;
}

const char* Schedule::grammar() {
  return "accepted --faults grammar:\n"
         "  spec     := \"\" | \"none\" | event (\";\" event)*\n"
         "  event    := kind \":\" field (\",\" field)*\n"
         "  kind     := crash | blackhole | loss | partition | outage\n"
         "            | slow | flap | dup | reorder | rejoin\n"
         "  field    := key \"=\" value\n"
         "keys (t required; times in seconds):\n"
         "  t        event time                       (all kinds)\n"
         "  dur      window length, default 600       (all except crash,\n"
         "                                             rejoin)\n"
         "  frac     affected fraction in [0,1]       (crash, blackhole,\n"
         "                                             slow, flap, rejoin)\n"
         "  user     target one specific user id      (blackhole, slow,\n"
         "                                             flap, rejoin)\n"
         "  peer     with user=, restrict to an edge  (slow, dup, reorder)\n"
         "  cat      interest category to isolate     (partition; required)\n"
         "  rate     drop/dup/reorder probability     (loss, dup, reorder)\n"
         "  delay_ms loss: extra latency; reorder:    (loss, reorder)\n"
         "           max displacement, default 200\n"
         "  factor   latency multiplier >= 1          (slow, flap)\n"
         "  period   flap half-period > 0, def. 60    (flap)\n"
         "  server   1 = partition cuts server path   (partition)\n"
         "example: slow:t=3600,dur=600,user=7,factor=8;dup:t=4000,rate=0.3;"
         "rejoin:t=5400,frac=0.5";
}

}  // namespace st::fault
