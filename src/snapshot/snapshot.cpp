#include "snapshot/snapshot.h"

#include <iterator>
#include <string_view>
#include <utility>
#include <vector>

#include "snapshot/codec.h"

namespace st::snapshot {

namespace {

constexpr std::uint32_t kCompatTag = 0x54504d43;  // "CMPT"
constexpr std::uint32_t kRunnerTag = 0x524e5552;  // "RUNR"

// A system's code is its index here; the codes are part of the format,
// append-only. 0 = none wired (or an unknown name).
constexpr std::string_view kSystemNames[] = {"?", "SocialTube", "NetTube",
                                             "PA-VoD"};

std::uint8_t systemCode(const Participants& p) {
  if (p.system == nullptr) return 0;
  for (std::uint8_t code = 1; code < std::size(kSystemNames); ++code) {
    if (p.system->name() == kSystemNames[code]) return code;
  }
  return 0;
}

std::string_view systemCodeName(std::uint8_t code) {
  return code < std::size(kSystemNames) ? kSystemNames[code]
                                        : kSystemNames[0];
}

// Every required participant is set and the system's name has a code.
bool wired(const Participants& p) {
  return p.sim != nullptr && p.network != nullptr && p.ctx != nullptr &&
         p.metrics != nullptr && p.transfers != nullptr &&
         p.driver != nullptr && p.selector != nullptr &&
         p.releases != nullptr && p.serverSample != nullptr &&
         systemCode(p) != 0;
}

bool failOut(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

std::string readerError(const Reader& r) {
  return r.error().empty() ? std::string("snapshot restore failed")
                           : r.error();
}

}  // namespace

bool save(const std::string& path, const Participants& p, const Compat& compat,
          std::string* error, std::uint64_t* bytesOut) {
  if (!wired(p)) {
    return failOut(error, "snapshot save: participants incompletely wired");
  }

  Writer w;
  w.section(kCompatTag);
  w.u64(compat.seed);
  w.u64(compat.userCount);
  w.u64(compat.videoCount);
  w.u8(systemCode(p));
  w.boolean(p.injector != nullptr);
  w.boolean(p.checker != nullptr);
  w.boolean(p.trace != nullptr);

  p.ctx->saveState(w);
  p.metrics->saveState(w);
  p.network->saveState(w);
  if (!p.network->flows().saveState(w, error)) return false;
  p.transfers->saveState(w);
  p.system->saveState(w);
  p.driver->saveState(w);
  p.selector->saveState(w);
  p.releases->saveState(w);
  if (p.injector != nullptr) p.injector->saveState(w);
  if (p.checker != nullptr) p.checker->saveState(w);
  if (p.trace != nullptr) p.trace->saveState(w);

  w.section(kRunnerTag);
  saveRunningStats(w, *p.serverSample);

  // The event queue goes last so restore can rebuild callbacks against
  // fully loaded component state.
  if (!p.sim->saveState(w, error)) return false;
  if (!w.writeFile(path, error)) return false;
  if (bytesOut != nullptr) {
    // magic + version + body length + CRC, then the body itself.
    *bytesOut = 20 + static_cast<std::uint64_t>(w.body().size());
  }
  return true;
}

bool restore(const std::string& path, const Participants& p,
             const Compat& compat, std::string* error, RestoreInfo* info,
             std::uint64_t* bytesOut) {
  if (!wired(p)) {
    return failOut(error, "snapshot restore: participants incompletely wired");
  }

  std::vector<std::uint8_t> bytes;
  if (!Reader::readFile(path, &bytes, error)) return false;
  const auto fileBytes = static_cast<std::uint64_t>(bytes.size());
  Reader r(std::move(bytes));
  if (!r.ok()) return failOut(error, readerError(r));

  r.section(kCompatTag, "compat");
  const std::uint64_t seed = r.u64();
  const std::uint64_t userCount = r.u64();
  const std::uint64_t videoCount = r.u64();
  const std::uint8_t savedSystem = r.u8();
  const bool hadInjector = r.boolean();
  const bool hadChecker = r.boolean();
  const bool hadTrace = r.boolean();
  if (!r.ok()) return failOut(error, readerError(r));

  if (seed != compat.seed) {
    return failOut(error, "snapshot seed mismatch (restore with --seed " +
                              std::to_string(seed) + ")");
  }
  if (userCount != compat.userCount || videoCount != compat.videoCount) {
    return failOut(error,
                   "snapshot workload shape mismatch (users/videos differ)");
  }
  if (savedSystem != systemCode(p)) {
    return failOut(error, "snapshot was taken for " +
                              std::string(systemCodeName(savedSystem)) +
                              ", not the configured system");
  }
  // Machinery present at save time must be present now — its pending events
  // are in the queue and its section is in the file. The reverse (newly
  // configured fault/audit machinery, warm-start forking) is allowed: the
  // caller arms it after restore.
  if (hadInjector && p.injector == nullptr) {
    return failOut(error,
                   "snapshot has a fault schedule; restore with the same "
                   "--faults spec");
  }
  if (hadChecker && p.checker == nullptr) {
    return failOut(error,
                   "snapshot has an invariant checker; restore with the same "
                   "--audit interval");
  }
  if (hadTrace && p.trace == nullptr) {
    return failOut(error,
                   "snapshot recorded an event trace; restore with tracing "
                   "enabled");
  }
  if (info != nullptr) {
    info->injectorLoaded = hadInjector;
    info->checkerLoaded = hadChecker;
  }

  if (!p.ctx->loadState(r)) return failOut(error, readerError(r));
  if (!p.metrics->loadState(r)) return failOut(error, readerError(r));
  if (!p.network->loadState(r)) return failOut(error, readerError(r));
  if (!p.network->flows().loadState(r)) return failOut(error, readerError(r));
  if (!p.transfers->loadState(r)) return failOut(error, readerError(r));
  if (!p.system->loadState(r)) return failOut(error, readerError(r));
  if (!p.driver->loadState(r)) return failOut(error, readerError(r));
  if (!p.selector->loadState(r)) return failOut(error, readerError(r));
  if (!p.releases->loadState(r)) return failOut(error, readerError(r));
  if (hadInjector && !p.injector->loadState(r)) {
    return failOut(error, readerError(r));
  }
  if (hadChecker && !p.checker->loadState(r)) {
    return failOut(error, readerError(r));
  }
  if (hadTrace && !p.trace->loadState(r)) {
    return failOut(error, readerError(r));
  }

  r.section(kRunnerTag, "runner sampler");
  const RunningStats sample = loadRunningStats(r);
  if (!r.ok()) return failOut(error, readerError(r));
  *p.serverSample = sample;
  // Every component is loaded, so each flow's completion tag can be checked
  // against the state it will be invoked on.
  if (!p.network->flows().checkCompletionTags(r)) {
    return failOut(error, readerError(r));
  }

  if (!p.sim->loadState(r)) return failOut(error, readerError(r));
  if (!r.atEnd()) {
    return failOut(error, "snapshot has trailing bytes after the sim queue");
  }
  if (bytesOut != nullptr) *bytesOut = fileBytes;
  return true;
}

}  // namespace st::snapshot
