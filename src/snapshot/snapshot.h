// Full-simulation checkpoint/restore orchestrator.
//
// A snapshot is one versioned, CRC-guarded binary file (snapshot/codec.h)
// holding the complete mutable state of a run: the simulator clock and its
// pending event queue (as EventTags), the network RNG and flow planes, the
// protocol context (presence, payload pool, breaker board), the transfer
// arena, the active system's overlay/cache/search state, session and
// selector RNG streams, release/fault/invariant machinery, metrics and the
// counter registry, the optional event-trace ring, and the runner's
// periodic server-registration series.
//
// Contract: restore-or-nothing. restore() validates the header, the
// environment fingerprint (Compat), and every section before any state is
// applied *per component*; a component whose section fails leaves the
// Reader in a sticky error state and restore() reports it without running
// the simulator. Once every component section is loaded, each flow's
// completion tag is checked against its component's restored state
// (EventFactory::onRestoredCompletion). The simulator queue loads LAST so
// every component factory is registered and fully restored before
// callbacks are rebuilt and EventFactory::onRestored re-stores
// timer/deadline handles.
//
// After a successful restore the caller must NOT re-run the fresh-start
// scheduling (exp::Run::start): every pending event comes from the file.
// Warm-start forking is the exception: fault/audit machinery that was
// absent when the snapshot was taken may be armed after restore to layer
// new scenarios onto the warmed state (exp::Run::restore does both).
#pragma once

#include <cstdint>
#include <string>

#include "fault/injector.h"
#include "fault/invariants.h"
#include "obs/event_trace.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "vod/context.h"
#include "vod/metrics.h"
#include "vod/releases.h"
#include "vod/selector.h"
#include "vod/session.h"
#include "vod/system.h"
#include "vod/transfer.h"

namespace st::snapshot {

// Everything a checkpoint touches (exp::Run::participants() wires a run's
// stack). The system's name() selects the file's system code. injector,
// checker, and trace are optional; save() records which were present and
// restore() cross-checks (see Compat flags below).
struct Participants {
  sim::Simulator* sim = nullptr;
  net::Network* network = nullptr;
  vod::SystemContext* ctx = nullptr;
  vod::Metrics* metrics = nullptr;
  vod::TransferManager* transfers = nullptr;
  vod::VodSystem* system = nullptr;
  vod::SessionDriver* driver = nullptr;
  vod::VideoSelector* selector = nullptr;
  vod::ReleaseManager* releases = nullptr;
  fault::Injector* injector = nullptr;         // optional
  fault::InvariantChecker* checker = nullptr;  // optional
  obs::EventTrace* trace = nullptr;            // optional
  // The runner's periodic server-registration sample series.
  RunningStats* serverSample = nullptr;
};

// Environment fingerprint stored in the snapshot: restore refuses a file
// taken under a different workload shape or system. The caller builds it
// from the live run's config/catalog; save() derives the system code and
// presence flags from Participants.
struct Compat {
  std::uint64_t seed = 0;
  std::uint64_t userCount = 0;
  std::uint64_t videoCount = 0;
};

// Serializes the complete run state to `path` (atomically buffered in
// memory, then written with header + CRC). Fails — without writing — when
// any pending simulator event is untagged. On failure returns false and
// sets *error. On success *bytesOut (when non-null) receives the on-disk
// file size, header included — the runner reports it as snapshot.bytes.
bool save(const std::string& path, const Participants& p, const Compat& compat,
          std::string* error, std::uint64_t* bytesOut = nullptr);

// What restore() found in the file — lets the caller arm machinery that is
// newly configured for this run (absent from the snapshot).
struct RestoreInfo {
  bool injectorLoaded = false;  // fault state came from the file
  bool checkerLoaded = false;   // suspect table came from the file
};

// Restores `path` into a freshly constructed (not yet started) run. The
// Participants must be wired exactly like the run that saved, except that
// injector/checker may be newly present (warm-start forking) — then their
// sections are absent from the file, RestoreInfo reports them unloaded, and
// the caller arms them. Returns false and sets *error on any mismatch or
// corruption.
// On success *bytesOut (when non-null) receives the size of the file image
// that was restored — the same number save() reported for it, so a
// save/restore differential pair exposes identical snapshot.bytes telemetry.
bool restore(const std::string& path, const Participants& p,
             const Compat& compat, std::string* error,
             RestoreInfo* info = nullptr, std::uint64_t* bytesOut = nullptr);

}  // namespace st::snapshot
