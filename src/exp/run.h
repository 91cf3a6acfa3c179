// One experiment's stack, owned in one place: exp::Run builds every
// component of a run, starts it or restores it from a snapshot, runs it to
// the horizon and extracts the paper's metrics. runExperiment, the snapshot
// tests and the fuzzers all drive a Run, so the construction order, which
// is part of the snapshot format (counters serialize in registration
// order, DESIGN.md §11), lives only here. Run is also the kRunner event
// factory: the server-state sample and the --snapshot-out save are tagged
// events, so a run can be snapshotted at any event boundary.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "exp/runner.h"
#include "fault/injector.h"
#include "fault/invariants.h"
#include "fault/recovery.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "snapshot/snapshot.h"
#include "trace/catalog.h"
#include "util/stats.h"
#include "vod/context.h"
#include "vod/library.h"
#include "vod/metrics.h"
#include "vod/releases.h"
#include "vod/selector.h"
#include "vod/session.h"
#include "vod/system.h"
#include "vod/transfer.h"

namespace st::exp {

class Run final : private sim::EventFactory, private net::FlowObserver {
 public:
  // kRunner event kinds; part of the snapshot format, append-only.
  static constexpr std::uint8_t kSampleEvent = 0;  // every 30 simulated min
  static constexpr std::uint8_t kSaveEvent = 1;    // a = the save time

  // Builds the stack, or returns null with *error naming the flag: a
  // malformed --faults spec or a rejected --shards plan. A null `catalog`
  // is generated from config.trace; otherwise it must outlive the run, as
  // must `trace` (an optional event-trace sink).
  [[nodiscard]] static std::unique_ptr<Run> create(
      const ExperimentConfig& config, SystemKind kind,
      const trace::Catalog* catalog, obs::EventTrace* trace,
      std::string* error);

  ~Run() override;
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  // Fresh start. Arms, in this stamp order: the fault injector, the
  // invariant checker, the release plan, the logins, the server sampler
  // and the --snapshot-out save.
  void start();
  // Instead of start(): restores `path`, then arms what the file lacks, a
  // newly configured injector or checker (warm-start forking) and the save.
  // A pending save in the file (a direct snapshot::save before the save
  // time wrote it) is accepted only when this run saves at the same time,
  // and replaces its own. False with snapshot::restore's *error on failure.
  [[nodiscard]] bool restore(const std::string& path, std::string* error);
  // Runs to the horizon. A failed save stops the run at the save time:
  // returns false with *error naming --snapshot-out and the path.
  [[nodiscard]] bool runToHorizon(std::string* error);
  // The paper's metrics, counters and overlay fingerprint as of now.
  [[nodiscard]] ExperimentResult extract() const;

  // The stack as snapshot::save / snapshot::restore see it.
  [[nodiscard]] snapshot::Participants participants();
  [[nodiscard]] snapshot::Compat compat() const {
    return {config_.seed, catalog_.userCount(), catalog_.videoCount()};
  }
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] const trace::Catalog& catalog() const { return catalog_; }

 private:
  Run(const ExperimentConfig& config, SystemKind kind,
      const trace::Catalog* catalog, trace::Catalog owned,
      obs::EventTrace* trace, std::unique_ptr<net::LatencyModel> latency,
      const sim::ShardPlan* plan, std::optional<fault::Schedule> schedule);

  // sim::EventFactory (Component::kRunner).
  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override;
  [[nodiscard]] bool onRestored(const sim::EventTag& tag,
                                sim::EventHandle handle) override;
  // net::FlowObserver, registered only under --overload: counts the
  // origin server's admission sheds and traces every shed.
  void onFlowShed(EndpointId src, EndpointId dst,
                  net::FlowClass flowClass) override;

  void armSave();
  void save();

  const ExperimentConfig config_;
  const trace::Catalog ownedCatalog_;
  const trace::Catalog& catalog_;
  obs::EventTrace* const trace_;
  // Construction order from here on.
  sim::Simulator simulator_;
  net::Network network_;
  vod::VideoLibrary library_;
  vod::Metrics metrics_;
  vod::SystemContext ctx_;
  vod::TransferManager transfers_;
  const std::unique_ptr<vod::VodSystem> system_;
  vod::VideoSelector selector_;
  vod::SessionDriver driver_;
  vod::ReleaseManager releases_;
  // Scripted faults and invariant audits, when configured. They register
  // their counters only then, so fault-free runs keep the seed counter set.
  std::optional<fault::Injector> injector_;
  std::optional<fault::RecoveryManager> recovery_;
  std::optional<fault::InvariantChecker> checker_;
  obs::Counter* shed_ = nullptr;  // "server.shed", under --overload only

  RunningStats serverSample_;
  std::uint64_t snapshotBytes_ = 0;
  // --snapshot-out: when the save fires (the horizon when none is set),
  // whether a restored file supplied it, and why it failed.
  const sim::SimTime saveAt_;
  bool saveRestored_ = false;
  std::string saveError_;
};

}  // namespace st::exp
