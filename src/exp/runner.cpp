#include "exp/runner.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <iterator>
#include <optional>
#include <utility>

#include "baselines/nettube.h"
#include "baselines/pavod.h"
#include "core/socialtube.h"
#include "fault/injector.h"
#include "fault/invariants.h"
#include "fault/recovery.h"
#include "fault/schedule.h"
#include "net/latency.h"
#include "net/network.h"
#include "sim/shard.h"
#include "sim/simulator.h"
#include "snapshot/snapshot.h"
#include "trace/generator.h"
#include "util/thread_pool.h"
#include "vod/context.h"
#include "vod/library.h"
#include "vod/metrics.h"
#include "vod/releases.h"
#include "vod/selector.h"
#include "vod/session.h"
#include "vod/system.h"
#include "vod/transfer.h"

namespace st::exp {

const char* systemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kSocialTube: return "SocialTube";
    case SystemKind::kNetTube: return "NetTube";
    case SystemKind::kPaVod: return "PA-VoD";
  }
  return "?";
}

namespace {

std::unique_ptr<net::LatencyModel> makeLatency(const ExperimentConfig& config) {
  if (config.mode == Mode::kPlanetLab) {
    // Wide-area: heavy-tailed RTTs and 1% message loss, standing in for the
    // paper's "unstable network environment on PlanetLab".
    return std::make_unique<net::WideAreaLatencyModel>(
        config.seed, /*medianMs=*/80.0, /*sigma=*/0.6, /*lossRate=*/0.01);
  }
  return std::make_unique<net::CleanLatencyModel>(
      config.seed, 10 * sim::kMillisecond, 80 * sim::kMillisecond);
}

std::unique_ptr<vod::VodSystem> makeSystem(SystemKind kind,
                                           vod::SystemContext& ctx,
                                           vod::TransferManager& transfers) {
  switch (kind) {
    case SystemKind::kSocialTube:
      return std::make_unique<core::SocialTubeSystem>(ctx, transfers);
    case SystemKind::kNetTube:
      return std::make_unique<baselines::NetTubeSystem>(ctx, transfers);
    case SystemKind::kPaVod:
      return std::make_unique<baselines::PaVodSystem>(ctx, transfers);
  }
  return nullptr;
}

// Samples the origin server's membership-state size every 30 simulated
// minutes (the §IV-A server-state comparison). Tagged (Component::kRunner)
// so the pending sample event snapshots; the accumulated series rides in
// the snapshot's RUNR section via Participants::serverSample.
class ServerSampler final : public sim::EventFactory {
 public:
  static constexpr std::uint8_t kSampleEvent = 0;

  ServerSampler(sim::Simulator& sim, vod::VodSystem& system)
      : sim_(sim), system_(system) {
    sim_.registerFactory(sim::Component::kRunner, this);
  }
  ~ServerSampler() override {
    if (sim_.factory(sim::Component::kRunner) == this) {
      sim_.registerFactory(sim::Component::kRunner, nullptr);
    }
  }

  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override {
    (void)tag;
    assert(tag.kind == kSampleEvent && "unknown runner event kind");
    return [this] {
      stats_.add(
          static_cast<double>(system_.statsSnapshot().serverRegistrations));
    };
  }

  void arm() {
    sim_.schedulePeriodicTagged(
        30 * sim::kMinute, sim::makeTag(sim::Component::kRunner, kSampleEvent));
  }

  [[nodiscard]] RunningStats& stats() { return stats_; }

 private:
  sim::Simulator& sim_;
  vod::VodSystem& system_;
  RunningStats stats_;
};

// Counts admission-control rejections at the origin server and mirrors each
// one into the event trace. RAII FlowObserver: registers in the constructor,
// removes itself before the network dies — no captured-closure state inside
// FlowNetwork, so a mid-run snapshot never has to reason about it.
class ShedRecorder final : public net::FlowObserver {
 public:
  ShedRecorder(net::FlowNetwork& flows, obs::Counter& shed,
               const vod::SystemContext& ctx, obs::EventTrace* trace,
               const sim::Simulator& simulator)
      : flows_(flows), shed_(shed), ctx_(ctx), trace_(trace),
        simulator_(simulator) {
    flows_.addObserver(this);
  }
  ~ShedRecorder() override { flows_.removeObserver(this); }
  ShedRecorder(const ShedRecorder&) = delete;
  ShedRecorder& operator=(const ShedRecorder&) = delete;

  void onFlowShed(EndpointId src, EndpointId dst,
                  net::FlowClass flowClass) override {
    if (src == ctx_.serverEndpoint()) shed_.inc();
    ST_TRACE(trace_, simulator_.now(), kShed, dst.value(), src.value(),
             static_cast<std::uint64_t>(flowClass));
#if !ST_TRACE_ENABLED
    (void)dst;
    (void)flowClass;
#endif
  }

 private:
  net::FlowNetwork& flows_;
  obs::Counter& shed_;
  const vod::SystemContext& ctx_;
  obs::EventTrace* trace_;
  const sim::Simulator& simulator_;
};

}  // namespace

ExperimentResult runExperiment(const ExperimentConfig& config,
                               SystemKind kind,
                               const trace::Catalog* catalog,
                               obs::EventTrace* trace) {
  obs::PhaseProfiler profiler;
  const auto failed = [&](std::string error) {
    ExperimentResult result;
    result.system = systemName(kind);
    result.mode = config.mode;
    result.seed = config.seed;
    result.error = std::move(error);
    return result;
  };

  trace::Catalog owned;
  if (catalog == nullptr) {
    const auto scope = profiler.scope("trace_gen");
    owned = trace::generateTrace(config.trace);
    catalog = &owned;
  }

  // Run-local sink when the config asks for a trace file and the caller did
  // not supply a sink of their own.
  std::optional<obs::EventTrace> ownedTrace;
  if (trace == nullptr && !config.obs.traceOut.empty()) {
    ownedTrace.emplace();
    trace = &*ownedTrace;
  }

  auto setupScope = std::optional(profiler.scope("setup"));
  sim::Simulator simulator;
  // The latency model is built before the network facade so its delay floor
  // can seed the shard plan's lookahead; configureShards must run on the
  // pristine simulator, before anything below schedules an event.
  auto latency = makeLatency(config);
  if (config.shards.any()) {
    sim::ShardPlan plan;
    plan.keyCount = static_cast<std::uint32_t>(catalog->categoryCount()) + 1;
    plan.shardCount = config.shards.count;
    plan.lookahead = latency->minDelay();
    std::string error;
    if (!simulator.configureShards(plan, &error)) {
      return failed("--shards " + std::to_string(config.shards.count) + ": " +
                    error);
    }
    // The full experiment stack shares one protocol RNG, one metrics sink,
    // and one flow solver across communities, so sharded runs execute on
    // the serial canonical merge (bitwise equal at every shard count);
    // parallel lookahead windows are for shard-safe workloads.
    simulator.setWorkers(1);
  }
  net::Network network(simulator, std::move(latency), config.seed);
  vod::VideoLibrary library(*catalog, config.vod);
  vod::Metrics metrics(catalog->userCount(), config.vod.videosPerSession);

  // One registry per run: Metrics owns it and seeds the protocol counters;
  // every other layer registers its scalars here and the final snapshot is
  // the run's complete counter set.
  obs::Registry& registry = metrics.registry();
  simulator.registerInto(registry);
  network.registerInto(registry);

  vod::SystemContext ctx(simulator, network, *catalog, library, config.vod,
                         metrics, config.seed);
  ctx.setTrace(trace);
  vod::TransferManager transfers(ctx);
  const std::unique_ptr<vod::VodSystem> system =
      makeSystem(kind, ctx, transfers);
  vod::VideoSelector selector(*catalog, config.vod, config.seed);
  selector.attachContext(ctx);
  vod::SessionDriver driver(ctx, *system, transfers, selector, config.seed);

  // Scripted faults + invariant auditing, if configured. Both register
  // their counters only when active, so fault-free runs keep the seed
  // counter set (and CSV columns) unchanged.
  const bool restoring = !config.snapshot.in.empty();

  std::optional<fault::Injector> injector;
  std::optional<fault::InvariantChecker> checker;
  std::optional<fault::RecoveryManager> recovery;
  if (config.faults.any()) {
    fault::Schedule schedule;
    std::string error;
    if (!fault::Schedule::parse(config.faults.spec, &schedule, &error)) {
      return failed("invalid --faults spec: " + error);
    }
    const bool hasRejoin = schedule.has(fault::FaultKind::kRejoin);
    injector.emplace(ctx, std::move(schedule), config.seed);
    injector->setCrashHandler(
        [&driver](UserId user) { driver.crashUser(user); });
    if (hasRejoin) {
      // Anti-entropy recovery for crash-rejoin faults. Constructed only
      // when the schedule has rejoin events, so its recovery.* counters
      // never appear in old-spec runs; its snapshot state rides inside the
      // injector's FALT section (presence derives from the same schedule on
      // both sides of a save/restore).
      fault::RecoveryOptions options;
      options.graceHorizon = config.faults.graceHorizon;
      recovery.emplace(ctx, *system, transfers, options);
      injector->setRejoinHandler([&driver, &recovery](UserId user) {
        driver.rejoinUser(user);
        recovery->onRejoin(user);
      });
      injector->setRecovery(&*recovery);
    }
    if (!restoring) injector->arm();
    if (config.faults.auditInterval > 0) {
      fault::CheckerOptions options;
      options.auditInterval = config.faults.auditInterval;
      options.graceHorizon = config.faults.graceHorizon;
      // Confirmed violations are exceptional: besides the counter and the
      // kViolation trace event, name the broken rule on stderr so a CLI
      // run surfaces *what* broke, not just how often.
      options.onViolation = [&simulator](const vod::AuditViolation& v) {
        std::fprintf(stderr,
                     "invariant violation t=%lld rule=%s actor=%u subject=%u\n",
                     static_cast<long long>(simulator.now()), v.rule.c_str(),
                     v.actor, v.subject);
      };
      checker.emplace(ctx, *system, transfers, std::move(options));
      if (!restoring) checker->arm();
    }
  }

  // Dynamic uploads, if configured: hold some videos back and publish them
  // during the run, feeding the channels' subscribers.
  vod::ReleaseManager releases(ctx, selector,
                               config.releases.feedWatchProbability,
                               config.seed);
  if (config.releases.perChannel > 0 && !restoring) {
    const auto windowStart = static_cast<sim::SimTime>(
        config.releases.windowStartFraction *
        static_cast<double>(config.duration));
    const auto windowEnd = static_cast<sim::SimTime>(
        config.releases.windowEndFraction *
        static_cast<double>(config.duration));
    releases.schedule(vod::ReleaseManager::uniformPlan(
        *catalog, config.releases.perChannel, windowStart, windowEnd,
        config.seed));
  }

  registry.addGauge("server_bytes", [&network, &ctx] {
    return network.flows().bytesUploaded(ctx.serverEndpoint());
  });
  registry.addGauge("sessions_completed",
                    [&driver] { return driver.sessionsCompleted(); });
  registry.addGauge("releases_fired",
                    [&releases] { return releases.releasesFired(); });
  registry.addGauge("feed_notifications",
                    [&releases] { return releases.feedNotifications(); });
  registry.addGauge("feed_watches",
                    [&selector] { return selector.feedWatches(); });

  // Overload-control observability. Registered only when a knob is active so
  // overload-off runs keep the seed counter set (and CSV columns) unchanged —
  // the same pattern as Faults above.
  std::optional<ShedRecorder> shedRecorder;
  if (config.vod.overload.any()) {
    shedRecorder.emplace(network.flows(), registry.counter("server.shed"), ctx,
                         trace, simulator);
    registry.addGauge("prefetch.throttled",
                      [&metrics] { return metrics.prefetchThrottled(); });
    registry.addGauge("breaker.opened",
                      [&ctx] { return ctx.breakers().opened(); });
    registry.addGauge("breaker.closed",
                      [&ctx] { return ctx.breakers().closed(); });
    registry.addGauge("breaker.half_open",
                      [&ctx] { return ctx.breakers().halfOpened(); });
    registry.addGauge("breaker.open",
                      [&ctx] { return ctx.breakers().openNow(); });
    registry.addGauge("slo.stall_count",
                      [&metrics] { return metrics.stallCount(); });
    registry.addGauge("slo.stall_ms", [&metrics] {
      return static_cast<std::uint64_t>(metrics.stallSeconds() * 1000.0);
    });
    // Fixed-point parts-per-million so the integer registry can carry the
    // ratio the slo knob targets.
    registry.addGauge("slo.rebuffer_ratio_ppm", [&metrics] {
      return static_cast<std::uint64_t>(metrics.rebufferRatio() * 1e6);
    });
    registry.addGauge("slo.startup_p99_ms", [&metrics] {
      return static_cast<std::uint64_t>(
          metrics.startupDelayMs().percentile(99));
    });
    const double sloTarget = config.vod.overload.rebufferSloRatio;
    registry.addGauge("slo.rebuffer_within_target", [&metrics, sloTarget] {
      return metrics.rebufferRatio() <= sloTarget ? 1 : 0;
    });
  }

  // Snapshot size telemetry. Registered only when checkpointing is active so
  // snapshot-free runs keep the seed counter set unchanged. A differential
  // pair stays counter-comparable because the restoring arm reports the size
  // of the file image it read — the very file (and byte count) the saving
  // arm wrote.
  std::uint64_t snapshotBytes = 0;
  if (!config.snapshot.out.empty() || !config.snapshot.in.empty()) {
    registry.addGauge("snapshot.bytes",
                      [&snapshotBytes] { return snapshotBytes; });
  }

  ServerSampler sampler(simulator, *system);

  snapshot::Participants participants;
  participants.sim = &simulator;
  participants.network = &network;
  participants.ctx = &ctx;
  participants.metrics = &metrics;
  participants.transfers = &transfers;
  switch (kind) {
    case SystemKind::kSocialTube:
      participants.socialTube =
          static_cast<core::SocialTubeSystem*>(system.get());
      break;
    case SystemKind::kNetTube:
      participants.netTube =
          static_cast<baselines::NetTubeSystem*>(system.get());
      break;
    case SystemKind::kPaVod:
      participants.paVod = static_cast<baselines::PaVodSystem*>(system.get());
      break;
  }
  participants.driver = &driver;
  participants.selector = &selector;
  participants.releases = &releases;
  participants.injector = injector ? &*injector : nullptr;
  participants.checker = checker ? &*checker : nullptr;
  participants.trace = trace;
  participants.serverSample = &sampler.stats();
  const snapshot::Compat compat{config.seed, catalog->userCount(),
                                catalog->videoCount()};

  if (restoring) {
    // Every pending event comes from the file; the fresh-start scheduling
    // above (driver.start, arm calls, release plan) was skipped. Machinery
    // configured now but absent from the snapshot is armed here on top of
    // the warmed state (fault/overload scenario forking).
    snapshot::RestoreInfo info;
    std::string error;
    if (!snapshot::restore(config.snapshot.in, participants, compat, &error,
                           &info, &snapshotBytes)) {
      return failed("--snapshot-in " + config.snapshot.in + ": " + error);
    }
    if (injector && !info.injectorLoaded) injector->arm();
    if (checker && !info.checkerLoaded) checker->arm();
  } else {
    driver.start();
    sampler.arm();
  }
  // A failed save stops the run there: the loop below runs to the save
  // time first and goes on only if the save succeeded.
  sim::SimTime saveAt = config.duration;
  std::string saveError;
  if (!config.snapshot.out.empty()) {
    if (config.snapshot.at > 0) saveAt = config.snapshot.at;
    // Untagged on purpose: by the time any snapshot is taken this event has
    // already fired (it IS the save), so it is never itself pending state.
    simulator.scheduleAt(
        saveAt, [&participants, &compat, &config, &snapshotBytes, &saveError] {
          std::string error;
          if (!snapshot::save(config.snapshot.out, participants, compat,
                              &error, &snapshotBytes)) {
            saveError = "--snapshot-out " + config.snapshot.out + ": " + error;
            return;
          }
          std::fprintf(stderr, "snapshot %s: %llu bytes\n",
                       config.snapshot.out.c_str(),
                       static_cast<unsigned long long>(snapshotBytes));
        });
  }
  setupScope.reset();

  {
    const auto scope = profiler.scope("event_loop");
    if (saveAt < config.duration) simulator.runUntil(saveAt);
    if (saveError.empty()) simulator.runUntil(config.duration);
  }
  if (!saveError.empty()) return failed(std::move(saveError));
  if (config.shards.any()) {
    // Per-shard engine telemetry rides in the phase report (wall-clock
    // territory, excluded from the determinism guarantee): one phase per
    // shard whose call count is the events that shard fired, plus the
    // barrier-window and cross-shard tallies.
    for (std::uint32_t s = 0; s < simulator.shardCount(); ++s) {
      profiler.record("shard" + std::to_string(s) + "_events", 0.0,
                      simulator.shardEventsFired(s));
    }
    profiler.record("shard_windows", 0.0, simulator.windowsRun());
    profiler.record("shard_cross_posts", 0.0, simulator.crossShardPosts());
    profiler.record("shard_cross_below_floor", 0.0,
                    simulator.crossBelowFloor());
  }

  auto extractScope = std::optional(profiler.scope("extract"));
  ExperimentResult result;
  result.system = std::string(system->name());
  result.mode = config.mode;
  result.seed = config.seed;
  result.crossBelowFloor = simulator.crossBelowFloor();
  result.normalizedPeerBandwidth = metrics.normalizedPeerBandwidth();
  result.startupDelayMs = metrics.startupDelayMs();
  result.linksByVideosWatched = metrics.linksByVideosWatched();
  result.redundantLinks = metrics.redundantLinks();
  result.serverRegistrations = sampler.stats();
  {
    std::vector<double> uploads;
    uploads.reserve(catalog->userCount());
    for (std::size_t i = 0; i < catalog->userCount(); ++i) {
      uploads.push_back(static_cast<double>(network.flows().bytesUploaded(
          EndpointId{static_cast<std::uint32_t>(i)})));
    }
    result.uploadGini = giniCoefficient(uploads);
  }
  {
    snapshot::Writer w;
    if (participants.socialTube != nullptr) {
      participants.socialTube->saveState(w);
    } else if (participants.netTube != nullptr) {
      participants.netTube->saveState(w);
    } else {
      participants.paVod->saveState(w);
    }
    result.overlayFingerprint =
        snapshot::crc32(w.body().data(), w.body().size());
  }
  // The generic snapshot replaces the old field-by-field copy: every
  // counter and gauge registered above lands here by name.
  result.counters = registry.snapshot();
  if (ownedTrace) ownedTrace->writeJsonl(config.obs.traceOut);
  extractScope.reset();

  result.phases = profiler.phases();
  return result;
}

std::vector<ExperimentResult> runAllSystems(const ExperimentConfig& config,
                                            std::size_t threads) {
  const trace::Catalog catalog = trace::generateTrace(config.trace);
  constexpr SystemKind kOrder[] = {SystemKind::kPaVod,
                                   SystemKind::kSocialTube,
                                   SystemKind::kNetTube};
  constexpr std::size_t kCount = std::size(kOrder);
  // Each run owns its whole simulator/metrics stack and only reads the
  // shared catalog, so the three systems can run concurrently; fixed result
  // slots keep the output order stable.
  std::vector<ExperimentResult> results(kCount);
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(std::min(threads, kCount));
  parallelFor(pool ? &*pool : nullptr, kCount, [&](std::size_t i) {
    ExperimentConfig runConfig = config;
    if (!runConfig.obs.traceOut.empty()) {
      // Per-system trace files: parallel runs must not clobber one path.
      runConfig.obs.traceOut += ".";
      runConfig.obs.traceOut += systemName(kOrder[i]);
    }
    // Snapshots are per-system for the same reason — and restore refuses a
    // file saved by a different system, so the suffix keeps a three-system
    // sweep's save/restore pairs lined up automatically.
    if (!runConfig.snapshot.out.empty()) {
      runConfig.snapshot.out += ".";
      runConfig.snapshot.out += systemName(kOrder[i]);
    }
    if (!runConfig.snapshot.in.empty()) {
      runConfig.snapshot.in += ".";
      runConfig.snapshot.in += systemName(kOrder[i]);
    }
    results[i] = runExperiment(runConfig, kOrder[i], &catalog);
  });
  return results;
}

bool reportRunErrors(std::span<const ExperimentResult> results) {
  bool failed = false;
  for (const ExperimentResult& result : results) {
    if (result.error.empty()) continue;
    std::fprintf(stderr, "%s: %s\n", result.system.c_str(),
                 result.error.c_str());
    failed = true;
  }
  return failed;
}

}  // namespace st::exp
