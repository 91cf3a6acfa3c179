#include "exp/run.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "baselines/nettube.h"
#include "baselines/pavod.h"
#include "core/socialtube.h"
#include "fault/schedule.h"
#include "net/latency.h"
#include "sim/shard.h"
#include "trace/generator.h"

namespace st::exp {

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

// Installs a community plan on the still-pristine simulator, before the
// network is built on it. The stack shares one protocol RNG, one metrics
// sink and one flow solver across communities, so sharded runs take the
// serial canonical merge (bitwise equal at every shard count).
sim::Simulator& configured(sim::Simulator& simulator,
                           const sim::ShardPlan* plan) {
  if (plan != nullptr) {
    simulator.configureShards(*plan);
    simulator.setWorkers(1);
  }
  return simulator;
}

}  // namespace

std::unique_ptr<Run> Run::create(const ExperimentConfig& config,
                                 SystemKind kind,
                                 const trace::Catalog* catalog,
                                 obs::EventTrace* trace, std::string* error) {
  trace::Catalog owned;
  if (catalog == nullptr) owned = trace::generateTrace(config.trace);
  const trace::Catalog& workload = catalog != nullptr ? *catalog : owned;
  auto latency = makeLatency(config);
  sim::ShardPlan plan;
  if (config.shards.any()) {
    // The latency floor is the lookahead. The plan is checked on a scratch
    // simulator, so a rejected one builds nothing.
    plan.keyCount = static_cast<std::uint32_t>(workload.categoryCount()) + 1;
    plan.shardCount = config.shards.count;
    plan.lookahead = latency->minDelay();
    sim::Simulator probe;
    std::string why;
    if (!probe.configureShards(plan, &why)) {
      *error = "--shards " + std::to_string(config.shards.count) + ": " + why;
      return nullptr;
    }
  }
  std::optional<fault::Schedule> schedule;
  if (config.faults.any()) {
    schedule.emplace();
    std::string why;
    if (!fault::Schedule::parse(config.faults.spec, &*schedule, &why)) {
      *error = "invalid --faults spec: " + why;
      return nullptr;
    }
  }
  return std::unique_ptr<Run>(
      new Run(config, kind, catalog, std::move(owned), trace,
              std::move(latency), config.shards.any() ? &plan : nullptr,
              std::move(schedule)));
}

Run::Run(const ExperimentConfig& config, SystemKind kind,
         const trace::Catalog* catalog, trace::Catalog owned,
         obs::EventTrace* trace, std::unique_ptr<net::LatencyModel> latency,
         const sim::ShardPlan* plan, std::optional<fault::Schedule> schedule)
    : config_(config),
      ownedCatalog_(std::move(owned)),
      catalog_(catalog != nullptr ? *catalog : ownedCatalog_),
      trace_(trace),
      network_(configured(simulator_, plan), std::move(latency), config.seed),
      library_(catalog_, config.vod),
      metrics_(catalog_.userCount(), config.vod.videosPerSession),
      ctx_(simulator_, network_, catalog_, library_, config.vod, metrics_,
           config.seed),
      transfers_(ctx_),
      system_(makeSystem(kind, ctx_, transfers_)),
      selector_(catalog_, config.vod, config.seed),
      driver_(ctx_, *system_, transfers_, selector_, config.seed),
      releases_(ctx_, selector_, config.releases.feedWatchProbability,
                config.seed),
      saveAt_(!config.snapshot.out.empty() && config.snapshot.at > 0
                  ? config.snapshot.at
                  : config.duration) {
  // One registry per run: Metrics owns it and seeds the protocol counters;
  // every other layer registers its scalars here.
  obs::Registry& registry = metrics_.registry();
  simulator_.registerInto(registry);
  network_.registerInto(registry);
  ctx_.setTrace(trace_);
  selector_.attachContext(ctx_);

  if (schedule) {
    const bool hasRejoin = schedule->has(fault::FaultKind::kRejoin);
    injector_.emplace(ctx_, std::move(*schedule), config.seed);
    injector_->setCrashHandler(
        [this](UserId user) { driver_.crashUser(user); });
    if (hasRejoin) {
      // Anti-entropy recovery for crash-rejoin faults. Built only when the
      // schedule has rejoin events, so its recovery.* counters never appear
      // in old-spec runs; its snapshot state rides inside the injector's
      // FALT section (presence derives from the same schedule on both sides
      // of a save/restore).
      fault::RecoveryOptions options;
      options.graceHorizon = config.faults.graceHorizon;
      recovery_.emplace(ctx_, *system_, transfers_, options);
      injector_->setRejoinHandler([this](UserId user) {
        driver_.rejoinUser(user);
        recovery_->onRejoin(user);
      });
      injector_->setRecovery(&*recovery_);
    }
    if (config.faults.auditInterval > 0) {
      fault::CheckerOptions options;
      options.auditInterval = config.faults.auditInterval;
      options.graceHorizon = config.faults.graceHorizon;
      // Confirmed violations are exceptional: besides the counter and the
      // kViolation trace event, name the broken rule on stderr so a CLI
      // run surfaces *what* broke, not just how often.
      options.onViolation = [this](const vod::AuditViolation& v) {
        std::fprintf(stderr,
                     "invariant violation t=%lld rule=%s actor=%u subject=%u\n",
                     static_cast<long long>(simulator_.now()), v.rule.c_str(),
                     v.actor, v.subject);
      };
      checker_.emplace(ctx_, *system_, transfers_, std::move(options));
    }
  }

  registry.addGauge("server_bytes", [this] {
    return network_.flows().bytesUploaded(ctx_.serverEndpoint());
  });
  registry.addGauge("sessions_completed",
                    [this] { return driver_.sessionsCompleted(); });
  registry.addGauge("releases_fired",
                    [this] { return releases_.releasesFired(); });
  registry.addGauge("feed_notifications",
                    [this] { return releases_.feedNotifications(); });
  registry.addGauge("feed_watches",
                    [this] { return selector_.feedWatches(); });

  // Overload-control observability, registered only when a knob is active
  // so overload-off runs keep the seed counter set (and CSV columns).
  if (config.vod.overload.any()) {
    shed_ = &registry.counter("server.shed");
    network_.flows().addObserver(this);
    registry.addGauge("prefetch.throttled",
                      [this] { return metrics_.prefetchThrottled(); });
    registry.addGauge("breaker.opened",
                      [this] { return ctx_.breakers().opened(); });
    registry.addGauge("breaker.closed",
                      [this] { return ctx_.breakers().closed(); });
    registry.addGauge("breaker.half_open",
                      [this] { return ctx_.breakers().halfOpened(); });
    registry.addGauge("breaker.open",
                      [this] { return ctx_.breakers().openNow(); });
    registry.addGauge("slo.stall_count",
                      [this] { return metrics_.stallCount(); });
    registry.addGauge("slo.stall_ms", [this] {
      return static_cast<std::uint64_t>(metrics_.stallSeconds() * 1000.0);
    });
    // Fixed-point parts-per-million so the integer registry can carry the
    // ratio the slo knob targets.
    registry.addGauge("slo.rebuffer_ratio_ppm", [this] {
      return static_cast<std::uint64_t>(metrics_.rebufferRatio() * 1e6);
    });
    registry.addGauge("slo.startup_p99_ms", [this] {
      return static_cast<std::uint64_t>(
          metrics_.startupDelayMs().percentile(99));
    });
    registry.addGauge("slo.rebuffer_within_target", [this] {
      return metrics_.rebufferRatio() <= config_.vod.overload.rebufferSloRatio
                 ? 1
                 : 0;
    });
  }

  // Snapshot size telemetry, registered only when checkpointing is active.
  // A differential pair stays counter-comparable because the restoring arm
  // reports the size of the file image it read — the very file (and byte
  // count) the saving arm wrote.
  if (!config.snapshot.out.empty() || !config.snapshot.in.empty()) {
    registry.addGauge("snapshot.bytes", [this] { return snapshotBytes_; });
  }

  simulator_.registerFactory(sim::Component::kRunner, this);
}

Run::~Run() {
  if (shed_ != nullptr) network_.flows().removeObserver(this);
}

void Run::start() {
  if (injector_) injector_->arm();
  if (checker_) checker_->arm();
  if (config_.releases.perChannel > 0) {
    // Dynamic uploads: hold some videos back and publish them during the
    // run, feeding the channels' subscribers.
    const auto windowStart = static_cast<sim::SimTime>(
        config_.releases.windowStartFraction *
        static_cast<double>(config_.duration));
    const auto windowEnd = static_cast<sim::SimTime>(
        config_.releases.windowEndFraction *
        static_cast<double>(config_.duration));
    releases_.schedule(vod::ReleaseManager::uniformPlan(
        catalog_, config_.releases.perChannel, windowStart, windowEnd,
        config_.seed));
  }
  driver_.start();
  simulator_.schedulePeriodicTagged(
      30 * sim::kMinute, sim::makeTag(sim::Component::kRunner, kSampleEvent));
  armSave();
}

bool Run::restore(const std::string& path, std::string* error) {
  snapshot::RestoreInfo info;
  if (!snapshot::restore(path, participants(), compat(), error, &info,
                         &snapshotBytes_)) {
    return false;
  }
  // A save dated before the restored clock would fire in the past and pull
  // the clock back with it.
  if (!config_.snapshot.out.empty() && !saveRestored_ &&
      saveAt_ < simulator_.now()) {
    char message[128];
    std::snprintf(message, sizeof message,
                  "--snapshot-at %.6g s precedes the file's clock, %.6g s",
                  sim::toSeconds(saveAt_), sim::toSeconds(simulator_.now()));
    *error = message;
    return false;
  }
  if (injector_ && !info.injectorLoaded) injector_->arm();
  if (checker_ && !info.checkerLoaded) checker_->arm();
  armSave();
  return true;
}

bool Run::runToHorizon(std::string* error) {
  if (saveAt_ < config_.duration) simulator_.runUntil(saveAt_);
  if (saveError_.empty()) simulator_.runUntil(config_.duration);
  if (saveError_.empty()) return true;
  *error = saveError_;
  return false;
}

ExperimentResult Run::extract() const {
  ExperimentResult result;
  result.system = std::string(system_->name());
  result.mode = config_.mode;
  result.seed = config_.seed;
  result.crossBelowFloor = simulator_.crossBelowFloor();
  result.normalizedPeerBandwidth = metrics_.normalizedPeerBandwidth();
  result.startupDelayMs = metrics_.startupDelayMs();
  result.linksByVideosWatched = metrics_.linksByVideosWatched();
  result.redundantLinks = metrics_.redundantLinks();
  result.serverRegistrations = serverSample_;
  std::vector<double> uploads;
  uploads.reserve(catalog_.userCount());
  for (std::size_t i = 0; i < catalog_.userCount(); ++i) {
    uploads.push_back(static_cast<double>(network_.flows().bytesUploaded(
        EndpointId{static_cast<std::uint32_t>(i)})));
  }
  result.uploadGini = giniCoefficient(uploads);
  snapshot::Writer w;
  system_->saveState(w);
  result.overlayFingerprint = snapshot::crc32(w.body().data(), w.body().size());
  // Every counter and gauge registered above lands here by name.
  result.counters = metrics_.registry().snapshot();
  return result;
}

snapshot::Participants Run::participants() {
  return {.sim = &simulator_, .network = &network_, .ctx = &ctx_,
          .metrics = &metrics_, .transfers = &transfers_,
          .system = system_.get(), .driver = &driver_,
          .selector = &selector_, .releases = &releases_,
          .injector = injector_ ? &*injector_ : nullptr,
          .checker = checker_ ? &*checker_ : nullptr, .trace = trace_,
          .serverSample = &serverSample_};
}

sim::Callback Run::rebuild(const sim::EventTag& tag) {
  if (tag.kind == kSaveEvent) return [this] { save(); };
  // The §IV-A server-state comparison: the origin server's membership-state
  // size, sampled every 30 simulated minutes.
  return [this] {
    serverSample_.add(
        static_cast<double>(system_->statsSnapshot().serverRegistrations));
  };
}

bool Run::onRestored(const sim::EventTag& tag, sim::EventHandle) {
  if (tag.kind == kSampleEvent) return true;
  if (tag.kind != kSaveEvent || config_.snapshot.out.empty() ||
      tag.a != static_cast<std::uint64_t>(saveAt_) || saveRestored_) {
    return false;
  }
  saveRestored_ = true;
  return true;
}

void Run::onFlowShed(EndpointId src, [[maybe_unused]] EndpointId dst,
                     [[maybe_unused]] net::FlowClass flowClass) {
  if (src == ctx_.serverEndpoint()) shed_->inc();
  ST_TRACE(trace_, simulator_.now(), kShed, dst.value(), src.value(),
           static_cast<std::uint64_t>(flowClass));
}

void Run::armSave() {
  if (config_.snapshot.out.empty() || saveRestored_) return;
  simulator_.scheduleAtTagged(
      saveAt_, sim::makeTag(sim::Component::kRunner, kSaveEvent,
                            static_cast<std::uint64_t>(saveAt_)));
}

void Run::save() {
  std::string error;
  if (!snapshot::save(config_.snapshot.out, participants(), compat(), &error,
                      &snapshotBytes_)) {
    saveError_ = "--snapshot-out " + config_.snapshot.out + ": " + error;
    return;
  }
  std::fprintf(stderr, "snapshot %s: %llu bytes\n",
               config_.snapshot.out.c_str(),
               static_cast<unsigned long long>(snapshotBytes_));
}

}  // namespace st::exp
