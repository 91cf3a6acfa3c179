#include "traced_run.h"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
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
#include "snapshot/codec.h"
#include "util/stats.h"
#include "vod/context.h"
#include "vod/library.h"
#include "vod/metrics.h"
#include "vod/releases.h"
#include "vod/selector.h"
#include "vod/session.h"
#include "vod/system.h"
#include "vod/transfer.h"

namespace st::e2e {

namespace {

[[noreturn]] void unsupported(const char* what) {
  std::fprintf(stderr, "traced pass: %s is not mirrored\n", what);
  std::abort();
}

// The runner's 30-minute kRunner server-state sampler. Without it the
// traced pass fires fewer events than runExperiment and its counters differ.
class ServerSampler final : public sim::EventFactory {
 public:
  ServerSampler(sim::Simulator& sim, vod::VodSystem& system)
      : sim_(sim), system_(system) {
    sim_.registerFactory(sim::Component::kRunner, this);
  }
  ~ServerSampler() override {
    if (sim_.factory(sim::Component::kRunner) == this) {
      sim_.registerFactory(sim::Component::kRunner, nullptr);
    }
  }

  [[nodiscard]] sim::Callback rebuild(const sim::EventTag&) override {
    return [this] {
      stats_.add(
          static_cast<double>(system_.statsSnapshot().serverRegistrations));
    };
  }
  void arm() {
    sim_.schedulePeriodicTagged(30 * sim::kMinute,
                                sim::makeTag(sim::Component::kRunner, 0));
  }

 private:
  sim::Simulator& sim_;
  vod::VodSystem& system_;
  RunningStats stats_;
};

// The runner's admission-shed counter at the origin server.
class ShedCounter final : public net::FlowObserver {
 public:
  ShedCounter(net::FlowNetwork& flows, obs::Counter& shed, EndpointId server)
      : flows_(flows), shed_(shed), server_(server) {
    flows_.addObserver(this);
  }
  ~ShedCounter() override { flows_.removeObserver(this); }
  ShedCounter(const ShedCounter&) = delete;
  ShedCounter& operator=(const ShedCounter&) = delete;

  void onFlowShed(EndpointId src, EndpointId, net::FlowClass) override {
    if (src == server_) shed_.inc();
  }

 private:
  net::FlowNetwork& flows_;
  obs::Counter& shed_;
  EndpointId server_;
};

std::unique_ptr<vod::VodSystem> makeSystem(exp::SystemKind kind,
                                           vod::SystemContext& ctx,
                                           vod::TransferManager& transfers) {
  switch (kind) {
    case exp::SystemKind::kSocialTube:
      return std::make_unique<core::SocialTubeSystem>(ctx, transfers);
    case exp::SystemKind::kNetTube:
      return std::make_unique<baselines::NetTubeSystem>(ctx, transfers);
    case exp::SystemKind::kPaVod:
      return std::make_unique<baselines::PaVodSystem>(ctx, transfers);
  }
  return nullptr;
}

std::uint32_t fingerprint(exp::SystemKind kind, const vod::VodSystem& system) {
  snapshot::Writer w;
  switch (kind) {
    case exp::SystemKind::kSocialTube:
      static_cast<const core::SocialTubeSystem&>(system).saveState(w);
      break;
    case exp::SystemKind::kNetTube:
      static_cast<const baselines::NetTubeSystem&>(system).saveState(w);
      break;
    case exp::SystemKind::kPaVod:
      static_cast<const baselines::PaVodSystem&>(system).saveState(w);
      break;
  }
  return snapshot::crc32(w.body().data(), w.body().size());
}

}  // namespace

TracedResult runTraced(const exp::ExperimentConfig& config,
                       exp::SystemKind kind, const trace::Catalog& catalog,
                       std::FILE* report) {
  if (config.mode != exp::Mode::kSimulation) unsupported("PlanetLab mode");
  if (config.releases.perChannel > 0) unsupported("dynamic uploads");
  if (!config.snapshot.in.empty() || !config.snapshot.out.empty()) {
    unsupported("checkpointing");
  }

  // Construction, in runExperiment's order.
  sim::Simulator simulator;
  auto latency = std::make_unique<net::CleanLatencyModel>(
      config.seed, 10 * sim::kMillisecond, 80 * sim::kMillisecond);
  if (config.shards.any()) {
    sim::ShardPlan plan;
    plan.keyCount = static_cast<std::uint32_t>(catalog.categoryCount()) + 1;
    plan.shardCount = config.shards.count;
    plan.lookahead = latency->minDelay();
    std::string error;
    if (!simulator.configureShards(plan, &error)) {
      std::fprintf(stderr, "shards %u: %s\n", config.shards.count,
                   error.c_str());
      std::abort();
    }
    simulator.setWorkers(1);
  }
  net::Network network(simulator, std::move(latency), config.seed);
  vod::VideoLibrary library(catalog, config.vod);
  vod::Metrics metrics(catalog.userCount(), config.vod.videosPerSession);
  obs::Registry& registry = metrics.registry();
  simulator.registerInto(registry);
  network.registerInto(registry);

  vod::SystemContext ctx(simulator, network, catalog, library, config.vod,
                         metrics, config.seed);
  vod::TransferManager transfers(ctx);
  const std::unique_ptr<vod::VodSystem> system =
      makeSystem(kind, ctx, transfers);
  vod::VideoSelector selector(catalog, config.vod, config.seed);
  selector.attachContext(ctx);
  vod::SessionDriver driver(ctx, *system, transfers, selector, config.seed);

  std::optional<fault::Injector> injector;
  std::optional<fault::InvariantChecker> checker;
  std::optional<fault::RecoveryManager> recovery;
  if (config.faults.any()) {
    fault::Schedule schedule;
    std::string error;
    if (!fault::Schedule::parse(config.faults.spec, &schedule, &error)) {
      std::fprintf(stderr, "invalid faults spec: %s\n", error.c_str());
      std::abort();
    }
    const bool hasRejoin = schedule.has(fault::FaultKind::kRejoin);
    injector.emplace(ctx, std::move(schedule), config.seed);
    injector->setCrashHandler(
        [&driver](UserId user) { driver.crashUser(user); });
    if (hasRejoin) {
      fault::RecoveryOptions options;
      options.graceHorizon = config.faults.graceHorizon;
      recovery.emplace(ctx, *system, transfers, options);
      injector->setRejoinHandler([&driver, &recovery](UserId user) {
        driver.rejoinUser(user);
        recovery->onRejoin(user);
      });
      injector->setRecovery(&*recovery);
    }
    if (config.faults.auditInterval > 0) {
      fault::CheckerOptions options;
      options.auditInterval = config.faults.auditInterval;
      options.graceHorizon = config.faults.graceHorizon;
      checker.emplace(ctx, *system, transfers, std::move(options));
    }
  }

  vod::ReleaseManager releases(ctx, selector,
                               config.releases.feedWatchProbability,
                               config.seed);

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

  std::optional<ShedCounter> shedCounter;
  if (config.vod.overload.any()) {
    shedCounter.emplace(network.flows(), registry.counter("server.shed"),
                        ctx.serverEndpoint());
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

  ServerSampler sampler(simulator, *system);

  // Every factory is registered now and nothing is queued yet: wrap them,
  // then schedule the start events in runExperiment's order.
  TracedResult result;
  {
    LayerTracer tracer(simulator);
    if (injector) injector->arm();
    if (checker) checker->arm();
    driver.start();
    sampler.arm();

    const auto start = std::chrono::steady_clock::now();
    simulator.runUntil(config.duration);
    result.loopSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    result.handlerSeconds = tracer.handlerSeconds();
    for (std::size_t c = 0; c < sim::kComponentCount; ++c) {
      result.components[c] = tracer.component(static_cast<sim::Component>(c));
    }
    std::fprintf(report, "traced pass, %s:\n", exp::systemName(kind));
    tracer.print(report);
  }
  result.rateRecomputations = network.flows().rateRecomputations();
  result.overlayFingerprint = fingerprint(kind, *system);
  result.counters = registry.snapshot();
  return result;
}

}  // namespace st::e2e
