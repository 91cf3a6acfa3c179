// Video transfer lifecycle shared by all three systems.
//
// A watch is two fluid flows: the first chunk (whose completion starts
// playback and defines the startup delay) and the body (remaining chunks,
// downloaded in the background while the user watches). Prefetches are
// single first-chunk flows. If a peer provider churns away mid-transfer the
// remaining bytes are re-requested from the origin server; chunk credit is
// split between the sources by bytes actually delivered.
//
// A user has at most one *foreground* watch (the video being played), but a
// previous watch's body may still be trickling in when the next video
// starts; such watches keep downloading in the background and still insert
// into the cache on completion.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "util/slot_pool.h"
#include "vod/audit.h"
#include "vod/context.h"

namespace st::vod {

class VodSystem;

class TransferManager : public sim::EventFactory, public net::FlowObserver {
 public:
  explicit TransferManager(SystemContext& ctx)
      : ctx_(ctx),
        userWatches_(ctx.catalog().userCount()),
        prefetchInFlight_(ctx.catalog().userCount(), 0) {
    ctx_.sim().registerFactory(sim::Component::kTransfer, this);
    ctx_.network().flows().addObserver(this);
    // Gated registration: the hedge counter exists only when the knob is
    // on, so calm/baseline counter fingerprints never see it.
    if (ctx.config().overload.hedgeDelaySeconds > 0.0) {
      hedges_ = &ctx.metrics().registry().counter("tm.hedged");
    }
  }
  ~TransferManager() override {
    ctx_.network().flows().removeObserver(this);
    if (ctx_.sim().factory(sim::Component::kTransfer) == this) {
      ctx_.sim().registerFactory(sim::Component::kTransfer, nullptr);
    }
  }
  TransferManager(const TransferManager&) = delete;
  TransferManager& operator=(const TransferManager&) = delete;

  // The system notified of playback/finish/prefetch outcomes. Set by the
  // system's constructor (the system owns the response to every transfer
  // event); may be null in unit tests, then outcomes are dropped.
  void setClient(VodSystem* client) { client_ = client; }

  // Tag kinds for Component::kTransfer events (snapshot format; append
  // only). kTimeout lives in the simulator queue; the other kinds ride as
  // flow completion tags and are invoked when the last byte arrives.
  static constexpr std::uint8_t kTimeoutEvent = 0;     // a = watch id
  static constexpr std::uint8_t kFirstChunkEvent = 1;  // a = watch id
  static constexpr std::uint8_t kSegmentEvent = 2;     // a = watch id, b = idx
  static constexpr std::uint8_t kPrefetchEvent = 3;    // a = flow id
  static constexpr std::uint8_t kHedgeEvent = 4;       // a = watch id

  // EventFactory for Component::kTransfer.
  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override;
  [[nodiscard]] bool onRestored(const sim::EventTag& tag,
                                sim::EventHandle handle) override;

  // FlowObserver: a provider endpoint dropped out from under `flow` (node
  // departure); credit what it delivered and restart the remainder from a
  // surviving extra provider or the origin server. The flow's completion
  // tag names its owner (a prefetch, or a watch's first chunk or stripe);
  // aborts of flows with another component's tag, or whose owner has moved
  // on to a newer flow, are ignored.
  void onFlowAborted(FlowId flow, std::uint64_t bytesDone,
                     const sim::EventTag& completionTag) override;
  // Restore check for a flow's completion tag: a first-chunk or stripe tag
  // must name a live watch (and a stripe inside it), a prefetch tag a live
  // prefetch.
  [[nodiscard]] bool onRestoredCompletion(
      const sim::EventTag& tag) const override;

  struct WatchRequest {
    UserId user;
    VideoId video;
    // Peer provider; pass UserId::invalid() to download from the server.
    UserId provider;
    // True when the first chunk is already in the local cache (prefetch hit):
    // playback starts immediately, only the body is fetched.
    bool firstChunkCached = false;
    // Additional providers holding the video; with config.bodySources > 1
    // the body is striped across them (swarming extension). Ignored when
    // bodySources == 1.
    std::vector<UserId> extraProviders;
    // When the user selected the video; startup delay is measured from here.
    sim::SimTime requestTime = 0;
    // When true, the client's watchPlaybackReady fires exactly once: either
    // playback becomes ready (timedOut = false) or the first chunk timed
    // out (timedOut = true, watch abandoned). Prefetch-hit watches report
    // playback through other means and pass false.
    bool reportPlayback = true;
  };

  // Starts a watch. Any still-running watch of the same user is demoted to a
  // background download (it completes and caches normally). Outcomes are
  // reported through the client system's watchPlaybackReady/watchFinished.
  //
  // Idempotent under duplicated delivery: a request matching a live watch
  // of the same user on (video, requestTime) is a network-level copy of a
  // message already acted on (real re-watches always carry a later request
  // time) and is silently dropped; see watchDuplicatesSuppressed().
  void startWatch(WatchRequest request);

  // --- server watches --------------------------------------------------------
  // A watch with no peer provider is requested from the origin server: the
  // request travels to the server, which starts the flows on arrival. The
  // requesting system sends it under its own component and tag kind (so
  // per-layer attribution and pending-event bytes stay the system's) and
  // routes that kind's rebuild, discard and onRestored here. Tag layout:
  // a = user, b = video | firstChunkCached << 32, c = payload holding the
  // striping list, d = request time. reportPlayback must equal
  // !firstChunkCached, which is how the server side rebuilds it.
  void requestFromServer(sim::Component component, std::uint8_t kind,
                         WatchRequest request);
  // At the server (kServerRun): starts the watch unless the message is a
  // duplicated delivery or the user went offline.
  void startServerWatch(const sim::EventTag& tag);
  // The request was lost in the network: frees its payload.
  void discardServerWatch(const sim::EventTag& tag);
  // Restore check: the user and video words name catalog entries.
  [[nodiscard]] bool validServerWatch(const sim::EventTag& tag) const;

  // Prefetch the first chunk of `video` from `provider` (or the server when
  // invalid). The client's prefetchArrived(user, video, fromPeer) fires when
  // the chunk lands; silently dropped if either side churns first.
  void startPrefetch(UserId user, VideoId video, UserId provider);

  // The user left: abort their downloads and prefetches, and fail over any
  // remote downloads this user was serving to the origin server.
  void onUserOffline(UserId user);

  [[nodiscard]] std::size_t activeWatches() const { return watches_.size(); }
  [[nodiscard]] std::size_t activePrefetches() const {
    return prefetches_.size();
  }
  // Duplicated watch requests dropped by the startWatch idempotency guard.
  // Plain tally (not a registry counter, not serialized): it only moves
  // under `dup:` fault windows, and fingerprint tests demand identical
  // counter sets across shard counts.
  [[nodiscard]] std::uint64_t watchDuplicatesSuppressed() const {
    return watchDupsSuppressed_;
  }

  // Structural contract audit (see vod/audit.h): no watch or prefetch owned
  // by an offline user, and no active flow sourced from a dead peer — both
  // are maintained synchronously by onUserOffline, so every rule is instant.
  void auditInvariants(AuditReport& report) const;
  // The scoped audit (VodSystem::auditUser's contract): the online `user`'s
  // own watches, plus the watch lists holding a watch `user` owns, found
  // by one pass over every user's watch ids.
  void auditUser(AuditReport& report, UserId user) const;

  // Test-only corruption hook: registers a bare watch record for `user`
  // (no flows, no timeout) — the dangling-watch damage a lifecycle bug
  // would leave behind after a crash. The invariant checker must flag it
  // when the user is offline. A valid `owner` files a watch owned by that
  // user under `user`'s list instead (tm.watch_owner).
  void injectWatchForTest(UserId user, VideoId video,
                          UserId owner = UserId::invalid());

  // Checkpoint/restore: the watch arena (whole slot pool, so outstanding
  // WatchIds stay stable), per-user watch lists (creation order, which no
  // record holds) and the prefetch records; the per-user prefetch tallies
  // are recounted from the records. Watch timeout handles are re-stored by
  // onRestored() while the simulator queue loads.
  void saveState(snapshot::Writer& w) const;
  bool loadState(snapshot::Reader& r);

 private:
  enum class Phase { kFirstChunk, kBody };

  // One striped slice of a body download (the whole body when the stripe
  // width is 1).
  struct Segment {
    FlowId flow;
    UserId provider;               // current source (may fail over to server)
    std::uint64_t chunks = 0;      // chunk quota of this segment
    std::uint64_t bytes = 0;       // byte size (chunks x chunkBytes)
    std::uint64_t bytesDone = 0;   // delivered by earlier providers
    std::uint64_t credited = 0;    // chunks already credited
    bool done = false;
  };

  struct Watch {
    UserId user;
    VideoId video;
    UserId provider;  // first-chunk source / primary body source
    std::vector<UserId> extraProviders;
    Phase phase = Phase::kFirstChunk;
    sim::SimTime requestTime = 0;
    sim::SimTime bodyStart = 0;  // when the body phase began (continuity)
    FlowId flow;                 // first-chunk flow
    std::vector<Segment> segments;  // body stripes
    sim::EventHandle timeout;
    // Hedge deadline for a peer-sourced first chunk (overload `hedge=`);
    // empty when hedging is off or the source is the server. Like
    // `timeout`, the handle is not serialized — the event rides the
    // simulator queue and onRestored() re-links it.
    sim::EventHandle hedge;
    std::uint64_t phaseBytes = 0;      // first-chunk phase bytes
    std::uint64_t phaseBytesDone = 0;  // delivered by earlier providers
    std::uint64_t phaseCredited = 0;   // chunks already credited (first chunk)
    // True until watchPlaybackReady has been delivered (exactly once).
    bool playbackPending = false;
  };

  // Generation-stamped SlotPool id: watch records are pooled, not churned
  // through a hash map, and a stale id can never alias a recycled watch.
  using WatchId = SlotPool<Watch>::Id;

  [[nodiscard]] EndpointId sourceEndpoint(UserId provider) const;
  // Per-flow admission deadline from the overload config (0 = patient).
  [[nodiscard]] sim::SimTime admissionDeadline() const;
  void beginFirstChunk(WatchId id, UserId provider,
                       std::uint64_t bytesRemaining);
  // Splits the body into chunk-aligned segments across the watch's
  // providers and starts their flows.
  void beginBody(WatchId id);
  // False when the source's admission policy shed the flow; the watch is
  // untouched and the caller must abandon it (phaseTimeout) without holding
  // references across the call.
  [[nodiscard]] bool startSegmentFlow(WatchId id, std::size_t segmentIndex,
                                      UserId provider);
  void finishWatch(WatchId id, bool complete);
  void firstChunkComplete(WatchId id);
  void segmentComplete(WatchId id, std::size_t segmentIndex);
  void phaseTimeout(WatchId id);
  // Hedge deadline fired: if the first chunk is still in flight from a
  // peer, abandon that flow, report the laggard to its breaker, and
  // re-request the remainder from a failover provider or the server.
  void hedgeFire(WatchId id);
  void prefetchComplete(FlowId flow);
  // Credits chunks delivered so far in the first-chunk phase.
  void creditPartialFirstChunk(Watch& watch, std::uint64_t bytesDone);
  void creditPartialSegment(const Watch& watch, Segment& segment,
                            std::uint64_t bytesDone);
  // First extra provider of the watch that is still online (and not the
  // source that just failed); invalid id = no survivor, use the server.
  [[nodiscard]] UserId pickFailoverProvider(const Watch& watch,
                                            UserId failed) const;
  void failOverToServer(FlowId flow, std::uint64_t bytesDone,
                        const sim::EventTag& completionTag);
  void cancelWatchFlows(Watch& watch);
  void eraseWatch(WatchId id);
  // The watch rules for the watches filed under `user` (both audits).
  void auditWatches(AuditReport& report, UserId user) const;

  struct Prefetch {
    UserId user;
    VideoId video;
    UserId provider;  // invalid = the origin server
    bool fromPeer = false;
  };

  void forgetPrefetch(const Prefetch& prefetch);
  // Delivers an outcome to the client system (no-op without a client).
  void reportPlaybackReady(UserId user, VideoId video, sim::SimTime delay,
                           bool timedOut);

  SystemContext& ctx_;
  VodSystem* client_ = nullptr;
  SlotPool<Watch> watches_;
  // Indexed by user; a user has at most a handful of concurrent watches.
  std::vector<std::vector<WatchId>> userWatches_;
  // A watch's flows are found through their completion tags. Ordered by
  // flow id: iteration feeds the offline sweep and the snapshot, so both
  // are canonical.
  std::map<FlowId, Prefetch> prefetches_;
  // In-flight prefetches per user, for the credit-based backpressure knob.
  // Maintained unconditionally (pure bookkeeping); consulted only when the
  // overload config sets a credit, so baseline runs are untouched.
  std::vector<std::uint32_t> prefetchInFlight_;
  // See watchDuplicatesSuppressed(); stays 0 outside dup fault windows.
  std::uint64_t watchDupsSuppressed_ = 0;
  obs::Counter* hedges_ = nullptr;  // "tm.hedged"; null when hedging is off
};

}  // namespace st::vod
