#include "vod/transfer.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "vod/system.h"

namespace st::vod {

namespace {
ChunkSource sourceOf(UserId provider) {
  return provider.valid() ? ChunkSource::kPeer : ChunkSource::kServer;
}
// Chunk trace events carry the source in `subject`: 1 = peer, 0 = server.
std::uint32_t traceSource(ChunkSource source) {
  return source == ChunkSource::kPeer ? 1 : 0;
}
}  // namespace

EndpointId TransferManager::sourceEndpoint(UserId provider) const {
  return provider.valid() ? ctx_.endpointOf(provider) : ctx_.serverEndpoint();
}

sim::SimTime TransferManager::admissionDeadline() const {
  return sim::fromSeconds(ctx_.config().overload.admissionDeadlineSeconds);
}

sim::Callback TransferManager::rebuild(const sim::EventTag& tag) {
  switch (tag.kind) {
    case kTimeoutEvent:
      return [this, id = tag.a] { phaseTimeout(id); };
    case kFirstChunkEvent:
      return [this, id = tag.a] { firstChunkComplete(id); };
    case kSegmentEvent:
      return [this, id = tag.a, index = static_cast<std::size_t>(tag.b)] {
        segmentComplete(id, index);
      };
    case kPrefetchEvent:
      return [this, flow = FlowId{static_cast<std::uint32_t>(tag.a)}] {
        prefetchComplete(flow);
      };
    case kHedgeEvent:
      return [this, id = tag.a] { hedgeFire(id); };
    default:
      assert(false && "unknown transfer event kind");
      return [] {};
  }
}

bool TransferManager::onRestored(const sim::EventTag& tag,
                                 sim::EventHandle handle) {
  // Only timeouts and hedge deadlines live in the simulator queue;
  // completion tags ride inside flow records and are invoked, never
  // scheduled.
  if (tag.kind != kTimeoutEvent && tag.kind != kHedgeEvent) return false;
  Watch* watch = watches_.find(tag.a);
  if (watch == nullptr) return false;
  if (tag.kind == kHedgeEvent) {
    watch->hedge = handle;
  } else {
    watch->timeout = handle;
  }
  return true;
}

void TransferManager::reportPlaybackReady(UserId user, VideoId video,
                                          sim::SimTime delay, bool timedOut) {
  if (client_ != nullptr) {
    client_->watchPlaybackReady(user, video, delay, timedOut);
  }
}

void TransferManager::startWatch(WatchRequest request) {
  assert(!request.provider.valid() || ctx_.isOnline(request.provider));

  // Duplicate-delivery suppression: under `dup:` fault windows the tag that
  // carried this request can be delivered twice. A live watch of the same
  // user matching on (video, requestTime) identifies the network-level copy
  // — a genuine re-watch always carries a later request time.
  for (const WatchId existing : userWatches_[request.user.index()]) {
    const Watch* live = watches_.find(existing);
    if (live != nullptr && live->video == request.video &&
        live->requestTime == request.requestTime) {
      ++watchDupsSuppressed_;
      return;
    }
  }

  Watch watch;
  watch.user = request.user;
  watch.video = request.video;
  watch.provider = request.provider;
  watch.extraProviders = std::move(request.extraProviders);
  watch.requestTime = request.requestTime;
  watch.playbackPending = request.reportPlayback;

  const VideoAsset& asset = ctx_.library().asset(request.video);
  const WatchId id = watches_.insert(std::move(watch));
  userWatches_[request.user.index()].push_back(id);
  Watch& w = *watches_.find(id);

  if (request.firstChunkCached) {
    // Prefetch hit: playback starts now; only the body is fetched.
    if (w.playbackPending) {
      w.playbackPending = false;
      reportPlaybackReady(w.user, w.video, ctx_.sim().now() - w.requestTime,
                          false);
    }
    if (ctx_.library().bodyBytes(request.video) == 0) {
      finishWatch(id, true);
      return;
    }
    beginBody(id);
    return;
  }

  w.phaseBytes = asset.chunkBytes;
  w.timeout = ctx_.sim().scheduleTagged(
      ctx_.config().firstChunkTimeout,
      sim::makeTag(sim::Component::kTransfer, kTimeoutEvent, id));
  beginFirstChunk(id, w.provider, asset.chunkBytes);
}

void TransferManager::requestFromServer(sim::Component component,
                                        std::uint8_t kind,
                                        WatchRequest request) {
  assert(!request.provider.valid());
  assert(request.reportPlayback == !request.firstChunkCached);
  // The variable-length striping list rides in the payload pool.
  SystemContext::Payload payload;
  payload.u = fromUsers(request.extraProviders);
  const std::uint64_t payloadId = ctx_.stashPayload(std::move(payload));
  ctx_.sendToServer(
      request.user,
      sim::makeTag(component, kind, request.user.value(),
                   sim::pack(request.video.value(),
                             request.firstChunkCached ? 1 : 0),
                   payloadId, static_cast<std::uint64_t>(request.requestTime)));
}

void TransferManager::startServerWatch(const sim::EventTag& tag) {
  WatchRequest request;
  request.user = UserId{sim::lo32(tag.a)};
  const std::optional<SystemContext::Payload> payload =
      ctx_.receivePayload(tag.c, request.user);
  if (!payload) return;
  request.video = VideoId{sim::lo32(tag.b)};
  request.provider = UserId::invalid();
  request.firstChunkCached = sim::hi32(tag.b) != 0;
  request.extraProviders = toUsers(payload->u);
  request.requestTime = static_cast<sim::SimTime>(tag.d);
  request.reportPlayback = !request.firstChunkCached;
  startWatch(std::move(request));
}

void TransferManager::discardServerWatch(const sim::EventTag& tag) {
  ctx_.freePayloadIfLive(tag.c);
}

bool TransferManager::validServerWatch(const sim::EventTag& tag) const {
  return ctx_.validUser(sim::lo32(tag.a)) &&
         ctx_.validVideo(sim::lo32(tag.b)) &&
         ctx_.validPayload(tag.c, ctx_.catalog().userCount(), 0);
}

void TransferManager::beginFirstChunk(WatchId id, UserId provider,
                                      std::uint64_t bytesRemaining) {
  Watch& watch = *watches_.find(id);
  watch.phase = Phase::kFirstChunk;
  watch.provider = provider;
  // Failover re-entry: a hedge armed for the previous source is stale.
  ctx_.sim().cancel(watch.hedge);
  watch.hedge = sim::EventHandle{};
  net::FlowNetwork::FlowOptions options;
  options.flowClass = provider.valid() ? net::FlowClass::kPlayback
                                       : net::FlowClass::kServerFallback;
  options.deadline = admissionDeadline();
  options.completionTag =
      sim::makeTag(sim::Component::kTransfer, kFirstChunkEvent, id);
  watch.flow = ctx_.network().flows().startFlow(
      sourceEndpoint(provider), ctx_.endpointOf(watch.user),
      std::max<std::uint64_t>(bytesRemaining, 1), options);
  if (!watch.flow.valid()) {
    // Admission control shed the request: the watch ends exactly as if its
    // first chunk had timed out — a fast, explicit rejection instead of
    // letting the viewer wait out a deadline the backlog can't meet.
    phaseTimeout(id);
    return;
  }
  // Hedged requests (overload `hedge=`): a peer-sourced first chunk gets a
  // sim-time response deadline; if it has not landed by then, hedgeFire
  // abandons the laggard and re-requests elsewhere. Server fallback flows
  // are never hedged — there is nowhere faster to go.
  const double hedgeSeconds = ctx_.config().overload.hedgeDelaySeconds;
  if (provider.valid() && hedgeSeconds > 0.0) {
    watch.hedge = ctx_.sim().scheduleTagged(
        sim::fromSeconds(hedgeSeconds),
        sim::makeTag(sim::Component::kTransfer, kHedgeEvent, id));
  }
}

void TransferManager::beginBody(WatchId id) {
  Watch& watch = *watches_.find(id);
  const VideoAsset& asset = ctx_.library().asset(watch.video);
  const std::uint64_t bodyChunks = asset.chunks - 1;
  assert(bodyChunks > 0);

  watch.phase = Phase::kBody;
  watch.bodyStart = ctx_.sim().now();
  watch.timeout = ctx_.sim().scheduleTagged(
      ctx_.config().bodyDownloadTimeout,
      sim::makeTag(sim::Component::kTransfer, kTimeoutEvent, id));

  // Provider set for striping: the primary source plus any live extras,
  // bounded by the configured stripe width and by the chunk count.
  std::vector<UserId> providers = {watch.provider};
  for (const UserId extra : watch.extraProviders) {
    if (providers.size() >= ctx_.config().bodySources) break;
    if (extra == watch.provider) continue;
    if (extra.valid() && !ctx_.isOnline(extra)) continue;
    if (std::find(providers.begin(), providers.end(), extra) !=
        providers.end()) {
      continue;
    }
    providers.push_back(extra);
  }
  const std::size_t stripes = std::min<std::size_t>(
      providers.size(), static_cast<std::size_t>(bodyChunks));

  // Chunk-aligned quotas: floor split, remainder to the first segments.
  watch.segments.clear();
  watch.segments.resize(stripes);
  const std::uint64_t base = bodyChunks / stripes;
  const std::uint64_t extra = bodyChunks % stripes;
  for (std::size_t i = 0; i < stripes; ++i) {
    Segment& segment = watch.segments[i];
    segment.chunks = base + (i < extra ? 1 : 0);
    segment.bytes = segment.chunks * asset.chunkBytes;
  }
  // One batch for the whole stripe wave: with N stripes the shared
  // destination endpoint settles once, not N times.
  net::FlowNetwork::MutationBatch batch(ctx_.network().flows());
  for (std::size_t i = 0; i < stripes; ++i) {
    if (!startSegmentFlow(id, i, providers[i])) {
      // Shed at the source: abandon the watch (phaseTimeout cancels any
      // stripes already started). The watch record is gone after this, so
      // no references may be held across the call.
      phaseTimeout(id);
      return;
    }
  }
}

bool TransferManager::startSegmentFlow(WatchId id, std::size_t segmentIndex,
                                       UserId provider) {
  Watch& watch = *watches_.find(id);
  Segment& segment = watch.segments[segmentIndex];
  segment.provider = provider;
  const std::uint64_t remaining =
      segment.bytes > segment.bytesDone ? segment.bytes - segment.bytesDone
                                        : 1;
  net::FlowNetwork::FlowOptions options;
  options.flowClass = provider.valid() ? net::FlowClass::kPlayback
                                       : net::FlowClass::kServerFallback;
  options.completionTag = sim::makeTag(sim::Component::kTransfer,
                                       kSegmentEvent, id, segmentIndex);
  segment.flow = ctx_.network().flows().startFlow(
      sourceEndpoint(provider), ctx_.endpointOf(watch.user), remaining,
      options);
  return segment.flow.valid();
}

void TransferManager::creditPartialFirstChunk(Watch& watch,
                                              std::uint64_t bytesDone) {
  const VideoAsset& asset = ctx_.library().asset(watch.video);
  const std::uint64_t done = watch.phaseBytesDone + bytesDone;
  const std::uint64_t chunksDone = done / asset.chunkBytes;
  if (chunksDone > watch.phaseCredited) {
    ctx_.metrics().recordChunks(watch.user, sourceOf(watch.provider),
                                chunksDone - watch.phaseCredited);
    ST_TRACE(ctx_.trace(), ctx_.sim().now(), kChunk, watch.user.value(),
             traceSource(sourceOf(watch.provider)),
             chunksDone - watch.phaseCredited);
    watch.phaseCredited = chunksDone;
  }
  watch.phaseBytesDone = done;
}

void TransferManager::creditPartialSegment(const Watch& watch,
                                           Segment& segment,
                                           std::uint64_t bytesDone) {
  const VideoAsset& asset = ctx_.library().asset(watch.video);
  const std::uint64_t done = segment.bytesDone + bytesDone;
  const std::uint64_t chunksDone = done / asset.chunkBytes;
  if (chunksDone > segment.credited) {
    ctx_.metrics().recordChunks(watch.user, sourceOf(segment.provider),
                                chunksDone - segment.credited);
    ST_TRACE(ctx_.trace(), ctx_.sim().now(), kChunk, watch.user.value(),
             traceSource(sourceOf(segment.provider)),
             chunksDone - segment.credited);
    segment.credited = chunksDone;
  }
  segment.bytesDone = done;
}

void TransferManager::cancelWatchFlows(Watch& watch) {
  if (watch.flow.valid()) {
    ctx_.network().flows().cancelFlow(watch.flow);
    watch.flow = FlowId::invalid();
  }
  for (Segment& segment : watch.segments) {
    if (segment.flow.valid()) {
      ctx_.network().flows().cancelFlow(segment.flow);
      segment.flow = FlowId::invalid();
    }
  }
}

void TransferManager::eraseWatch(WatchId id) {
  Watch* watch = watches_.find(id);
  assert(watch != nullptr);
  const UserId user = watch->user;
  ctx_.sim().cancel(watch->timeout);
  ctx_.sim().cancel(watch->hedge);
  watches_.erase(id);
  auto& list = userWatches_[user.index()];
  list.erase(std::find(list.begin(), list.end(), id));
}

void TransferManager::finishWatch(WatchId id, bool complete) {
  Watch& watch = *watches_.find(id);
  const UserId user = watch.user;
  const VideoId video = watch.video;
  eraseWatch(id);
  if (client_ != nullptr) client_->watchFinished(user, video, complete);
}

void TransferManager::firstChunkComplete(WatchId id) {
  Watch* found = watches_.find(id);
  assert(found != nullptr);
  Watch& watch = *found;
  watch.flow = FlowId::invalid();

  if (1 > watch.phaseCredited) {
    ctx_.metrics().recordChunks(watch.user, sourceOf(watch.provider),
                                1 - watch.phaseCredited);
    ST_TRACE(ctx_.trace(), ctx_.sim().now(), kChunk, watch.user.value(),
             traceSource(sourceOf(watch.provider)), 1 - watch.phaseCredited);
  }
  ctx_.sim().cancel(watch.timeout);
  watch.timeout = sim::EventHandle{};
  ctx_.sim().cancel(watch.hedge);
  watch.hedge = sim::EventHandle{};
  if (watch.provider.valid()) {
    ctx_.reportNeighborSuccess(watch.user, watch.provider);
  }

  if (watch.playbackPending) {
    watch.playbackPending = false;
    reportPlaybackReady(watch.user, watch.video,
                        ctx_.sim().now() - watch.requestTime, false);
  }
  if (ctx_.library().bodyBytes(watch.video) == 0) {
    finishWatch(id, true);
    return;
  }
  beginBody(id);
}

void TransferManager::segmentComplete(WatchId id, std::size_t segmentIndex) {
  Watch* found = watches_.find(id);
  assert(found != nullptr);
  Watch& watch = *found;
  Segment& segment = watch.segments[segmentIndex];
  segment.flow = FlowId::invalid();
  segment.done = true;
  if (segment.chunks > segment.credited) {
    ctx_.metrics().recordChunks(watch.user, sourceOf(segment.provider),
                                segment.chunks - segment.credited);
    ST_TRACE(ctx_.trace(), ctx_.sim().now(), kChunk, watch.user.value(),
             traceSource(sourceOf(segment.provider)),
             segment.chunks - segment.credited);
    segment.credited = segment.chunks;
  }
  if (segment.provider.valid()) {
    ctx_.reportNeighborSuccess(watch.user, segment.provider);
  }

  for (const Segment& other : watch.segments) {
    if (!other.done) return;  // stripes still in flight
  }

  // Whole body landed. Continuity check: a body that took longer than the
  // video's runtime would have stalled playback at least once.
  ctx_.sim().cancel(watch.timeout);
  watch.timeout = sim::EventHandle{};
  const VideoAsset& asset = ctx_.library().asset(watch.video);
  const double bodySeconds =
      sim::toSeconds(ctx_.sim().now() - watch.bodyStart);
  const bool onTime = bodySeconds <= asset.lengthSeconds + 1e-9;
  ctx_.metrics().countBodyCompletion(onTime);
  ctx_.metrics().recordPlayback(asset.lengthSeconds);
  if (!onTime) {
    ctx_.metrics().recordStall(bodySeconds - asset.lengthSeconds);
    ST_TRACE(ctx_.trace(), ctx_.sim().now(), kRebuffer, watch.user.value(),
             watch.video.value(), 0);
  }
  finishWatch(id, true);
}

void TransferManager::phaseTimeout(WatchId id) {
  Watch* found = watches_.find(id);
  if (found == nullptr) return;
  Watch& watch = *found;
  cancelWatchFlows(watch);
  if (watch.phase == Phase::kFirstChunk && watch.playbackPending) {
    watch.playbackPending = false;
    reportPlaybackReady(watch.user, watch.video,
                        ctx_.sim().now() - watch.requestTime, true);
  }
  finishWatch(id, false);
}

void TransferManager::hedgeFire(WatchId id) {
  Watch* found = watches_.find(id);
  if (found == nullptr) return;  // watch already finished (stale event)
  Watch& watch = *found;
  watch.hedge = sim::EventHandle{};
  if (watch.phase != Phase::kFirstChunk || !watch.flow.valid() ||
      !watch.provider.valid()) {
    return;  // the chunk landed, or an abort already failed over
  }
  // The peer is alive but too slow: cancel its flow (no partial credit —
  // the flow engine reports progress only on aborts it initiates), count
  // the laggard as a breaker failure so repeated slowness opens its
  // circuit, and re-request the remaining bytes from a surviving extra
  // provider or the origin server.
  const UserId slow = watch.provider;
  ctx_.network().flows().cancelFlow(watch.flow);
  watch.flow = FlowId::invalid();
  if (hedges_ != nullptr) hedges_->inc();
  ctx_.metrics().countTransferResourced();
  ctx_.reportNeighborFailure(watch.user, slow);
  const std::uint64_t remaining =
      watch.phaseBytes > watch.phaseBytesDone
          ? watch.phaseBytes - watch.phaseBytesDone
          : 1;
  // May shed and abandon the watch internally; watch is dead after this.
  beginFirstChunk(id, pickFailoverProvider(watch, slow), remaining);
}

void TransferManager::startPrefetch(UserId user, VideoId video,
                                    UserId provider) {
  assert(!provider.valid() || ctx_.isOnline(provider));
  // Backpressure: speculative fetches yield when the user's credit is spent
  // or their downlink is already busy with real downloads.
  const OverloadConfig& overload = ctx_.config().overload;
  if ((overload.prefetchCredit > 0 &&
       prefetchInFlight_[user.index()] >= overload.prefetchCredit) ||
      (overload.contentionThreshold > 0 &&
       ctx_.network().flows().activeDownloads(ctx_.endpointOf(user)) >=
           overload.contentionThreshold)) {
    ctx_.metrics().countPrefetchThrottled();
    return;
  }
  const VideoAsset& asset = ctx_.library().asset(video);
  ctx_.metrics().countPrefetchIssued();
  ST_TRACE(ctx_.trace(), ctx_.sim().now(), kPrefetchIssue, user.value(),
           video.value(), provider.valid() ? 1 : 0);
  Prefetch prefetch;
  prefetch.user = user;
  prefetch.video = video;
  prefetch.provider = provider;
  prefetch.fromPeer = provider.valid();
  net::FlowNetwork::FlowOptions options;
  options.flowClass = net::FlowClass::kPrefetch;
  const FlowId flow = ctx_.network().flows().startFlow(
      sourceEndpoint(provider), ctx_.endpointOf(user), asset.chunkBytes,
      options);
  if (!flow.valid()) return;  // shed at the source; silently dropped
  // The completion tag needs the flow id startFlow just assigned; flows
  // never complete synchronously, so attaching it afterwards is race-free.
  ctx_.network().flows().setCompletionTag(
      flow,
      sim::makeTag(sim::Component::kTransfer, kPrefetchEvent, flow.value()));
  ++prefetchInFlight_[user.index()];
  prefetches_.emplace(flow, prefetch);
}

void TransferManager::forgetPrefetch(const Prefetch& prefetch) {
  std::uint32_t& inFlight = prefetchInFlight_[prefetch.user.index()];
  assert(inFlight > 0);
  if (inFlight > 0) --inFlight;
}

void TransferManager::prefetchComplete(FlowId flow) {
  const auto it = prefetches_.find(flow);
  if (it == prefetches_.end()) return;
  const Prefetch prefetch = it->second;
  prefetches_.erase(it);
  forgetPrefetch(prefetch);
  if (prefetch.provider.valid()) {
    ctx_.reportNeighborSuccess(prefetch.user, prefetch.provider);
  }
  ctx_.metrics().recordChunks(
      prefetch.user,
      prefetch.fromPeer ? ChunkSource::kPeer : ChunkSource::kServer, 1);
  if (client_ != nullptr) {
    client_->prefetchArrived(prefetch.user, prefetch.video, prefetch.fromPeer);
  }
}

void TransferManager::onUserOffline(UserId user) {
  // A departure cancels and re-sources many flows at once; one batch settles
  // every surviving flow at the touched endpoints a single time when the
  // scope closes (the failover startFlows triggered by onFlowAborted land
  // inside dropEndpointFlows' own nested batch and join it too).
  net::FlowNetwork::MutationBatch batch(ctx_.network().flows());

  // 1. The user's own watches die silently (no callbacks — the user left).
  const std::vector<WatchId> own =
      userWatches_[user.index()];  // copy: eraseWatch mutates
  for (const WatchId id : own) {
    cancelWatchFlows(*watches_.find(id));
    eraseWatch(id);
  }

  // 2. The user's own prefetch downloads die silently.
  std::vector<FlowId> ownPrefetches;
  for (const auto& [flow, prefetch] : prefetches_) {
    if (prefetch.user == user) ownPrefetches.push_back(flow);
  }
  for (const FlowId flow : ownPrefetches) {
    ctx_.network().flows().cancelFlow(flow);
    const auto it = prefetches_.find(flow);
    forgetPrefetch(it->second);
    prefetches_.erase(it);
  }

  // 3. Remote downloads this user was serving fail over to the server;
  //    remote prefetches it was serving are dropped (onFlowAborted).
  ctx_.network().flows().dropEndpointFlows(ctx_.endpointOf(user));
}

void TransferManager::onFlowAborted(FlowId flow, std::uint64_t bytesDone,
                                    const sim::EventTag& completionTag) {
  if (completionTag.component ==
      static_cast<std::uint8_t>(sim::Component::kTransfer)) {
    failOverToServer(flow, bytesDone, completionTag);
  }
}

bool TransferManager::onRestoredCompletion(const sim::EventTag& tag) const {
  const Watch* watch = watches_.find(tag.a);
  switch (tag.kind) {
    case kFirstChunkEvent:
      return watch != nullptr;
    case kSegmentEvent:
      return watch != nullptr && tag.b < watch->segments.size();
    case kPrefetchEvent:
      return tag.a <= ~std::uint32_t{0} &&
             prefetches_.count(FlowId{static_cast<std::uint32_t>(tag.a)}) != 0;
    default:
      return false;
  }
}

UserId TransferManager::pickFailoverProvider(const Watch& watch,
                                             UserId failed) const {
  for (const UserId extra : watch.extraProviders) {
    if (!extra.valid() || extra == failed) continue;
    if (ctx_.isOnline(extra)) return extra;
  }
  return UserId::invalid();
}

void TransferManager::failOverToServer(FlowId flow, std::uint64_t bytesDone,
                                       const sim::EventTag& completionTag) {
  if (completionTag.kind == kPrefetchEvent) {
    const auto it = prefetches_.find(flow);
    if (it == prefetches_.end()) return;
    const Prefetch prefetch = it->second;
    prefetches_.erase(it);
    forgetPrefetch(prefetch);
    if (prefetch.provider.valid()) {
      ctx_.reportNeighborFailure(prefetch.user, prefetch.provider);
    }
    return;
  }
  const WatchId id = completionTag.a;
  Watch* found = watches_.find(id);
  if (found == nullptr) return;  // the watch ended in this abort batch
  Watch& watch = *found;

  // The source crashed mid-transfer: credit what it delivered, then restart
  // the remainder from a surviving extra provider if one is known, else
  // from the origin server.
  if (completionTag.kind == kFirstChunkEvent && watch.flow == flow) {
    const UserId failed = watch.provider;
    watch.flow = FlowId::invalid();
    creditPartialFirstChunk(watch, bytesDone);
    const std::uint64_t remaining =
        watch.phaseBytes > watch.phaseBytesDone
            ? watch.phaseBytes - watch.phaseBytesDone
            : 1;
    ctx_.metrics().countTransferResourced();
    if (failed.valid()) ctx_.reportNeighborFailure(watch.user, failed);
    // May shed and abandon the watch internally; watch is dead after this.
    beginFirstChunk(id, pickFailoverProvider(watch, failed), remaining);
    return;
  }

  // Body segment: restart the affected stripe.
  const std::size_t index = completionTag.b;
  if (completionTag.kind != kSegmentEvent || index >= watch.segments.size() ||
      watch.segments[index].flow != flow) {
    return;
  }
  Segment& segment = watch.segments[index];
  const UserId failed = segment.provider;
  segment.flow = FlowId::invalid();
  creditPartialSegment(watch, segment, bytesDone);
  ctx_.metrics().countTransferResourced();
  if (failed.valid()) ctx_.reportNeighborFailure(watch.user, failed);
  if (!startSegmentFlow(id, index, pickFailoverProvider(watch, failed))) {
    phaseTimeout(id);  // shed: abandon the watch
  }
}

// --- checkpoint/restore -------------------------------------------------------

void TransferManager::saveState(snapshot::Writer& w) const {
  w.section(0x52454658);  // "XFER"
  watches_.saveState(w, [](snapshot::Writer& w, const Watch& watch) {
    w.u32(watch.user.value());
    w.u32(watch.video.value());
    w.u32(watch.provider.value());
    w.u64(watch.extraProviders.size());
    for (const UserId extra : watch.extraProviders) w.u32(extra.value());
    w.u8(static_cast<std::uint8_t>(watch.phase));
    w.i64(watch.requestTime);
    w.i64(watch.bodyStart);
    w.u32(watch.flow.value());
    w.u64(watch.segments.size());
    for (const Segment& segment : watch.segments) {
      w.u32(segment.flow.value());
      w.u32(segment.provider.value());
      w.u64(segment.chunks);
      w.u64(segment.bytes);
      w.u64(segment.bytesDone);
      w.u64(segment.credited);
      w.boolean(segment.done);
    }
    w.u64(watch.phaseBytes);
    w.u64(watch.phaseBytesDone);
    w.u64(watch.phaseCredited);
    w.boolean(watch.playbackPending);
  });
  w.u64(userWatches_.size());
  for (const std::vector<WatchId>& list : userWatches_) {
    w.u64(list.size());
    for (const WatchId id : list) w.u64(id);
  }
  w.u64(prefetches_.size());
  for (const auto& [flow, prefetch] : prefetches_) {
    w.u32(flow.value());
    w.u32(prefetch.user.value());
    w.u32(prefetch.video.value());
    w.u32(prefetch.provider.value());
    w.boolean(prefetch.fromPeer);
  }
}

bool TransferManager::loadState(snapshot::Reader& r) {
  r.section(0x52454658, "transfer manager");
  // Every restored id is checked before anything indexes with it: users
  // and videos name catalog entries, and a provider is a user or the
  // origin server (the invalid id).
  const std::size_t userCount = ctx_.catalog().userCount();
  const std::size_t videoCount = ctx_.catalog().videoCount();
  const auto provider = [&r, userCount](const char* field) {
    return UserId{r.id(userCount, field, /*noneOk=*/true)};
  };
  const bool arena = watches_.loadState(r, [&](snapshot::Reader&,
                                               Watch& watch) {
    watch.user = UserId{r.id(userCount, "watch user")};
    watch.video = VideoId{r.id(videoCount, "watch video")};
    watch.provider = provider("watch provider");
    watch.extraProviders.resize(r.count(4));
    for (UserId& extra : watch.extraProviders) {
      extra = provider("watch extra provider");
    }
    const std::uint8_t phase = r.u8();
    watch.requestTime = r.i64();
    watch.bodyStart = r.i64();
    watch.flow = FlowId{r.u32()};
    watch.segments.resize(r.count(4 + 4 + 8 + 8 + 8 + 8 + 1));
    for (Segment& segment : watch.segments) {
      segment.flow = FlowId{r.u32()};
      segment.provider = provider("segment provider");
      segment.chunks = r.u64();
      segment.bytes = r.u64();
      segment.bytesDone = r.u64();
      segment.credited = r.u64();
      segment.done = r.boolean();
    }
    watch.phaseBytes = r.u64();
    watch.phaseBytesDone = r.u64();
    watch.phaseCredited = r.u64();
    watch.playbackPending = r.boolean();
    if (r.ok() && phase > static_cast<std::uint8_t>(Phase::kBody)) {
      r.fail("watch phase out of range");
    }
    watch.phase = static_cast<Phase>(phase);
    return r.ok();
  });
  if (!arena) return false;
  const std::size_t users = r.count(8);
  if (!r.ok() || users != userWatches_.size()) {
    r.fail("transfer user count mismatch");
    return false;
  }
  for (std::vector<WatchId>& list : userWatches_) {
    list.resize(r.count(8));
    for (WatchId& id : list) {
      id = r.u64();
      if (!r.ok()) return false;
      if (watches_.find(id) == nullptr) {
        r.fail("user watch list references a stale watch id");
        return false;
      }
    }
  }
  const std::size_t prefetchCount = r.count(4 + 4 + 4 + 4 + 1);
  prefetches_.clear();
  std::fill(prefetchInFlight_.begin(), prefetchInFlight_.end(), 0);
  for (std::size_t i = 0; i < prefetchCount; ++i) {
    const FlowId flow{r.u32()};
    Prefetch prefetch;
    prefetch.user = UserId{r.id(userCount, "prefetch user")};
    prefetch.video = VideoId{r.id(videoCount, "prefetch video")};
    prefetch.provider = provider("prefetch provider");
    prefetch.fromPeer = r.boolean();
    if (!r.ok()) return false;
    prefetches_.emplace(flow, prefetch);
    ++prefetchInFlight_[prefetch.user.index()];
  }
  return r.ok();
}

// --- invariant audit ----------------------------------------------------------

void TransferManager::auditInvariants(AuditReport& report) const {
  for (std::size_t u = 0; u < userWatches_.size(); ++u) {
    auditWatches(report, UserId{static_cast<std::uint32_t>(u)});
  }
  for (const auto& [flow, prefetch] : prefetches_) {
    if (!ctx_.isOnline(prefetch.user)) {
      report.violate("tm.offline_prefetch", prefetch.user,
                     prefetch.video.value());
    }
  }
}

void TransferManager::auditUser(AuditReport& report, UserId user) const {
  auditWatches(report, user);
  // The one rule another user's list raises about an online `user`: a watch
  // filed there but owned by `user` (tm.watch_owner). tm.offline_prefetch
  // names only an offline user.
  for (std::size_t u = 0; u < userWatches_.size(); ++u) {
    if (u == user.index()) continue;
    for (const WatchId id : userWatches_[u]) {
      const Watch* watch = watches_.find(id);
      if (watch != nullptr && watch->user == user) {
        auditWatches(report, UserId{static_cast<std::uint32_t>(u)});
        break;
      }
    }
  }
}

void TransferManager::auditWatches(AuditReport& report, UserId user) const {
  const bool online = ctx_.isOnline(user);
  const std::vector<WatchId>& ids = userWatches_[user.index()];
  for (const WatchId id : ids) {
    const Watch* watch = watches_.find(id);
    if (watch == nullptr) {
      report.violate("tm.dangling_watch_id", user, 0);
      continue;
    }
    if (watch->user != user) {
      report.violate("tm.watch_owner", user, watch->user);
    }
    if (!online) {
      // onUserOffline erases the departing user's watches synchronously.
      report.violate("tm.offline_watch", user, watch->video.value());
      continue;
    }
    // Every active flow must be fed by the server or a live peer
    // (dropEndpointFlows fails dead sources over synchronously).
    if (watch->flow.valid() && watch->provider.valid() &&
        !ctx_.isOnline(watch->provider)) {
      report.violate("tm.dead_provider", user, watch->provider);
    }
    for (const Segment& segment : watch->segments) {
      if (segment.flow.valid() && segment.provider.valid() &&
          !ctx_.isOnline(segment.provider)) {
        report.violate("tm.dead_provider", user, segment.provider);
      }
    }
  }
  // Idempotency rule: two live watches of one user with identical video
  // AND request time can only be a duplicated delivery that slipped past
  // the startWatch suppression guard (re-watches get later timestamps).
  for (std::size_t a = 0; a < ids.size(); ++a) {
    const Watch* first = watches_.find(ids[a]);
    if (first == nullptr) continue;
    for (std::size_t b = a + 1; b < ids.size(); ++b) {
      const Watch* second = watches_.find(ids[b]);
      if (second != nullptr && second->video == first->video &&
          second->requestTime == first->requestTime) {
        report.violate("tm.dup_watch", user, first->video.value());
      }
    }
  }
}

void TransferManager::injectWatchForTest(UserId user, VideoId video,
                                         UserId owner) {
  Watch watch;
  watch.user = owner.valid() ? owner : user;
  watch.video = video;
  const WatchId id = watches_.insert(std::move(watch));
  userWatches_[user.index()].push_back(id);
}

}  // namespace st::vod
