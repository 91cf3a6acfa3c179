#include "net/flow_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace st::net {

namespace {
// A flow is considered delivered when less than one byte remains; guards
// against floating-point residue keeping flows alive forever.
constexpr double kEpsilonBytes = 0.5;
// Tolerance when comparing a fair-share rate against the playback floor.
constexpr double kRateEpsilon = 1e-9;

void eraseSlot(std::vector<std::uint64_t>& list, std::uint64_t slot) {
  const auto it = std::find(list.begin(), list.end(), slot);
  assert(it != list.end());
  list.erase(it);
}
}  // namespace

void FlowNetwork::addEndpoint(EndpointId id, EndpointCapacity capacity) {
  assert(id.valid());
  if (endpoints_.size() <= id.index()) endpoints_.resize(id.index() + 1);
  endpoints_[id.index()].capacity = capacity;
}

bool FlowNetwork::hasEndpoint(EndpointId id) const {
  return id.valid() && id.index() < endpoints_.size();
}

const EndpointCapacity& FlowNetwork::capacity(EndpointId id) const {
  assert(hasEndpoint(id));
  return endpoints_[id.index()].capacity;
}

void FlowNetwork::setUploadConcurrencyLimit(EndpointId endpoint,
                                            std::size_t limit) {
  assert(hasEndpoint(endpoint));
  assert(limit > 0);
  endpoints_[endpoint.index()].uploadLimit = limit;
}

std::size_t FlowNetwork::queuedUploads(EndpointId endpoint) const {
  assert(hasEndpoint(endpoint));
  return endpoints_[endpoint.index()].uploadQueue.size();
}

void FlowNetwork::setPlaybackFloor(double floorBps) {
  assert(floorBps >= 0.0);
  floorBps_ = floorBps;
}

void FlowNetwork::setAdmissionPolicy(EndpointId endpoint,
                                     AdmissionPolicy policy) {
  assert(hasEndpoint(endpoint));
  endpoints_[endpoint.index()].admission = policy;
  endpoints_[endpoint.index()].admissionEnabled = true;
}

void FlowNetwork::addObserver(FlowObserver* observer) {
  assert(observer != nullptr);
  assert(std::find(observers_.begin(), observers_.end(), observer) ==
         observers_.end());
  observers_.push_back(observer);
}

void FlowNetwork::removeObserver(FlowObserver* observer) {
  const auto it = std::find(observers_.begin(), observers_.end(), observer);
  if (it != observers_.end()) observers_.erase(it);
}

FlowNetwork::Slot FlowNetwork::slotOf(FlowId id) const {
  const auto it = index_.find(id.value());
  return it == index_.end() ? Slot{0} : it->second;  // 0 is never a live slot
}

double FlowNetwork::fairRate(const Flow& flow) const {
  const EndpointState& src = endpoints_[flow.src.index()];
  const EndpointState& dst = endpoints_[flow.dst.index()];
  assert(!src.uploads.empty() && !dst.downloads.empty());
  const double up =
      src.capacity.uploadBps / static_cast<double>(src.uploads.size());
  const double down =
      dst.capacity.downloadBps / static_cast<double>(dst.downloads.size());
  return std::min(up, down);
}

void FlowNetwork::settle(Flow& flow) {
  if (flow.queued || flow.paused) {
    flow.lastUpdate = sim_.now();
    return;  // queued/paused flows make no progress
  }
  const sim::SimTime now = sim_.now();
  if (now > flow.lastUpdate && flow.rateBps > 0.0) {
    const double elapsedSeconds = sim::toSeconds(now - flow.lastUpdate);
    flow.bytesRemaining =
        std::max(0.0, flow.bytesRemaining - flow.rateBps / 8.0 * elapsedSeconds);
  }
  flow.lastUpdate = now;
}

void FlowNetwork::reschedule(Flow& flow) {
  flow.rateBps = fairRate(flow);
  if (flow.rateBps <= 0.0) {
    // Zero-capacity endpoint: flow stalls until topology changes again. The
    // caller is expected to give every endpoint nonzero capacity, but a
    // stalled flow must not schedule a completion at time infinity.
    sim_.cancel(flow.completion);
    flow.completion = sim::EventHandle{};
    return;
  }
  const double seconds = flow.bytesRemaining * 8.0 / flow.rateBps;
  const auto delay =
      std::max<sim::SimTime>(sim::fromSeconds(seconds), 0);
  // Moves a queued completion in place: no closure rebuild, no dead entry.
  flow.completion = sim_.retimeTagged(
      flow.completion, delay,
      sim::makeTag(sim::Component::kFlow, kFinishEvent, flow.id.value()));
}

sim::Callback FlowNetwork::rebuild(const sim::EventTag& tag) {
  assert(tag.kind == kFinishEvent);
  const FlowId id{static_cast<std::uint32_t>(tag.a)};
  return [this, id] { finish(id); };
}

bool FlowNetwork::onRestored(const sim::EventTag& tag,
                             sim::EventHandle handle) {
  if (tag.kind != kFinishEvent) return false;
  Flow* flow = flows_.find(slotOf(FlowId{static_cast<std::uint32_t>(tag.a)}));
  if (flow == nullptr) return false;
  flow->completion = handle;
  return true;
}

void FlowNetwork::beginBatch() { ++batchDepth_; }

void FlowNetwork::applyBatch() {
  assert(batchDepth_ > 0);
  if (--batchDepth_ == 0 && !dirtyList_.empty()) drain();
}

void FlowNetwork::markDirty(EndpointId endpoint) {
  // Mutations only happen under a batch (every public mutator opens an
  // implicit one), so a mark can never be dropped on the floor.
  assert(batchDepth_ > 0);
  dirtyList_.push_back(endpoint);
}

void FlowNetwork::drain() {
  ++drainEpoch_;
  // Dedup endpoints keeping each one's LAST mark: walking backwards and
  // reversing yields endpoints ordered by last occurrence. The eager solver
  // refreshed an endpoint on every mutation touching it; only its final
  // refresh determined the surviving completion events, and that final
  // refresh used the endpoint's final membership — which is exactly what we
  // read here, in the same relative order.
  drainEndpoints_.clear();
  for (std::size_t i = dirtyList_.size(); i-- > 0;) {
    EndpointState& state = endpoints_[dirtyList_[i].index()];
    if (state.dirtyStamp == drainEpoch_) continue;
    state.dirtyStamp = drainEpoch_;
    drainEndpoints_.push_back(dirtyList_[i]);
  }
  std::reverse(drainEndpoints_.begin(), drainEndpoints_.end());
  dirtyList_.clear();
  // Same trick per flow: a flow at two dirty endpoints was refreshed last by
  // the later endpoint's pass, and within one endpoint's pass uploads come
  // before downloads.
  drainMembers_.clear();
  for (const EndpointId endpoint : drainEndpoints_) {
    const EndpointState& state = endpoints_[endpoint.index()];
    drainMembers_.insert(drainMembers_.end(), state.uploads.begin(),
                         state.uploads.end());
    drainMembers_.insert(drainMembers_.end(), state.downloads.begin(),
                         state.downloads.end());
  }
  drainOrder_.clear();
  for (std::size_t i = drainMembers_.size(); i-- > 0;) {
    Flow* flow = flows_.find(drainMembers_[i]);
    assert(flow != nullptr);
    if (flow->drainStamp == drainEpoch_) continue;
    flow->drainStamp = drainEpoch_;
    drainOrder_.push_back(drainMembers_[i]);
  }
  for (std::size_t i = drainOrder_.size(); i-- > 0;) {
    Flow& flow = *flows_.find(drainOrder_[i]);
    // The deferred settle is exact: rateBps was the flow's rate over the
    // whole [lastUpdate, now] span, because batches never span simulated
    // time — membership changed "now", so the old rate governed everything
    // up to now and the new rate has had zero seconds to act.
    settle(flow);
    reschedule(flow);
    ++rateRecomputations_;
  }
}

double FlowNetwork::estimatedBacklogSeconds(const EndpointState& state) const {
  if (state.capacity.uploadBps <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  const sim::SimTime now = sim_.now();
  double backlogBytes = 0.0;
  // Active uploads: read-only settle (progress since lastUpdate). Exact even
  // mid-batch: a not-yet-drained flow's rateBps is the rate that actually
  // governed [lastUpdate, now], so this computes the same remaining bytes
  // the eager solver would have settled to.
  for (const Slot slot : state.uploads) {
    const Flow& flow = *flows_.find(slot);
    double remaining = flow.bytesRemaining;
    if (now > flow.lastUpdate && flow.rateBps > 0.0) {
      remaining -= flow.rateBps / 8.0 * sim::toSeconds(now - flow.lastUpdate);
    }
    backlogBytes += std::max(0.0, remaining);
  }
  // Paused uploads hold their slot and will resume; queued uploads wait in
  // line untouched.
  for (const Slot slot : state.pausedUploads) {
    backlogBytes += flows_.find(slot)->bytesRemaining;
  }
  for (const Slot slot : state.uploadQueue) {
    backlogBytes += flows_.find(slot)->bytesRemaining;
  }
  return backlogBytes * 8.0 / state.capacity.uploadBps;
}

bool FlowNetwork::shouldShed(EndpointId src, FlowClass flowClass,
                             sim::SimTime deadline) const {
  const EndpointState& state = endpoints_[src.index()];
  if (!state.admissionEnabled) return false;
  // Prefetches are speculative: queueing one at a saturated source is pure
  // waste, so they are shed outright instead of waiting for a slot.
  if (flowClass == FlowClass::kPrefetch && state.admission.shedPrefetch) {
    return true;
  }
  if (state.admission.queueCap > 0 &&
      state.uploadQueue.size() >= state.admission.queueCap) {
    return true;
  }
  if (deadline > 0 &&
      estimatedBacklogSeconds(state) > sim::toSeconds(deadline)) {
    return true;
  }
  return false;
}

FlowId FlowNetwork::startFlow(EndpointId src, EndpointId dst,
                              std::uint64_t bytes, const FlowOptions& options) {
  assert(hasEndpoint(src) && hasEndpoint(dst));
  assert(bytes > 0);
  MutationBatch batch(*this);
  EndpointState& source = endpoints_[src.index()];
  // Paused uploads keep their slot reserved: resuming must never burst the
  // endpoint past its concurrency limit, and pausing must not leak slots to
  // the wait queue.
  const std::size_t usedSlots =
      source.uploads.size() + source.pausedUploads.size();
  if (usedSlots >= source.uploadLimit) {
    if (shouldShed(src, options.flowClass, options.deadline)) {
      ++source.flowsShed;
      for (FlowObserver* observer : observers_) {
        observer->onFlowShed(src, dst, options.flowClass);
      }
      return FlowId::invalid();
    }
    // No free upload slot: wait in line. The flow joins the share pools of
    // both endpoints only on activation.
    const FlowId id{nextFlowId_++};
    Flow flow;
    flow.id = id;
    flow.src = src;
    flow.dst = dst;
    flow.bytesRemaining = static_cast<double>(bytes);
    flow.totalBytes = bytes;
    flow.lastUpdate = sim_.now();
    flow.flowClass = options.flowClass;
    flow.queued = true;
    flow.completionTag = options.completionTag;
    const Slot slot = flows_.insert(std::move(flow));
    index_.emplace(id.value(), slot);
    source.uploadQueue.push_back(slot);
    endpoints_[dst.index()].queuedInbound.push_back(slot);
    return id;
  }

  const FlowId id{nextFlowId_++};
  Flow flow;
  flow.id = id;
  flow.src = src;
  flow.dst = dst;
  flow.bytesRemaining = static_cast<double>(bytes);
  flow.totalBytes = bytes;
  flow.lastUpdate = sim_.now();
  flow.flowClass = options.flowClass;
  flow.completionTag = options.completionTag;
  const Slot slot = flows_.insert(std::move(flow));
  index_.emplace(id.value(), slot);
  activate(slot, *flows_.find(slot));
  return id;
}

void FlowNetwork::setCompletionTag(FlowId id, const sim::EventTag& tag) {
  Flow* flow = flows_.find(slotOf(id));
  assert(flow != nullptr);
  flow->completionTag = tag;
}

void FlowNetwork::activate(Slot slot, Flow& flow) {
  if (flow.queued) {
    // Leaving the wait queue: the destination's inbound-queue mirror must
    // forget the flow too.
    eraseSlot(endpoints_[flow.dst.index()].queuedInbound, slot);
  }
  flow.queued = false;
  flow.paused = false;
  flow.lastUpdate = sim_.now();
  endpoints_[flow.src.index()].uploads.push_back(slot);
  endpoints_[flow.dst.index()].downloads.push_back(slot);
  // Membership at both endpoints changed; both sides settle at batch commit
  // (the new flow's own rate is derived in the same drain).
  markDirty(flow.src);
  if (flow.dst != flow.src) markDirty(flow.dst);
  enforceFloorFor(flow);
}

void FlowNetwork::promoteQueued(EndpointId endpoint) {
  EndpointState& state = endpoints_[endpoint.index()];
  while (!state.uploadQueue.empty() &&
         state.uploads.size() + state.pausedUploads.size() <
             state.uploadLimit) {
    const Slot next = state.uploadQueue.front();
    state.uploadQueue.pop_front();
    Flow* flow = flows_.find(next);
    assert(flow != nullptr && flow->queued);
    activate(next, *flow);
  }
}

void FlowNetwork::enforceFloorFor(Flow& flow) {
  if (floorBps_ <= 0.0) return;
  // fairRate() is evaluated live instead of reading flow.rateBps: under
  // deferred settling the cached rate is stale mid-batch, and the live
  // expression is bit-for-bit what the eager solver's refresh had just
  // stored when it evaluated this loop condition.
  while (fairRate(flow) + kRateEpsilon < floorBps_) {
    // Victims live at the bottleneck endpoint: pausing elsewhere cannot
    // raise this flow's rate.
    const EndpointState& src = endpoints_[flow.src.index()];
    const EndpointState& dst = endpoints_[flow.dst.index()];
    const double upShare =
        src.capacity.uploadBps / static_cast<double>(src.uploads.size());
    const double downShare =
        dst.capacity.downloadBps / static_cast<double>(dst.downloads.size());
    const bool srcBottleneck = upShare <= downShare;
    const std::vector<Slot>& members =
        srcBottleneck ? src.uploads : dst.downloads;
    // Lowest class first (largest enum value), most recently activated
    // within a class — older transfers keep their progress.
    Slot victim = 0;
    FlowClass victimClass = flow.flowClass;
    for (const Slot candidate : members) {
      const Flow& other = *flows_.find(candidate);
      if (other.flowClass <= flow.flowClass) continue;
      if (victim == 0 || other.flowClass >= victimClass) {
        victim = candidate;
        victimClass = other.flowClass;
      }
    }
    if (victim == 0) break;
    Flow& victimFlow = *flows_.find(victim);
    const EndpointId vSrc = victimFlow.src;
    const EndpointId vDst = victimFlow.dst;
    pauseFlow(victim, victimFlow);
    markDirty(vSrc);
    if (vDst != vSrc) markDirty(vDst);
  }
}

void FlowNetwork::pauseFlow(Slot slot, Flow& flow) {
  assert(!flow.queued && !flow.paused);
  // Settle immediately: the pre-pause rate must stop accruing the moment the
  // flow leaves the share pools, not at batch commit.
  settle(flow);
  if (flow.completion.valid()) {
    sim_.cancel(flow.completion);
    flow.completion = sim::EventHandle{};
  }
  eraseSlot(endpoints_[flow.src.index()].uploads, slot);
  eraseSlot(endpoints_[flow.dst.index()].downloads, slot);
  flow.paused = true;
  flow.rateBps = 0.0;
  endpoints_[flow.src.index()].pausedUploads.push_back(slot);
  endpoints_[flow.dst.index()].pausedDownloads.push_back(slot);
}

bool FlowNetwork::canResume(const Flow& flow) const {
  // Resuming adds one flow to src's upload pool and dst's download pool;
  // refuse when that would push an already-active higher-class flow at
  // either endpoint below the floor.
  const EndpointState& src = endpoints_[flow.src.index()];
  const double upShare = src.capacity.uploadBps /
                         static_cast<double>(src.uploads.size() + 1);
  if (upShare + kRateEpsilon < floorBps_) {
    for (const Slot other : src.uploads) {
      if (flows_.find(other)->flowClass < flow.flowClass) return false;
    }
  }
  const EndpointState& dst = endpoints_[flow.dst.index()];
  const double downShare = dst.capacity.downloadBps /
                           static_cast<double>(dst.downloads.size() + 1);
  if (downShare + kRateEpsilon < floorBps_) {
    for (const Slot other : dst.downloads) {
      if (flows_.find(other)->flowClass < flow.flowClass) return false;
    }
  }
  return true;
}

void FlowNetwork::resumePaused(EndpointId endpoint) {
  if (floorBps_ <= 0.0) return;
  while (true) {
    EndpointState& state = endpoints_[endpoint.index()];
    // Highest class first, FIFO within a class; uploads scanned before
    // downloads so the order is deterministic.
    Slot pick = 0;
    FlowClass pickClass = FlowClass::kPrefetch;
    for (const std::vector<Slot>* list :
         {&state.pausedUploads, &state.pausedDownloads}) {
      for (const Slot slot : *list) {
        const Flow& flow = *flows_.find(slot);
        if (pick != 0 && flow.flowClass >= pickClass) continue;
        if (canResume(flow)) {
          pick = slot;
          pickClass = flow.flowClass;
        }
      }
    }
    if (pick == 0) return;
    Flow& flow = *flows_.find(pick);
    eraseSlot(endpoints_[flow.src.index()].pausedUploads, pick);
    eraseSlot(endpoints_[flow.dst.index()].pausedDownloads, pick);
    activate(pick, flow);
  }
}

void FlowNetwork::finish(FlowId id) {
  const Slot slot = slotOf(id);
  if (slot == 0) return;
  beginBatch();
  Flow* flow = flows_.find(slot);
  settle(*flow);
  // reschedule() truncates the completion delay to whole microseconds
  // (sim::fromSeconds), so a flow may finish up to one microsecond's worth
  // of bytes early, beside float error.
  assert(flow->bytesRemaining <=
         kEpsilonBytes + flow->rateBps / 8.0 * sim::toSeconds(1));
  const Flow record = removeFlow(slot, /*completed=*/true);
  applyBatch();
  // Notify after the drain so observers (and the tag's component) see the
  // post-completion rates — the order the eager solver delivered.
  for (FlowObserver* observer : observers_) observer->onFlowCompleted(id);
  if (record.completionTag.tagged()) sim_.invokeTagged(record.completionTag);
}

FlowNetwork::Flow FlowNetwork::removeFlow(Slot slot, bool completed) {
  Flow flow = flows_.take(slot);
  index_.erase(flow.id.value());
  if (flow.completion.valid()) sim_.cancel(flow.completion);

  if (flow.queued) {
    // Never activated: only the source's wait queue (and the destination's
    // inbound mirror) know about it.
    assert(!completed);
    auto& queue = endpoints_[flow.src.index()].uploadQueue;
    queue.erase(std::find(queue.begin(), queue.end(), slot));
    eraseSlot(endpoints_[flow.dst.index()].queuedInbound, slot);
    sim_.discardTagged(flow.completionTag);
    return flow;
  }

  if (flow.paused) {
    // Not in the share pools; releasing its reserved slot may admit queued
    // or paused work at the source.
    assert(!completed);
    eraseSlot(endpoints_[flow.src.index()].pausedUploads, slot);
    eraseSlot(endpoints_[flow.dst.index()].pausedDownloads, slot);
    promoteQueued(flow.src);
    resumePaused(flow.src);
    if (flow.dst != flow.src) resumePaused(flow.dst);
    sim_.discardTagged(flow.completionTag);
    return flow;
  }

  eraseSlot(endpoints_[flow.src.index()].uploads, slot);
  eraseSlot(endpoints_[flow.dst.index()].downloads, slot);

  if (completed) {
    endpoints_[flow.src.index()].bytesUploaded += flow.totalBytes;
    endpoints_[flow.dst.index()].bytesDownloaded += flow.totalBytes;
  }

  promoteQueued(flow.src);
  resumePaused(flow.src);
  if (flow.dst != flow.src) resumePaused(flow.dst);
  // Marked after promotions/resumes so the drain orders this pair's final
  // settle the way the eager solver's trailing refreshes did.
  markDirty(flow.src);
  if (flow.dst != flow.src) markDirty(flow.dst);

  if (!completed) sim_.discardTagged(flow.completionTag);
  return flow;
}

void FlowNetwork::cancelFlow(FlowId id) {
  const Slot slot = slotOf(id);
  if (slot == 0) return;
  beginBatch();
  removeFlow(slot, /*completed=*/false);
  applyBatch();
}

void FlowNetwork::dropEndpointFlows(EndpointId endpoint) {
  assert(hasEndpoint(endpoint));
  MutationBatch batch(*this);
  EndpointState& state = endpoints_[endpoint.index()];
  // Queued (never-activated) uploads die without notification, as do flows
  // queued at another source that would have downloaded into this endpoint
  // — without the inbound purge such a flow would later activate and fire
  // its completion toward a dead endpoint.
  const std::vector<Slot> queued(state.uploadQueue.begin(),
                                 state.uploadQueue.end());
  for (const Slot slot : queued) {
    if (flows_.find(slot) != nullptr) removeFlow(slot, /*completed=*/false);
  }
  const std::vector<Slot> inbound = state.queuedInbound;
  for (const Slot slot : inbound) {
    if (flows_.find(slot) != nullptr) removeFlow(slot, /*completed=*/false);
  }
  std::vector<Slot> doomed = state.uploads;
  doomed.insert(doomed.end(), state.downloads.begin(), state.downloads.end());
  // Preempted flows are still live transfers from the remote side's point of
  // view; a paused upload's downloader must be notified like an active one.
  doomed.insert(doomed.end(), state.pausedUploads.begin(),
                state.pausedUploads.end());
  doomed.insert(doomed.end(), state.pausedDownloads.begin(),
                state.pausedDownloads.end());
  // When the *endpoint itself* departs we notify for uploads it was serving
  // (the remote downloader lost its provider); its own downloads just die
  // with it. Aborts are recorded during removal and delivered afterwards in
  // ascending flow-id order, so observers see a settled network minus every
  // doomed flow — and any replacement flows they start join this batch.
  struct Abort {
    FlowId id;
    std::uint64_t bytesDone;
  };
  std::vector<Abort> aborts;
  for (const Slot slot : doomed) {
    Flow* flow = flows_.find(slot);
    if (flow == nullptr) continue;  // same flow on both sides (loopback)
    settle(*flow);
    if (flow->dst != endpoint) {
      aborts.push_back(
          {flow->id,
           static_cast<std::uint64_t>(static_cast<double>(flow->totalBytes) -
                                      flow->bytesRemaining)});
    }
    removeFlow(slot, /*completed=*/false);
  }
  std::sort(aborts.begin(), aborts.end(),
            [](const Abort& a, const Abort& b) { return a.id < b.id; });
  for (const Abort& abort : aborts) {
    for (FlowObserver* observer : observers_) {
      observer->onFlowAborted(abort.id, abort.bytesDone);
    }
  }
}

bool FlowNetwork::flowActive(FlowId id) const { return slotOf(id) != 0; }

double FlowNetwork::flowRateBps(FlowId id) const {
  const Flow* flow = flows_.find(slotOf(id));
  return flow == nullptr ? 0.0 : flow->rateBps;
}

bool FlowNetwork::flowPaused(FlowId id) const {
  const Flow* flow = flows_.find(slotOf(id));
  return flow != nullptr && flow->paused;
}

std::size_t FlowNetwork::activeUploads(EndpointId id) const {
  assert(hasEndpoint(id));
  return endpoints_[id.index()].uploads.size();
}

std::size_t FlowNetwork::activeDownloads(EndpointId id) const {
  assert(hasEndpoint(id));
  return endpoints_[id.index()].downloads.size();
}

std::size_t FlowNetwork::pausedUploads(EndpointId id) const {
  assert(hasEndpoint(id));
  return endpoints_[id.index()].pausedUploads.size();
}

std::uint64_t FlowNetwork::bytesUploaded(EndpointId id) const {
  assert(hasEndpoint(id));
  return endpoints_[id.index()].bytesUploaded;
}

std::uint64_t FlowNetwork::bytesDownloaded(EndpointId id) const {
  assert(hasEndpoint(id));
  return endpoints_[id.index()].bytesDownloaded;
}

std::uint64_t FlowNetwork::flowsShed(EndpointId id) const {
  assert(hasEndpoint(id));
  return endpoints_[id.index()].flowsShed;
}

bool FlowNetwork::saveState(snapshot::Writer& w, std::string* error) const {
  (void)error;
  // Batches never span simulated time, and snapshots are taken between
  // events, so there is nothing deferred to flush here.
  assert(batchDepth_ == 0 && dirtyList_.empty());
  // Membership lists serialize as public flow ids (the byte format predates
  // the slot arena and must stay stable), so translate slot -> id on the way
  // out; loadState rebuilds the arena and translates back.
  const auto publicId = [this](Slot slot) {
    const Flow* flow = flows_.find(slot);
    assert(flow != nullptr);
    return flow->id.value();
  };
  const auto saveSlotList = [&](const std::vector<Slot>& list) {
    w.u64(list.size());
    for (const Slot slot : list) w.u32(publicId(slot));
  };

  std::vector<std::pair<std::uint32_t, Slot>> ids;
  ids.reserve(index_.size());
  for (const auto& [value, slot] : index_) ids.emplace_back(value, slot);
  std::sort(ids.begin(), ids.end());

  w.section(0x574f4c46);  // "FLOW"
  w.u64(ids.size());
  for (const auto& [value, slot] : ids) {
    const Flow& flow = *flows_.find(slot);
    w.u32(value);
    w.u32(flow.src.value());
    w.u32(flow.dst.value());
    w.f64(flow.bytesRemaining);
    w.f64(flow.rateBps);
    w.i64(flow.lastUpdate);
    w.u64(flow.totalBytes);
    w.u8(static_cast<std::uint8_t>(flow.flowClass));
    w.boolean(flow.queued);
    w.boolean(flow.paused);
    w.u8(flow.completionTag.component);
    w.u8(flow.completionTag.kind);
    w.u16(flow.completionTag.stage);
    w.u32(flow.completionTag.a32);
    w.u64(flow.completionTag.a);
    w.u64(flow.completionTag.b);
    w.u64(flow.completionTag.c);
    w.u64(flow.completionTag.d);
  }
  w.u64(endpoints_.size());
  for (const EndpointState& state : endpoints_) {
    saveSlotList(state.uploads);
    saveSlotList(state.downloads);
    w.u64(state.uploadQueue.size());
    for (const Slot slot : state.uploadQueue) w.u32(publicId(slot));
    saveSlotList(state.queuedInbound);
    saveSlotList(state.pausedUploads);
    saveSlotList(state.pausedDownloads);
    w.u64(state.bytesUploaded);
    w.u64(state.bytesDownloaded);
    w.u64(state.flowsShed);
  }
  w.u32(nextFlowId_);
  return true;
}

namespace {

template <typename Container, typename Index>
bool loadSlotList(snapshot::Reader& r, const Index& index, Container* out) {
  const std::size_t count = r.count(4);
  out->clear();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t id = r.u32();
    if (!r.ok()) return false;
    const auto it = index.find(id);
    if (it == index.end()) {
      r.fail("endpoint flow list references unknown flow");
      return false;
    }
    out->push_back(it->second);
  }
  return true;
}

}  // namespace

bool FlowNetwork::loadState(snapshot::Reader& r) {
  r.section(0x574f4c46, "flow network");
  const std::size_t flowCount = r.count(4 + 4 + 4 + 8 + 8 + 8 + 8 + 3 + 40);
  if (!r.ok()) return false;
  flows_ = SlotPool<Flow>{};
  index_.clear();
  dirtyList_.clear();
  for (std::size_t i = 0; i < flowCount; ++i) {
    const FlowId id{r.u32()};
    Flow flow;
    flow.id = id;
    flow.src = EndpointId{r.u32()};
    flow.dst = EndpointId{r.u32()};
    flow.bytesRemaining = r.f64();
    flow.rateBps = r.f64();
    flow.lastUpdate = r.i64();
    flow.totalBytes = r.u64();
    const std::uint8_t flowClass = r.u8();
    flow.queued = r.boolean();
    flow.paused = r.boolean();
    flow.completionTag.component = r.u8();
    flow.completionTag.kind = r.u8();
    flow.completionTag.stage = r.u16();
    flow.completionTag.a32 = r.u32();
    flow.completionTag.a = r.u64();
    flow.completionTag.b = r.u64();
    flow.completionTag.c = r.u64();
    flow.completionTag.d = r.u64();
    if (!r.ok()) return false;
    if (!hasEndpoint(flow.src) || !hasEndpoint(flow.dst) ||
        flowClass >= kFlowClassCount || (flow.queued && flow.paused) ||
        flow.bytesRemaining < 0.0 || flow.totalBytes == 0 ||
        index_.count(id.value()) != 0) {
      r.fail("flow record out of range");
      return false;
    }
    flow.flowClass = static_cast<FlowClass>(flowClass);
    const Slot slot = flows_.insert(std::move(flow));
    index_.emplace(id.value(), slot);
  }
  const std::size_t endpointCount = r.count(9 * 8);
  if (!r.ok() || endpointCount != endpoints_.size()) {
    r.fail("flow network endpoint count mismatch");
    return false;
  }
  for (EndpointState& state : endpoints_) {
    if (!loadSlotList(r, index_, &state.uploads)) return false;
    if (!loadSlotList(r, index_, &state.downloads)) return false;
    if (!loadSlotList(r, index_, &state.uploadQueue)) return false;
    if (!loadSlotList(r, index_, &state.queuedInbound)) return false;
    if (!loadSlotList(r, index_, &state.pausedUploads)) return false;
    if (!loadSlotList(r, index_, &state.pausedDownloads)) return false;
    state.bytesUploaded = r.u64();
    state.bytesDownloaded = r.u64();
    state.flowsShed = r.u64();
  }
  nextFlowId_ = r.u32();
  if (!r.ok()) return false;
  for (const auto& [value, slot] : index_) {
    if (value >= nextFlowId_) {
      r.fail("flow id collides with the id allocator");
      return false;
    }
  }
  return true;
}

}  // namespace st::net
