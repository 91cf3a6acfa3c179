#include "net/flow_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <tuple>

namespace st::net {

namespace {
// A flow is considered delivered when less than one byte remains; guards
// against floating-point residue keeping flows alive forever.
constexpr double kEpsilonBytes = 0.5;
// Tolerance when comparing a fair-share rate against the playback floor.
constexpr double kRateEpsilon = 1e-9;
// Work units per byte (FlowNetwork::Work).
constexpr double kUnitsPerByte = 1024.0;

void eraseSlot(std::vector<std::uint64_t>& list, std::uint64_t slot) {
  const auto it = std::find(list.begin(), list.end(), slot);
  assert(it != list.end());
  list.erase(it);
}

// Work a share of `bps` delivers over `dt`, rounded to whole units.
std::int64_t advance(double bps, sim::SimTime dt) {
  return std::llround(bps / 8.0 * sim::toSeconds(dt) * kUnitsPerByte);
}

std::int64_t toWork(double bytes) {
  return std::llround(bytes * kUnitsPerByte);
}
}  // namespace

void FlowNetwork::addEndpoint(EndpointId id, EndpointCapacity capacity,
                              std::uint32_t ownerKey) {
  assert(id.valid());
  if (endpoints_.size() <= id.index()) endpoints_.resize(id.index() + 1);
  endpoints_[id.index()].capacity = capacity;
  endpoints_[id.index()].ownerKey = ownerKey;
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
  return std::min(sideShare(src, kUp), sideShare(dst, kDown));
}

double FlowNetwork::sideShare(const EndpointState& state, std::size_t side) {
  const std::size_t flows =
      side == kUp ? state.uploads.size() : state.downloads.size();
  if (flows == 0) return 0.0;
  const double capacity =
      side == kUp ? state.capacity.uploadBps : state.capacity.downloadBps;
  return capacity / static_cast<double>(flows);
}

FlowNetwork::Group& FlowNetwork::groupOf(const Flow& flow) {
  return flow.place == Place::kUpload
             ? endpoints_[flow.src.index()].groups[kUp]
             : endpoints_[flow.dst.index()].groups[kDown];
}

const FlowNetwork::Group& FlowNetwork::groupOf(const Flow& flow) const {
  return const_cast<FlowNetwork*>(this)->groupOf(flow);
}

FlowNetwork::Place FlowNetwork::bindingSide(const Flow& flow) const {
  return endpoints_[flow.src.index()].groups[kUp].s1 <=
                 endpoints_[flow.dst.index()].groups[kDown].s1
             ? Place::kUpload
             : Place::kDownload;
}

std::pair<FlowNetwork::Work, sim::SimTime> FlowNetwork::segmentStart(
    const Group& group) {
  if (group.s1 == group.s0) return {group.v0, group.t0};
  return {group.v0 + advance(group.s0, group.t1 - group.t0), group.t1};
}

FlowNetwork::Work FlowNetwork::clockAt(const Group& group, sim::SimTime t) {
  // A change made at instant t itself governs only what follows t.
  if (group.s1 != group.s0 && group.t1 < t) {
    const auto [start, from] = segmentStart(group);
    return start + advance(group.s1, t - from);
  }
  return group.v0 + advance(group.s0, t - group.t0);
}

void FlowNetwork::setShare(Group& group, double share, sim::SimTime now) {
  // A change pending from an earlier instant is final: fold it in.
  if (group.s1 != group.s0 && group.t1 < now) {
    std::tie(group.v0, group.t0) = segmentStart(group);
    group.s0 = group.s1;
  }
  group.s1 = share;
  group.t1 = now;
}

bool FlowNetwork::grouped(const Flow& flow) {
  return flow.place == Place::kUpload || flow.place == Place::kDownload;
}

FlowNetwork::Work FlowNetwork::remainingWork(const Flow& flow) const {
  if (!grouped(flow)) return flow.work;
  return flow.work - clockAt(groupOf(flow), sim_.now());
}

double FlowNetwork::remainingBytes(const Flow& flow) const {
  return static_cast<double>(std::max<Work>(0, remainingWork(flow))) /
         kUnitsPerByte;
}

void FlowNetwork::placeMember(Group& group, std::size_t pos,
                              const Member& member) {
  std::vector<Member>& heap = group.heap;
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!(member < heap[parent])) break;
    heap[pos] = heap[parent];
    flows_.find(heap[pos].slot)->heapPos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= heap.size()) break;
    if (child + 1 < heap.size() && heap[child + 1] < heap[child]) ++child;
    if (!(heap[child] < member)) break;
    heap[pos] = heap[child];
    flows_.find(heap[pos].slot)->heapPos = static_cast<std::uint32_t>(pos);
    pos = child;
  }
  heap[pos] = member;
  flows_.find(member.slot)->heapPos = static_cast<std::uint32_t>(pos);
}

void FlowNetwork::join(Slot slot, Flow& flow, Place side, Work remaining) {
  const EndpointId endpoint = side == Place::kUpload ? flow.src : flow.dst;
  const std::size_t index = side == Place::kUpload ? kUp : kDown;
  Group& group = endpoints_[endpoint.index()].groups[index];
  flow.place = side;
  flow.work = clockAt(group, sim_.now()) + remaining;
  group.heap.emplace_back();
  placeMember(group, group.heap.size() - 1, Member{flow.work, flow.seq, slot});
  if (flow.heapPos == 0) queueRetime(endpoint, index);
}

void FlowNetwork::leave(Flow& flow) {
  const bool upload = flow.place == Place::kUpload;
  const EndpointId endpoint = upload ? flow.src : flow.dst;
  const std::size_t index = upload ? kUp : kDown;
  Group& group = endpoints_[endpoint.index()].groups[index];
  const std::size_t pos = flow.heapPos;
  assert(pos < group.heap.size());
  const Member last = group.heap.back();
  group.heap.pop_back();
  if (pos < group.heap.size()) placeMember(group, pos, last);
  flow.place = Place::kNone;
  if (pos == 0) queueRetime(endpoint, index);
}

void FlowNetwork::queueRetime(EndpointId endpoint, std::size_t side) {
  Group& group = endpoints_[endpoint.index()].groups[side];
  if (group.retimeQueued) return;
  group.retimeQueued = true;
  retimeList_.emplace_back(endpoint, side);
}

void FlowNetwork::retime(EndpointId endpoint, std::size_t side) {
  EndpointState& state = endpoints_[endpoint.index()];
  Group& group = state.groups[side];
  group.retimeQueued = false;
  ++rateRecomputations_;
  if (group.heap.empty() || group.s1 <= 0.0) {
    // No member, or a zero-capacity side: its flows stall until membership
    // changes again, and must not schedule a completion at time infinity.
    sim_.cancel(group.completion);
    group.completion = sim::EventHandle{};
    return;
  }
  // The head's finish time on the segment that runs from now on. It depends
  // on the group's state only, not on when it is computed; truncated to
  // whole microseconds, so the head may finish up to one microsecond early.
  const auto [start, from] = segmentStart(group);
  const double seconds =
      static_cast<double>(group.heap.front().finish - start) /
      kUnitsPerByte * 8.0 / group.s1;
  const sim::SimTime now = sim_.now();
  const sim::SimTime due = std::max(now, from + sim::fromSeconds(seconds));
  // Moves a queued completion in place: no closure rebuild, no dead entry.
  group.completion = sim_.retimeTagged(
      group.completion, due - now,
      sim::makeTag(sim::Component::kFlow, kGroupEvent, endpoint.value(), side),
      state.ownerKey);
}

sim::Callback FlowNetwork::rebuild(const sim::EventTag& tag) {
  // Tag words are outside input on restore: only captured here, checked in
  // onRestored before the event can fire.
  const EndpointId endpoint{static_cast<std::uint32_t>(tag.a)};
  const std::size_t side = tag.b;
  return [this, endpoint, side] { complete(endpoint, side); };
}

bool FlowNetwork::onRestored(const sim::EventTag& tag,
                             sim::EventHandle handle) {
  if (tag.kind != kGroupEvent || tag.a >= endpoints_.size() || tag.b > kDown) {
    return false;
  }
  Group& group = endpoints_[tag.a].groups[tag.b];
  if (group.heap.empty() || group.completion.valid()) return false;
  group.completion = handle;
  return true;
}

void FlowNetwork::beginBatch() { ++batchDepth_; }

void FlowNetwork::applyBatch() {
  assert(batchDepth_ > 0);
  if (--batchDepth_ == 0 && (!dirtyList_.empty() || !retimeList_.empty())) {
    drain();
  }
}

void FlowNetwork::markDirty(EndpointId endpoint) {
  // Mutations only happen under a batch (every public mutator opens an
  // implicit one), so a mark can never be dropped on the floor.
  assert(batchDepth_ > 0);
  EndpointState& state = endpoints_[endpoint.index()];
  if (state.dirty) return;
  state.dirty = true;
  dirtyList_.push_back(endpoint);
}

void FlowNetwork::drain() {
  const sim::SimTime now = sim_.now();
  // New shares. No simulated time passes inside a batch, so every clock
  // advanced at its old share up to now; the new share runs from now on.
  rescan_.assign(dirtyList_.size(), 0);
  for (std::size_t i = 0; i < dirtyList_.size(); ++i) {
    EndpointState& state = endpoints_[dirtyList_[i].index()];
    state.dirty = false;
    for (const std::size_t side : {kUp, kDown}) {
      Group& group = state.groups[side];
      const double share = sideShare(state, side);
      if (share == group.s1) continue;
      setShare(group, share, now);
      rescan_[i] |= static_cast<std::uint8_t>(1u << side);
      if (!group.heap.empty()) queueRetime(dirtyList_[i], side);
    }
  }
  // A flow's binding side follows its two endpoints' shares, so only the
  // members of a side whose share moved can flip. A flip carries the
  // remaining work F - V(now) into the other group.
  for (std::size_t i = 0; i < dirtyList_.size(); ++i) {
    const EndpointState& state = endpoints_[dirtyList_[i].index()];
    for (const std::size_t side : {kUp, kDown}) {
      if ((rescan_[i] & (1u << side)) == 0) continue;
      for (const Slot slot : side == kUp ? state.uploads : state.downloads) {
        Flow& flow = *flows_.find(slot);
        if (!grouped(flow)) continue;  // activated in this batch: joins below
        const Place want = bindingSide(flow);
        if (want == flow.place) continue;
        const Work left = flow.work - clockAt(groupOf(flow), now);
        leave(flow);
        join(slot, flow, want, left);
      }
    }
  }
  dirtyList_.clear();
  for (const Slot slot : pending_) {
    Flow* flow = flows_.find(slot);
    if (flow == nullptr || flow->place != Place::kPending) continue;
    join(slot, *flow, bindingSide(*flow), flow->work);
  }
  pending_.clear();
  for (const auto& [endpoint, side] : retimeList_) retime(endpoint, side);
  retimeList_.clear();
}

double FlowNetwork::estimatedBacklogSeconds(const EndpointState& state) const {
  if (state.capacity.uploadBps <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  double backlogBytes = 0.0;
  // Active uploads: F - V(now). Exact even mid-batch: the group clocks run
  // at the pre-batch shares, which governed everything up to now.
  for (const Slot slot : state.uploads) {
    backlogBytes += remainingBytes(*flows_.find(slot));
  }
  // Paused uploads hold their slot and will resume; queued uploads wait in
  // line untouched.
  for (const Slot slot : state.pausedUploads) {
    backlogBytes += remainingBytes(*flows_.find(slot));
  }
  for (const Slot slot : state.uploadQueue) {
    backlogBytes += remainingBytes(*flows_.find(slot));
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
  const bool queue = usedSlots >= source.uploadLimit;
  if (queue && shouldShed(src, options.flowClass, options.deadline)) {
    ++source.flowsShed;
    for (FlowObserver* observer : observers_) {
      observer->onFlowShed(src, dst, options.flowClass);
    }
    return FlowId::invalid();
  }
  const FlowId id{nextFlowId_++};
  Flow flow;
  flow.id = id;
  flow.src = src;
  flow.dst = dst;
  flow.work = toWork(static_cast<double>(bytes));
  flow.totalBytes = bytes;
  flow.flowClass = options.flowClass;
  flow.completionTag = options.completionTag;
  const Slot slot = flows_.insert(std::move(flow));
  index_.emplace(id.value(), slot);
  if (queue) {
    // No free upload slot: wait in line. The flow joins the share pools of
    // both endpoints only on activation.
    flows_.find(slot)->queued = true;
    source.uploadQueue.push_back(slot);
    endpoints_[dst.index()].queuedInbound.push_back(slot);
  } else {
    activate(slot, *flows_.find(slot));
  }
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
  // Joins its group at batch commit, once the new shares pick its side.
  flow.place = Place::kPending;
  flow.seq = nextSeq_++;
  pending_.push_back(slot);
  endpoints_[flow.src.index()].uploads.push_back(slot);
  endpoints_[flow.dst.index()].downloads.push_back(slot);
  markDirty(flow.src);
  markDirty(flow.dst);
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
  // fairRate() is evaluated live from the membership counts: the groups'
  // shares are settled only at batch commit.
  while (fairRate(flow) + kRateEpsilon < floorBps_) {
    // Victims live at the bottleneck endpoint: pausing elsewhere cannot
    // raise this flow's rate.
    const EndpointState& src = endpoints_[flow.src.index()];
    const EndpointState& dst = endpoints_[flow.dst.index()];
    const bool srcBottleneck = sideShare(src, kUp) <= sideShare(dst, kDown);
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
    markDirty(victimFlow.src);
    markDirty(victimFlow.dst);
    pauseFlow(victim, victimFlow);
  }
}

void FlowNetwork::pauseFlow(Slot slot, Flow& flow) {
  assert(!flow.queued && !flow.paused);
  // The remaining work stops shrinking the moment the flow leaves its
  // group, not at batch commit.
  const Work left = remainingWork(flow);
  if (grouped(flow)) leave(flow);
  flow.place = Place::kNone;
  flow.work = left;
  eraseSlot(endpoints_[flow.src.index()].uploads, slot);
  eraseSlot(endpoints_[flow.dst.index()].downloads, slot);
  flow.paused = true;
  flow.seq = nextSeq_++;
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

void FlowNetwork::complete(EndpointId endpoint, std::size_t side) {
  Group& group = endpoints_[endpoint.index()].groups[side];
  group.completion = sim::EventHandle{};  // this event
  assert(!group.heap.empty());
  const Slot slot = group.heap.front().slot;
  const Flow& head = *flows_.find(slot);
  // The completion time is truncated to whole microseconds, so the head
  // may finish up to one microsecond's worth of bytes early.
  assert(remainingBytes(head) <=
         kEpsilonBytes + group.s1 / 8.0 * sim::toSeconds(1));
  const FlowId id = head.id;
  beginBatch();
  const Flow record = removeFlow(slot, /*completed=*/true);
  applyBatch();
  // Notify after the drain so observers (and the tag's component) see the
  // post-completion shares.
  for (FlowObserver* observer : observers_) observer->onFlowCompleted(id);
  if (record.completionTag.tagged()) sim_.invokeTagged(record.completionTag);
}

FlowNetwork::Flow FlowNetwork::removeFlow(Slot slot, bool completed) {
  Flow flow = flows_.take(slot);
  index_.erase(flow.id.value());

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

  // A flow activated in this batch has no group yet; the drain skips its
  // released slot.
  if (grouped(flow)) leave(flow);
  eraseSlot(endpoints_[flow.src.index()].uploads, slot);
  eraseSlot(endpoints_[flow.dst.index()].downloads, slot);
  markDirty(flow.src);
  markDirty(flow.dst);

  if (completed) {
    endpoints_[flow.src.index()].bytesUploaded += flow.totalBytes;
    endpoints_[flow.dst.index()].bytesDownloaded += flow.totalBytes;
  }

  promoteQueued(flow.src);
  resumePaused(flow.src);
  if (flow.dst != flow.src) resumePaused(flow.dst);

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
  // ascending flow-id order, so observers see the network minus every
  // doomed flow — and any replacement flows they start join this batch.
  struct Abort {
    FlowId id;
    std::uint64_t bytesDone;
    sim::EventTag completionTag;
  };
  std::vector<Abort> aborts;
  for (const Slot slot : doomed) {
    Flow* flow = flows_.find(slot);
    if (flow == nullptr) continue;  // same flow on both sides (loopback)
    if (flow->dst != endpoint) {
      aborts.push_back(
          {flow->id,
           static_cast<std::uint64_t>(static_cast<double>(flow->totalBytes) -
                                      remainingBytes(*flow)),
           flow->completionTag});
    }
    removeFlow(slot, /*completed=*/false);
  }
  std::sort(aborts.begin(), aborts.end(),
            [](const Abort& a, const Abort& b) { return a.id < b.id; });
  for (const Abort& abort : aborts) {
    for (FlowObserver* observer : observers_) {
      observer->onFlowAborted(abort.id, abort.bytesDone, abort.completionTag);
    }
  }
}

bool FlowNetwork::flowActive(FlowId id) const { return slotOf(id) != 0; }

double FlowNetwork::flowRateBps(FlowId id) const {
  const Flow* flow = flows_.find(slotOf(id));
  return flow != nullptr && grouped(*flow) ? groupOf(*flow).s1 : 0.0;
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
  assert(batchDepth_ == 0 && dirtyList_.empty() && pending_.empty());
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
    w.u8(static_cast<std::uint8_t>(flow.place));
    w.i64(flow.work);
    w.u64(flow.seq);
    w.u64(flow.totalBytes);
    w.u8(static_cast<std::uint8_t>(flow.flowClass));
    w.boolean(flow.queued);
    w.boolean(flow.paused);
    snapshot::saveEventTag(w, flow.completionTag);
  }
  w.u64(endpoints_.size());
  for (const EndpointState& state : endpoints_) {
    // The current share s1 follows from the membership counts.
    for (const Group& group : state.groups) {
      w.i64(group.v0);
      w.i64(group.t0);
      w.f64(group.s0);
      w.i64(group.t1);
    }
    w.u64(state.bytesUploaded);
    w.u64(state.bytesDownloaded);
    w.u64(state.flowsShed);
  }
  w.u32(nextFlowId_);
  w.u64(nextSeq_);
  return true;
}

bool FlowNetwork::loadState(snapshot::Reader& r) {
  r.section(0x574f4c46, "flow network");
  const std::size_t flowCount =
      r.count(4 + 4 + 4 + 1 + 8 + 8 + 8 + 1 + 1 + 1 + 40);
  if (!r.ok()) return false;
  flows_ = SlotPool<Flow>{};
  index_.clear();
  dirtyList_.clear();
  pending_.clear();
  retimeList_.clear();
  for (EndpointState& state : endpoints_) {
    state.dirty = false;
    state.uploads.clear();
    state.downloads.clear();
    state.uploadQueue.clear();
    state.queuedInbound.clear();
    state.pausedUploads.clear();
    state.pausedDownloads.clear();
    for (Group& group : state.groups) group = Group{};
  }
  // Records come in id order. Queued flows join the wait lists in it;
  // every other flow waits in `stamped` for the sequence order below.
  std::vector<Slot> stamped;
  std::uint32_t lastId = 0;
  for (std::size_t i = 0; i < flowCount; ++i) {
    const FlowId id{r.u32()};
    Flow flow;
    flow.id = id;
    flow.src = EndpointId{r.u32()};
    flow.dst = EndpointId{r.u32()};
    const std::uint8_t place = r.u8();
    flow.work = r.i64();
    flow.seq = r.u64();
    flow.totalBytes = r.u64();
    const std::uint8_t flowClass = r.u8();
    flow.queued = r.boolean();
    flow.paused = r.boolean();
    flow.completionTag = snapshot::loadEventTag(r);
    if (!r.ok()) return false;
    // Saves happen between batches: every active flow is in a group, and
    // only active flows are.
    const bool idle = flow.queued || flow.paused;
    if (!hasEndpoint(flow.src) || !hasEndpoint(flow.dst) ||
        flowClass >= kFlowClassCount || (flow.queued && flow.paused) ||
        place > static_cast<std::uint8_t>(Place::kDownload) ||
        idle != (place == static_cast<std::uint8_t>(Place::kNone)) ||
        flow.totalBytes == 0 || id.value() <= lastId) {
      r.fail("flow record out of range");
      return false;
    }
    lastId = id.value();
    flow.place = static_cast<Place>(place);
    flow.flowClass = static_cast<FlowClass>(flowClass);
    const Slot slot = flows_.insert(flow);
    index_.emplace(id.value(), slot);
    if (flow.queued) {
      endpoints_[flow.src.index()].uploadQueue.push_back(slot);
      endpoints_[flow.dst.index()].queuedInbound.push_back(slot);
    } else {
      stamped.push_back(slot);
    }
  }
  const std::size_t endpointCount = r.count(2 * 4 * 8 + 3 * 8);
  if (!r.ok() || endpointCount != endpoints_.size()) {
    r.fail("flow network endpoint count mismatch");
    return false;
  }
  for (EndpointState& state : endpoints_) {
    for (Group& group : state.groups) {
      group.v0 = r.i64();
      group.t0 = r.i64();
      group.s0 = r.f64();
      group.t1 = r.i64();
      if (!r.ok()) return false;
      if (!(group.s0 >= 0.0 && group.s0 < 1e300) || group.t0 < 0 ||
          group.t1 < group.t0) {
        r.fail("flow group clock out of range");
        return false;
      }
    }
    state.bytesUploaded = r.u64();
    state.bytesDownloaded = r.u64();
    state.flowsShed = r.u64();
  }
  nextFlowId_ = r.u32();
  nextSeq_ = r.u64();
  if (!r.ok()) return false;
  if (lastId >= nextFlowId_) {
    r.fail("flow id collides with the id allocator");
    return false;
  }
  // Active flows join their lists, and then their groups, in join order
  // (activate is the lists' only append); paused flows in pause order.
  const auto seqOf = [this](Slot slot) { return flows_.find(slot)->seq; };
  std::sort(stamped.begin(), stamped.end(),
            [&](Slot a, Slot b) { return seqOf(a) < seqOf(b); });
  for (std::size_t i = 0; i < stamped.size(); ++i) {
    const Slot slot = stamped[i];
    Flow& flow = *flows_.find(slot);
    if (flow.seq >= nextSeq_ || (i > 0 && seqOf(stamped[i - 1]) == flow.seq)) {
      r.fail("flow sequence collides with the allocator or another flow");
      return false;
    }
    EndpointState& src = endpoints_[flow.src.index()];
    EndpointState& dst = endpoints_[flow.dst.index()];
    if (flow.paused) {
      src.pausedUploads.push_back(slot);
      dst.pausedDownloads.push_back(slot);
      continue;
    }
    src.uploads.push_back(slot);
    dst.downloads.push_back(slot);
    Group& group = groupOf(flow);
    group.heap.emplace_back();
    placeMember(group, group.heap.size() - 1,
                Member{flow.work, flow.seq, slot});
  }
  for (EndpointState& state : endpoints_) {
    for (const std::size_t side : {kUp, kDown}) {
      state.groups[side].s1 = sideShare(state, side);
    }
  }
  return true;
}

bool FlowNetwork::checkCompletionTags(snapshot::Reader& r) const {
  for (const auto& [value, slot] : index_) {
    const sim::EventTag& tag = flows_.find(slot)->completionTag;
    if (!tag.tagged()) continue;
    const sim::EventFactory* factory =
        sim_.factory(static_cast<sim::Component>(tag.component));
    if (factory == nullptr || !factory->onRestoredCompletion(tag)) {
      r.fail("flow completion tag (component " +
             std::to_string(tag.component) + ", kind " +
             std::to_string(tag.kind) + ") does not name live state");
      return false;
    }
  }
  return true;
}

}  // namespace st::net
