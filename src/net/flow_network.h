// Fluid bandwidth model with connection-count fair sharing.
//
// Every data transfer (video chunk, prefetch, server fallback) is a flow
// between two endpoints. A flow's rate is
//
//     rate(f) = min(upload(src) / nUp(src), download(dst) / nDown(dst))
//
// i.e. each endpoint splits its capacity evenly across its active flows.
// Rates change only when a flow starts or ends, so the event-driven
// integration is exact between membership changes.
//
// This is the mechanism that makes the origin server's 5 Mbps uplink
// (Table I) saturate under PA-VoD and produce the paper's startup-delay
// blow-up — no special-case queueing code needed.
//
// Processor-sharing groups (DESIGN.md §12): every active flow runs at the
// share of its binding side — its source's upload group when
// upload/nUp <= download/nDown (ties go to the upload side), otherwise its
// destination's download group — and every member of one group runs at the
// same rate. A group keeps a virtual clock V that advances at its share, so
// a member's finish tag F = V(join) + bytes never changes while it stays,
// its remaining bytes are F - V(now), and members finish in tag order. One
// completion event per group covers its head. A start or finish costs
// O(log n) for the flow that moves plus one completion re-time per group
// whose share or head changed; a flow whose binding side flips carries
// F - V(now) bytes into its other group.
//
// Mutations update membership immediately and mark their endpoints dirty;
// shares, binding flips and completion re-times are settled once when the
// enclosing mutation batch commits. Every public mutation is its own
// implicit batch; churn events that add/remove many flows at once (a node
// departure, a promotion wave) wrap the calls in a MutationBatch. Batches
// never span simulated time.
//
// Overload control (all off by default; a run with every knob at its default
// is bitwise-identical to a build without this layer):
//
//  * Flow classes order playback > server-fallback > prefetch. With a
//    playback floor configured, activating a flow that would run below the
//    floor pauses lower-class flows at its bottleneck endpoint; paused flows
//    resume (highest class first, FIFO within a class) when capacity frees
//    up and no higher-class flow would be pushed back under the floor.
//  * An admission policy on an endpoint with an upload-concurrency limit
//    sheds work instead of queueing it blindly: prefetch-class flows are
//    rejected whenever they would have to queue, any class is rejected when
//    the wait queue is at its cap, and a flow with a deadline is rejected
//    when the backlog ahead of it could not drain in time.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/slot_pool.h"
#include "util/strong_id.h"

namespace st::net {

struct EndpointCapacity {
  double uploadBps = 0.0;    // bits per second
  double downloadBps = 0.0;  // bits per second
};

// Priority classes, highest first. Lower enum value = higher priority.
enum class FlowClass : std::uint8_t {
  kPlayback = 0,        // foreground watch fed by a peer
  kServerFallback = 1,  // foreground watch fed by the origin server
  kPrefetch = 2,        // speculative first-chunk prefetch
};
inline constexpr std::size_t kFlowClassCount = 3;

// Out-of-band flow lifecycle notifications. Observers are plain interfaces
// (no captured state inside FlowNetwork), so a network full of live flows
// snapshots without an escape hatch; they are re-registered by experiment
// setup, never serialized. Within one batch, abort notifications fire in
// ascending flow-id order; shed notifications fire immediately in call
// order. Completion is additionally (and primarily) signalled through the
// checkpointable completion tag — onFlowCompleted exists for tests and
// ad-hoc instrumentation.
class FlowObserver {
 public:
  virtual ~FlowObserver() = default;
  // The source's admission policy refused the flow (startFlow returns
  // invalid after this fires).
  virtual void onFlowShed(EndpointId /*src*/, EndpointId /*dst*/,
                          FlowClass /*flowClass*/) {}
  // dropEndpointFlows aborted an *upload* of the dropped endpoint: the
  // remote downloader lost its provider mid-transfer and `bytesDone` bytes
  // had been delivered. `completionTag` is the flow's own (it never fires
  // now), so its owner is found without a map of its own. Fired after the
  // doomed flows are unlinked, so starting replacement flows from inside
  // the callback is safe (they join the same batch).
  virtual void onFlowAborted(FlowId /*id*/, std::uint64_t /*bytesDone*/,
                             const sim::EventTag& /*completionTag*/) {}
  // The flow's last byte arrived (fires before the completion tag).
  virtual void onFlowCompleted(FlowId /*id*/) {}
};

// Per-flow start options (namespace scope rather than nested so it can serve
// as a `= {}` default argument — a nested class's member initializers are
// parsed in the enclosing class's complete-class context, which GCC rejects
// for default arguments; see GCC PR c++/96645).
struct FlowOptions {
  FlowClass flowClass = FlowClass::kPlayback;
  // Admission deadline (duration from now): if the estimated wait behind
  // the source's queued/active backlog exceeds it, the flow is shed at
  // start. 0 = patient (never shed by deadline).
  sim::SimTime deadline = 0;
  // Checkpointable completion notification: when tagged, the last byte's
  // arrival invokes the tag through its component factory.
  sim::EventTag completionTag{};
};

class FlowNetwork : public sim::EventFactory {
 public:
  // Tag kinds for Component::kFlow events (snapshot format; append only).
  // Kind 0, a per-flow finish event (format v2), is retired: a pending one
  // fails the restore.
  static constexpr std::uint8_t kGroupEvent = 1;  // a = endpoint, b = side

  using FlowOptions = net::FlowOptions;

  // Admission policy for an endpoint with an upload concurrency limit.
  // Inactive by default; see the header comment for the shed rules.
  struct AdmissionPolicy {
    std::size_t queueCap = 0;        // max queued uploads; 0 = unbounded
    bool shedPrefetch = true;        // reject prefetch-class flows that queue
  };

  explicit FlowNetwork(sim::Simulator& simulator) : sim_(simulator) {
    sim_.registerFactory(sim::Component::kFlow, this);
  }
  ~FlowNetwork() override {
    if (sim_.factory(sim::Component::kFlow) == this) {
      sim_.registerFactory(sim::Component::kFlow, nullptr);
    }
  }
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  // EventFactory for Component::kFlow — internal completion events.
  [[nodiscard]] sim::Callback rebuild(const sim::EventTag& tag) override;
  [[nodiscard]] bool onRestored(const sim::EventTag& tag,
                                sim::EventHandle handle) override;

  // Registers endpoint `id` (ids must be dense, assigned by the caller).
  // Its groups' completion events execute under `ownerKey`, the community
  // key of the endpoint (DESIGN.md §13), whichever event re-times them.
  void addEndpoint(EndpointId id, EndpointCapacity capacity,
                   std::uint32_t ownerKey = 0);
  [[nodiscard]] bool hasEndpoint(EndpointId id) const;
  [[nodiscard]] const EndpointCapacity& capacity(EndpointId id) const;

  // Caps the number of *concurrently active* uploads at `endpoint`; excess
  // startFlow() calls are queued FIFO and promoted as slots free up. Models
  // a server that admits a bounded number of streams instead of splitting
  // its uplink into arbitrarily thin slivers — and keeps the fair-share
  // refresh cost bounded under saturation. Default: unlimited.
  void setUploadConcurrencyLimit(EndpointId endpoint, std::size_t limit);
  [[nodiscard]] std::size_t queuedUploads(EndpointId endpoint) const;

  // Minimum rate (bps) a newly activated flow must reach before lower-class
  // flows at its bottleneck endpoint are paused to make room. 0 disables
  // priorities entirely (the default; behavior identical to the seed model).
  void setPlaybackFloor(double floorBps);

  // Installs deadline-aware admission control at `endpoint` (meaningful only
  // together with an upload concurrency limit; flows that would be admitted
  // to a free slot are never shed).
  void setAdmissionPolicy(EndpointId endpoint, AdmissionPolicy policy);

  // Observer registration. Observers are notified in registration order and
  // must outlive the network (or remove themselves first).
  void addObserver(FlowObserver* observer);
  void removeObserver(FlowObserver* observer);

  // --- mutation batches -------------------------------------------------------
  // Between beginBatch() and the matching applyBatch(), mutations update
  // flow membership immediately but defer the new shares, binding flips and
  // completion re-times; the outermost applyBatch() drains the
  // dirty-endpoint set once. Batches nest. Rate queries (flowRateBps)
  // made mid-batch see the pre-batch shares, and a flow activated in the
  // open batch reports 0 until it joins its group at commit; membership
  // queries (counts, paused/queued flags) are always current. Batches must
  // not span simulated time.
  void beginBatch();
  void applyBatch();

  // RAII batch scope for multi-mutation churn events.
  class MutationBatch {
   public:
    explicit MutationBatch(FlowNetwork& network) : network_(network) {
      network_.beginBatch();
    }
    ~MutationBatch() { network_.applyBatch(); }
    MutationBatch(const MutationBatch&) = delete;
    MutationBatch& operator=(const MutationBatch&) = delete;

   private:
    FlowNetwork& network_;
  };

  // Starts a transfer of `bytes` from src to dst. Returns a handle usable
  // with cancelFlow() — or FlowId::invalid() when the source's admission
  // policy shed the flow (observers see onFlowShed; the completion tag is
  // dropped and will never fire). Completion is signalled through
  // options.completionTag and FlowObserver::onFlowCompleted.
  FlowId startFlow(EndpointId src, EndpointId dst, std::uint64_t bytes,
                   const FlowOptions& options = {});

  // Attaches (or replaces) the completion tag of a live flow. Needed when
  // the tag must reference the flow id startFlow just assigned (prefetch
  // completions); flows never complete synchronously, so setting the tag
  // right after startFlow is race-free.
  void setCompletionTag(FlowId id, const sim::EventTag& tag);

  // Aborts a transfer (e.g. provider churned away). The completion tag does
  // not fire. Safe to call with an already-finished flow id (no-op).
  void cancelFlow(FlowId id);

  // Aborts every flow in which `endpoint` participates (node departure),
  // including flows still queued at another source whose destination is the
  // departing endpoint. Observers receive onFlowAborted — in ascending
  // flow-id order — for each cancelled *active or paused* flow the endpoint
  // was uploading: the remote downloader lost its provider and must
  // re-request elsewhere. The departed node's own downloads (and anything
  // still queued) just die silently. Runs as one batch: every surviving
  // flow at a touched endpoint settles once, however many flows died.
  void dropEndpointFlows(EndpointId endpoint);

  [[nodiscard]] bool flowActive(FlowId id) const;
  // Instantaneous rate in bits per second (0 for finished flows).
  [[nodiscard]] double flowRateBps(FlowId id) const;
  [[nodiscard]] bool flowPaused(FlowId id) const;

  [[nodiscard]] std::size_t activeFlows() const { return flows_.size(); }
  [[nodiscard]] std::size_t activeUploads(EndpointId id) const;
  [[nodiscard]] std::size_t activeDownloads(EndpointId id) const;
  [[nodiscard]] std::size_t pausedUploads(EndpointId id) const;

  // Cumulative bytes fully delivered out of / into an endpoint.
  [[nodiscard]] std::uint64_t bytesUploaded(EndpointId id) const;
  [[nodiscard]] std::uint64_t bytesDownloaded(EndpointId id) const;
  // Flows shed by `endpoint`'s admission policy since the start of the run.
  [[nodiscard]] std::uint64_t flowsShed(EndpointId id) const;

  // Diagnostic: group completion re-times (scheduled, moved or cancelled)
  // performed by batch drains since construction, one per group whose
  // share or head changed. The dirty-set regression tests assert on
  // deltas; not serialized (resets on restore), not registered as a metric.
  [[nodiscard]] std::uint64_t rateRecomputations() const {
    return rateRecomputations_;
  }

  // Checkpoint/restore of the mutable data plane: every live flow (sorted by
  // id for a canonical byte stream) with its group placement, finish tag,
  // sequence stamp and completion tag, each endpoint's two group clocks and
  // transfer tallies, and the id and sequence allocators. Nothing about
  // membership is saved: loadState rebuilds the per-endpoint lists in the
  // order their only appends give them (queued flows by id, active flows
  // by join sequence, paused flows by pause sequence), then the group
  // heaps from the finish tags and the shares from the list sizes.
  // Static configuration (capacities, owner keys, limits, policies, floor,
  // observers) is re-applied by the experiment setup before restore.
  // Completion EventHandles are re-stored by onRestored() while the
  // simulator queue loads (after this), so loadState leaves them invalid.
  bool saveState(snapshot::Writer& w, std::string* error) const;
  bool loadState(snapshot::Reader& r);
  // Once every section is loaded: each tagged flow's completion tag must
  // pass its component's EventFactory::onRestoredCompletion, or `r` fails
  // naming the component and kind. Untagged completions stay legal.
  bool checkCompletionTags(snapshot::Reader& r) const;

 private:
  struct Flow;
  // Internal generation-stamped arena handle (util::SlotPool). Membership
  // lists and group heaps store these, so the drain is index arithmetic +
  // one generation compare per flow — no hashing. Public FlowIds map to
  // slots through index_ exactly once per public-API call. Removals keep
  // every list's order, which loadState relies on.
  using Slot = SlotPool<Flow>::Id;
  // Bytes of work in integer units of 1/1024 byte. Group clocks and finish
  // tags are integers, so F - V is exact and a flow that flips between
  // groups carries its remaining bytes without rounding.
  using Work = std::int64_t;

  // Where an active flow runs. kPending: activated in the open batch, joins
  // its group at commit. kNone: queued or paused.
  enum class Place : std::uint8_t { kNone, kUpload, kDownload, kPending };
  // A group's side; the index of EndpointState::groups.
  static constexpr std::size_t kUp = 0;
  static constexpr std::size_t kDown = 1;

  struct Flow {
    FlowId id;                     // public id (snapshot-stable)
    EndpointId src;
    EndpointId dst;
    // In a group: the finish tag F on the group's clock. Otherwise the
    // remaining work.
    Work work = 0;
    // Stamped from nextSeq_ on activation (ties between equal finish tags
    // go to the earlier) and again on a pause (a paused flow is in no heap,
    // and the stamp orders the paused lists).
    std::uint64_t seq = 0;
    std::uint64_t totalBytes = 0;
    std::uint32_t heapPos = 0;     // index in the group's heap
    Place place = Place::kNone;
    FlowClass flowClass = FlowClass::kPlayback;
    bool queued = false;           // waiting for an upload slot at src
    bool paused = false;           // preempted by a higher-class flow
    sim::EventTag completionTag{};  // serializable completion notification
  };

  // One entry of a group's min-heap, ordered by (finish, seq).
  struct Member {
    Work finish;
    std::uint64_t seq;
    Slot slot;
    bool operator<(const Member& other) const {
      return finish != other.finish ? finish < other.finish : seq < other.seq;
    }
  };

  // The flows bound by one endpoint side's share. The virtual clock is
  // V(t) = v0 + the bytes share s0 delivers over [t0, t]. A share change is
  // recorded as pending (s1 from t1) and folded into (v0, t0, s0) the next
  // time the clock is set at a later instant, so V depends only on the
  // share in effect at the end of each instant, however many batches
  // changed it within the instant.
  struct Group {
    Work v0 = 0;
    sim::SimTime t0 = 0;
    double s0 = 0.0;
    double s1 = 0.0;        // the current share (bps); == s0 unless pending
    sim::SimTime t1 = 0;
    std::vector<Member> heap;
    sim::EventHandle completion;  // fires when the head's tag is reached
    bool retimeQueued = false;    // in retimeList_ (transient)
  };

  struct EndpointState {
    EndpointCapacity capacity;
    std::uint32_t ownerKey = 0;
    std::vector<Slot> uploads;    // insertion order => deterministic
    std::vector<Slot> downloads;
    Group groups[2];              // [kUp], [kDown]
    std::size_t uploadLimit = std::numeric_limits<std::size_t>::max();
    std::deque<Slot> uploadQueue;
    // Flows queued at *another* source that will download into this
    // endpoint; tracked so dropEndpointFlows can purge them (a queued flow
    // is in nobody's uploads/downloads lists yet).
    std::vector<Slot> queuedInbound;
    // Preempted flows, in pause order (pausedUploads at src mirrors
    // pausedDownloads at dst).
    std::vector<Slot> pausedUploads;
    std::vector<Slot> pausedDownloads;
    AdmissionPolicy admission;
    bool admissionEnabled = false;
    bool dirty = false;           // in dirtyList_ (transient)
    std::uint64_t bytesUploaded = 0;
    std::uint64_t bytesDownloaded = 0;
    std::uint64_t flowsShed = 0;
  };

  [[nodiscard]] Slot slotOf(FlowId id) const;
  [[nodiscard]] double fairRate(const Flow& flow) const;
  // The share one side of `state` gives each of its active flows (0 when
  // it has none).
  [[nodiscard]] static double sideShare(const EndpointState& state,
                                        std::size_t side);
  [[nodiscard]] Group& groupOf(const Flow& flow);
  [[nodiscard]] const Group& groupOf(const Flow& flow) const;
  // The group side the flow's binding share selects.
  [[nodiscard]] Place bindingSide(const Flow& flow) const;
  // Where the segment run by the current share s1 starts: (V, time).
  [[nodiscard]] static std::pair<Work, sim::SimTime> segmentStart(
      const Group& group);
  [[nodiscard]] static Work clockAt(const Group& group, sim::SimTime t);
  static void setShare(Group& group, double share, sim::SimTime now);
  // In an upload or a download group (not queued, paused or pending).
  [[nodiscard]] static bool grouped(const Flow& flow);
  // Remaining work of a live flow, in units (may dip below 0 by rounding
  // when its completion is due).
  [[nodiscard]] Work remainingWork(const Flow& flow) const;
  [[nodiscard]] double remainingBytes(const Flow& flow) const;
  // Heap maintenance; join and leave queue the group's completion re-time
  // when its head changes. placeMember puts `member` at `pos` (a hole) and
  // sifts it up or down.
  void join(Slot slot, Flow& flow, Place side, Work remaining);
  void leave(Flow& flow);
  void placeMember(Group& group, std::size_t pos, const Member& member);
  void queueRetime(EndpointId endpoint, std::size_t side);
  void retime(EndpointId endpoint, std::size_t side);
  // Queues `endpoint` for a share refresh at batch commit. Every
  // membership change marks both affected endpoints.
  void markDirty(EndpointId endpoint);
  // New shares at the dirty endpoints, binding flips at the sides whose
  // share moved, group joins for flows activated in the batch, then one
  // completion re-time per group whose share or head changed.
  void drain();
  // The head of `endpoint`'s `side` group finished (its completion event).
  void complete(EndpointId endpoint, std::size_t side);
  // Unlinks the flow everywhere, credits tallies when `completed`, releases
  // its slot, and returns the record (for post-batch notification). Discards
  // the completion tag itself on abandonment; invoking it on completion is
  // the caller's job, after the batch commits.
  Flow removeFlow(Slot slot, bool completed);
  // Makes a queued or paused flow active (slot freed at its source).
  void activate(Slot slot, Flow& flow);
  // Promotes queued uploads at `endpoint` while slots are available.
  void promoteQueued(EndpointId endpoint);
  // True when the source's admission policy rejects this flow now.
  [[nodiscard]] bool shouldShed(EndpointId src, FlowClass flowClass,
                                sim::SimTime deadline) const;
  // Seconds the backlog (active remaining + queued bytes) at `endpoint`
  // needs to drain at full uplink rate.
  [[nodiscard]] double estimatedBacklogSeconds(
      const EndpointState& state) const;
  // Pauses lower-class flows at the bottleneck endpoint of `flow` until its
  // fair share reaches the floor (or no victims remain). No-op with floor 0.
  void enforceFloorFor(Flow& flow);
  void pauseFlow(Slot slot, Flow& flow);
  // Resumes paused flows touching `endpoint` while doing so pushes no
  // higher-class flow below the floor.
  void resumePaused(EndpointId endpoint);
  [[nodiscard]] bool canResume(const Flow& flow) const;

  sim::Simulator& sim_;
  std::vector<EndpointState> endpoints_;
  // Flow records live in a generation-stamped arena; the hash map exists
  // only at the public-id boundary (one lookup per API call, none inside
  // the drain loops).
  SlotPool<Flow> flows_;
  std::unordered_map<std::uint32_t, Slot> index_;  // public id -> slot
  std::uint32_t nextFlowId_ = 1;
  std::uint64_t nextSeq_ = 0;
  double floorBps_ = 0.0;
  std::vector<FlowObserver*> observers_;

  // Batch state; the lists are reused across drains so steady-state commits
  // allocate nothing.
  int batchDepth_ = 0;
  std::vector<EndpointId> dirtyList_;      // each dirty endpoint once
  std::vector<Slot> pending_;              // activated in the open batch
  // Groups whose share or head changed: (endpoint, side), first mark first.
  std::vector<std::pair<EndpointId, std::size_t>> retimeList_;
  std::vector<std::uint8_t> rescan_;       // scratch: per dirty endpoint
  std::uint64_t rateRecomputations_ = 0;
};

}  // namespace st::net
