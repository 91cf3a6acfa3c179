// Serializable event identities for checkpoint/restore.
//
// A deterministic snapshot must persist the pending event queue, but the
// queue holds type-erased closures that cannot be written to disk. The way
// out is to give every protocol event a small POD identity — an EventTag —
// and a per-component EventFactory that turns a tag back into the closure.
// Crucially the factory is the *only* producer of scheduled closures: call
// sites hand the simulator a tag, the simulator asks the factory for the
// callback immediately (scheduleTagged), and restore replays the exact same
// rebuild path from the serialized tags. Runtime and restore share one code
// path, so they cannot drift apart.
//
// Tags are 40-byte PODs: a component id (which factory), a kind (which
// event within the component), a stage (message-delivery wrapper state, see
// SystemContext::wrapStage), and five argument words. Components pack their
// own argument meanings per kind; anything that does not fit (vectors,
// lists) lives in the SystemContext payload pool and is referenced from the
// tag by pool id.
#pragma once

#include <cstdint>

#include "sim/callback.h"
#include "sim/time.h"

namespace st::sim {

class EventHandle;

// Component ids — one factory per id, registered on the Simulator. Values
// are part of the snapshot format; append only.
enum class Component : std::uint8_t {
  kNone = 0,     // untagged event (tests, ad-hoc lambdas) — not snapshotable
  kSession = 1,  // SessionDriver logins / playback completions
  kSocialTube = 2,
  kNetTube = 3,
  kPaVod = 4,
  kTransfer = 5,  // TransferManager timeouts / flow completions
  kFlow = 6,      // FlowNetwork internal finish events
  kFault = 7,     // fault::Injector activate / deactivate
  kInvariants = 8,
  kReleases = 9,
  kRunner = 10,   // exp::Run: server-state sampler, --snapshot-out save
  kRecovery = 11, // fault::RecoveryManager reconciliation rounds
};
inline constexpr std::size_t kComponentCount = 12;

// Delivery stages for messages routed through SystemContext send helpers.
// kDirect events run their action as-is; the other stages wrap the action
// in the online/server-processing checks the send helpers used to capture
// in closures.
enum class Stage : std::uint16_t {
  kDirect = 0,       // plain timer / local event
  kUserDeliver = 1,  // run only if the receiver (tag.a32) is still online
  kServerArrive = 2, // at the server NIC: queue serverProcessing, then run
  kServerRun = 3,    // server-side action after the processing delay
  kFromServer = 4,   // server reply: run only if receiver still online
};

struct EventTag {
  std::uint8_t component = 0;  // Component
  std::uint8_t kind = 0;       // component-private event kind
  std::uint16_t stage = 0;     // Stage
  std::uint32_t a32 = 0;       // stage receiver / small argument
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;

  [[nodiscard]] bool tagged() const {
    return component != static_cast<std::uint8_t>(Component::kNone);
  }
  bool operator==(const EventTag&) const = default;
};
static_assert(sizeof(EventTag) == 40);

inline EventTag makeTag(Component component, std::uint8_t kind,
                        std::uint64_t a = 0, std::uint64_t b = 0,
                        std::uint64_t c = 0, std::uint64_t d = 0) {
  EventTag tag;
  tag.component = static_cast<std::uint8_t>(component);
  tag.kind = kind;
  tag.a = a;
  tag.b = b;
  tag.c = c;
  tag.d = d;
  return tag;
}

// Tag words: two 32-bit ids share one 64-bit argument word as lo | hi << 32.
inline constexpr std::uint64_t pack(std::uint32_t lo, std::uint32_t hi) {
  return static_cast<std::uint64_t>(lo) |
         (static_cast<std::uint64_t>(hi) << 32);
}
inline constexpr std::uint32_t lo32(std::uint64_t word) {
  return static_cast<std::uint32_t>(word);
}
inline constexpr std::uint32_t hi32(std::uint64_t word) {
  return static_cast<std::uint32_t>(word >> 32);
}

// Per-component closure factory. rebuild() is called at schedule time *and*
// at restore time; it must be a pure function of the tag plus component
// state. discard() fires when a tagged message is lost in the network
// before delivery — components free pool payloads the tag references.
// onRestored() fires for each event loaded from a snapshot so components
// can re-store the EventHandle (timeouts, deadlines, probe timers) that the
// original schedule call returned. A snapshot is outside input: rebuild()
// may only capture tag words, and onRestored() range-checks every word the
// event will index with, returning false when the tag does not name live
// state (the restore then fails instead of writing out of bounds).
// onRestoredCompletion() is the same check for a tag that a restored record
// holds instead of the queue (a flow's completion tag, invoked when its last
// byte lands); it runs once every section is loaded, and components that
// never hand out such tags refuse them all.
class EventFactory {
 public:
  virtual ~EventFactory() = default;
  [[nodiscard]] virtual Callback rebuild(const EventTag& tag) = 0;
  virtual void discard(const EventTag& tag) { (void)tag; }
  [[nodiscard]] virtual bool onRestored(const EventTag& tag,
                                        EventHandle handle);
  [[nodiscard]] virtual bool onRestoredCompletion(const EventTag& tag) const {
    (void)tag;
    return false;
  }
};

}  // namespace st::sim
