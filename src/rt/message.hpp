// Messages exchanged by processes. The paper distinguishes *computation
// messages* (generated by the application) from *system messages*
// (generated by the checkpointing protocol: request / reply / commit /
// abort, plus Chandy-Lamport markers for the baseline).
#pragma once

#include <memory>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"
#include "sim/time.hpp"
#include "util/types.hpp"

namespace mck::rt {

enum class MsgKind : std::uint8_t {
  kComputation,
  kRequest,  // checkpoint request
  kReply,    // weight-carrying reply to the initiator
  kCommit,   // second-phase commit
  kAbort,    // second-phase abort (failure handling, Section 3.6)
  kMarker,   // Chandy-Lamport marker (baseline)
  kControl,  // anything else protocol-specific
};

/// Number of MsgKind enumerators; sizes every per-kind counter array.
inline constexpr int kMsgKindCount = static_cast<int>(MsgKind::kControl) + 1;

// Trace records carry MsgKind as a raw `sub` byte; obs/trace.hpp mirrors
// it (obs must not depend on rt).
static_assert(static_cast<int>(MsgKind::kComputation) ==
                      obs::kRawMsgComputation &&
                  static_cast<int>(MsgKind::kRequest) == obs::kRawMsgRequest &&
                  static_cast<int>(MsgKind::kReply) == obs::kRawMsgReply &&
                  static_cast<int>(MsgKind::kCommit) == obs::kRawMsgCommit &&
                  static_cast<int>(MsgKind::kAbort) == obs::kRawMsgAbort &&
                  static_cast<int>(MsgKind::kMarker) == obs::kRawMsgMarker &&
                  static_cast<int>(MsgKind::kControl) == obs::kRawMsgControl &&
                  kMsgKindCount == obs::kRawMsgKindCount,
              "update the MsgKind mirror in obs/trace.hpp");

inline const char* to_string(MsgKind k) {
  switch (k) {
    case MsgKind::kComputation: return "computation";
    case MsgKind::kRequest: return "request";
    case MsgKind::kReply: return "reply";
    case MsgKind::kCommit: return "commit";
    case MsgKind::kAbort: return "abort";
    case MsgKind::kMarker: return "marker";
    case MsgKind::kControl: return "control";
  }
  return "?";
}

inline bool is_system(MsgKind k) { return k != MsgKind::kComputation; }

/// Identifies the concrete payload type of every message in the system —
/// the single source of truth for delivery dispatch and for the wire
/// codec's tag byte. Values 1-6 are the historical core wire tags, so
/// buffers produced by older builds still decode.
enum class PayloadTag : std::uint8_t {
  kNone = 0,
  // Cao-Singhal mutable-checkpoint payloads (src/core/payloads.hpp).
  kComp = 1,
  kRequest = 2,
  kReply = 3,
  kCommit = 4,
  kAbort = 5,
  kClear = 6,
  // Koo-Toueg blocking min-process baseline [19].
  kKtComp = 7,
  kKtRequest = 8,
  kKtReply = 9,
  kKtCommit = 10,
  // Elnozahy-Johnson-Zwaenepoel nonblocking all-process baseline [13].
  kEjComp = 11,
  kEjRequest = 12,
  kEjReply = 13,
  kEjCommit = 14,
  // Chandy-Lamport distributed snapshot baseline.
  kClMarker = 15,
  kClDone = 16,
  kClCommit = 17,
  // Lai-Yang coloring baseline [21].
  kLyComp = 18,
  kLyAnnounce = 19,
  kLyReply = 20,
  kLyCommit = 21,
  // csn-based simple/revised schemes (Section 5 comparison).
  kCsComp = 22,
  kCsRequest = 23,
};

/// Number of PayloadTag enumerators; sizes the codec registry.
inline constexpr int kPayloadTagCount =
    static_cast<int>(PayloadTag::kCsRequest) + 1;

/// Base class for protocol-specific message contents. Every concrete
/// payload carries its PayloadTag so the delivery path can dispatch with
/// a tag compare instead of RTTI; payloads are immutable after send so a
/// shared_ptr<const Payload> models "bits on the wire" cheaply.
struct Payload {
  virtual ~Payload() = default;

  PayloadTag tag() const { return tag_; }

 protected:
  explicit Payload(PayloadTag t) : tag_(t) {}

 private:
  PayloadTag tag_;
};

/// CRTP-free tagged base: `struct Foo final : TaggedPayload<PayloadTag::kFoo>`
/// gets a kTag constant (used by payload_as<> and the codec registry) and
/// a constructor that stamps the tag.
template <PayloadTag Tag>
struct TaggedPayload : Payload {
  static constexpr PayloadTag kTag = Tag;

 protected:
  TaggedPayload() : Payload(Tag) {}
};

struct Message {
  MessageId id = 0;
  MsgKind kind = MsgKind::kComputation;
  ProcessId src = kInvalidProcess;
  ProcessId dst = kInvalidProcess;
  std::uint64_t size_bytes = 0;
  sim::SimTime sent_at = 0;
  /// Per-(src,dst) channel sequence number, stamped by the transport to
  /// enforce the FIFO channel assumption of Section 2.1.
  std::uint64_t channel_seq = 0;
  std::shared_ptr<const Payload> payload;
  /// Wire-fidelity mode only: the encoded payload while the message is in
  /// flight (payload is null then). Broadcast copies share the buffer.
  std::shared_ptr<const std::vector<std::uint8_t>> wire;

  /// Tag-checked static downcast: returns nullptr unless the payload's
  /// dynamic type is exactly T (every payload type is final).
  template <typename T>
  const T* payload_as() const {
    static_assert(std::is_base_of_v<Payload, T>);
    const Payload* p = payload.get();
    if (p == nullptr || p->tag() != T::kTag) return nullptr;
    return static_cast<const T*>(p);
  }
};

}  // namespace mck::rt
