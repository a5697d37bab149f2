// Wire payloads of the mutable-checkpoint algorithm (Section 3.3).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/trigger.hpp"
#include "rt/message.hpp"
#include "util/assert.hpp"
#include "util/interval_set.hpp"
#include "util/small_vec.hpp"
#include "util/types.hpp"
#include "util/weight.hpp"

namespace mck::core {

/// Piggyback on every computation message: the sender's csn[self], plus
/// its trigger when it is inside a checkpointing process (cp_state = 1).
struct CompPayload final : rt::TaggedPayload<rt::PayloadTag::kComp> {
  Csn csn = 0;
  Trigger trigger;  // invalid (= NULL in the paper) when cp_state was 0
};

/// One slot of the MR structure carried by checkpoint requests: what the
/// request path collectively knows about P_k — the highest csn anyone on
/// the path expects from P_k, and whether a request has been sent to P_k.
struct MrEntry {
  Csn csn = 0;
  std::uint8_t requested = 0;  // the paper's MR[k].R
  bool operator==(const MrEntry&) const = default;

  bool is_default() const { return csn == 0 && requested == 0; }
};

/// The paper's MR array, stored sparsely: only the slots that differ from
/// MrEntry{0, 0} exist, sorted by pid. At n = 1M hosts the dense array is
/// 5 MB per request; the sparse form is proportional to the processes the
/// request wave has actually touched. get() returns the default entry for
/// absent pids, so readers see exactly the dense semantics.
class SparseMr {
 public:
  struct Slot {
    std::uint32_t pid = 0;
    MrEntry e;
    bool operator==(const Slot&) const = default;
  };

  /// A request's MR lives as long as the last request of its fan-out
  /// (RequestPayload::mr): inline up to 4 slots, heap beyond.
  using Storage = util::SmallVec<Slot, 4>;

  SparseMr() = default;

  MrEntry get(std::size_t pid) const {
    std::size_t k = lower_bound(static_cast<std::uint32_t>(pid));
    return (k < slots_.size() && slots_[k].pid == pid) ? slots_[k].e
                                                       : MrEntry{};
  }

  /// slot[pid] := e (removing the slot when e is the default).
  void put(std::size_t pid, MrEntry e) {
    const std::uint32_t p = static_cast<std::uint32_t>(pid);
    std::size_t k = lower_bound(p);
    if (k < slots_.size() && slots_[k].pid == p) {
      if (e.is_default()) {
        slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        slots_[k].e = e;
      }
    } else if (!e.is_default()) {
      slots_.insert(slots_.begin() + static_cast<std::ptrdiff_t>(k),
                    Slot{p, e});
    }
  }

  /// slot[pid].csn := max(slot[pid].csn, csn) — the merge direction MR
  /// knowledge always moves in.
  void raise_csn(std::size_t pid, Csn csn) {
    if (csn == 0) return;
    MrEntry e = get(pid);
    if (csn > e.csn) {
      e.csn = csn;
      put(pid, e);
    }
  }

  void mark_requested(std::size_t pid) {
    MrEntry e = get(pid);
    if (e.requested == 0) {
      e.requested = 1;
      put(pid, e);
    }
  }

  /// Calls fn(pid, MrEntry) for every explicit slot, ascending by pid.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) fn(static_cast<std::size_t>(s.pid), s.e);
  }

  std::size_t active() const { return slots_.size(); }
  const Storage& slots() const { return slots_; }
  bool operator==(const SparseMr&) const = default;

  /// Codec build path: slots must arrive in strictly ascending pid order
  /// and non-default. Returns false (set untouched) on malformed input.
  bool append(std::uint32_t pid, MrEntry e) {
    if (e.is_default()) return false;
    if (!slots_.empty() && pid <= slots_.back().pid) return false;
    slots_.push_back(Slot{pid, e});
    return true;
  }

 private:
  std::size_t lower_bound(std::uint32_t pid) const {
    std::size_t lo = 0, hi = slots_.size();
    while (lo < hi) {
      std::size_t mid = (lo + hi) / 2;
      if (slots_[mid].pid < pid) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  Storage slots_;
};

struct RequestPayload final : rt::TaggedPayload<rt::PayloadTag::kRequest> {
  /// Merged knowledge along the request path. Immutable once sent: every
  /// request of one prop_cp fan-out points at the same MR. Never null in
  /// a sent or decoded request.
  std::shared_ptr<const SparseMr> mr;
  Csn sender_csn = 0;        // csn_j[j] of the request sender (recv_csn)
  Trigger trigger;           // msg_trigger: the initiation this belongs to
  Csn req_csn = 0;           // csn_j[i]: what the sender expects of us
  util::Weight weight;       // portion of the initiator's weight
};

struct ReplyPayload final : rt::TaggedPayload<rt::PayloadTag::kReply> {
  Trigger trigger;
  util::Weight weight;
  bool refused = false;  // concurrent-initiation refusal (Section 3.5)

  /// Failed processes observed while propagating requests (Section 3.6:
  /// "some processes that try to communicate with it get to know of the
  /// failure"). Weight is returned normally; the initiator decides.
  std::vector<ProcessId> failed_observed;

  /// The replier's dependency set at its checkpoint, reported so the
  /// initiator can compute the Kim-Park partial-commit abort closure.
  /// Empty (size 0) under FailureMode::kAbortAll.
  util::IntervalSet deps;
};

struct CommitPayload final : rt::TaggedPayload<rt::PayloadTag::kCommit> {
  Trigger trigger;

  /// Kim-Park partial commit [18]: processes in this set must abort their
  /// tentative checkpoints (they transitively depend on a failed
  /// process); everybody else commits. Empty = plain full commit.
  util::IntervalSet abort_set;
};

struct AbortPayload final : rt::TaggedPayload<rt::PayloadTag::kAbort> {
  Trigger trigger;
};

/// Update-approach (Section 3.3.5) cp_state-clearing notification, sent
/// along the "history of the processes to which it has sent messages".
struct ClearPayload final : rt::TaggedPayload<rt::PayloadTag::kClear> {
  Trigger trigger;
};

}  // namespace mck::core
