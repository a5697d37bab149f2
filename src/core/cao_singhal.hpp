// The paper's contribution: a nonblocking, min-process coordinated
// checkpointing algorithm based on mutable checkpoints (Section 3).
//
// Faithful transcription of the Section 3.3 pseudocode with the following
// documented interpretations:
//
//  * prop_cp send condition. The pseudocode's
//      (R_i[k] = 1) ∧ (max(MR[k].csn, csn_i[k]) ≠ MR[k].csn)
//    never fires on the very first initiation (all csn are 0), which
//    contradicts both the prose of Section 3.3.2 and the example of
//    Section 3.4. We implement the prose: send a request to P_k unless MR
//    already records that someone sent P_k a request with
//    req_csn >= csn_i[k] (i.e. skip iff MR[k].requested ∧
//    MR[k].csn >= csn_i[k]).
//
//  * CP record. The pseudocode keeps one mutable checkpoint, but the
//    paper's own example (Fig. 3: P1 holds C1,1 and C1,2 simultaneously)
//    requires several; we keep a stack. Promoting a mutable consumes the
//    older entries (their dependencies are part of the promoted state and
//    are propagated); discarding one merges its saved R/sent back, exactly
//    the pseudocode's "sent := sent ∪ CP.sent; R := R ∪ CP.R".
//
//  * Tentative checkpoints must reach stable storage (a 512 KB transfer on
//    the wireless medium) before the reply is sent; the process does NOT
//    block meanwhile — this is the paper's precopy discussion (5.2).
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "core/payloads.hpp"
#include "core/trigger.hpp"
#include "rt/protocol.hpp"
#include "util/interval_set.hpp"
#include "util/sparse_csn.hpp"

namespace mck::core {

enum class CommitMode {
  kBroadcast,  // Section 3.3.4: broadcast commit to all processes
  kUpdate,     // Section 3.3.5 / [6]: commit to repliers + clear chains
  kHybrid,     // counter-based choice between the two (kHybridThreshold)
};

/// Hybrid commit mode: broadcast when more than this many processes
/// replied, commit to the repliers otherwise.
inline constexpr std::size_t kHybridThreshold = 4;

enum class FailureMode {
  /// Section 3.6, simplest approach: any failure aborts the whole
  /// checkpointing (the Koo-Toueg behaviour).
  kAbortAll,
  /// Kim-Park [18], the approach the paper prefers: the initiator and
  /// the processes that transitively depend on the failed process abort;
  /// everyone else commits, advancing their part of the recovery line.
  kPartialCommit,
};

struct CaoSinghalOptions {
  /// MR-based request filtering (Section 3.3.2). Off = propagate to every
  /// dependency like Koo-Toueg, for the ablation bench.
  bool mr_filter = true;

  /// req_csn filtering (Section 3.1.3 / Fig. 4): skip the checkpoint when
  /// old_csn > req_csn. Off for the ablation bench.
  bool req_csn_filter = true;

  CommitMode commit_mode = CommitMode::kBroadcast;

  /// Section 3.6 safety net: if the initiator has not reached a decision
  /// within this budget (a participant died mid-coordination and its
  /// reply will never come), it aborts (or partial-commits). 0 disables.
  sim::SimTime decision_timeout = 0;

  /// What to do when a failure is detected during checkpointing.
  FailureMode failure_mode = FailureMode::kAbortAll;
};

/// The MR every request of one prop_cp fan-out carries: slot k is
/// {max(mr_in[k].csn, dep_csn[k]), mr_in[k].R | deps[k]}. Built in one
/// ascending merge of the three inputs (dep_csn through for_each, so
/// either of its representations), appending only the slots that differ
/// from the default.
SparseMr request_mr(const SparseMr& mr_in, const util::SparseCsnMap& dep_csn,
                    const util::IntervalSet& deps);

class CaoSinghalProtocol final : public rt::CheckpointProtocol {
 public:
  explicit CaoSinghalProtocol(CaoSinghalOptions opts = {});

  /// Must be called once after bind(): sizes the csn / R vectors.
  void start();

  // ---- application surface -------------------------------------------
  void initiate() override;
  bool in_checkpointing() const override { return cp_state_; }

  /// True while this process has an uncommitted tentative checkpoint or
  /// is an active initiator (used by the harness to serialize
  /// initiations the way the paper's evaluation does).
  bool coordination_active() const override {
    return active_initiator_ || !pending_.empty();
  }

  // ---- introspection for tests and examples ---------------------------
  Csn csn(ProcessId p) const { return csn_.get(static_cast<std::size_t>(p)); }
  Csn own_csn() const { return csn(self()); }
  Csn old_csn() const { return old_csn_; }
  bool sent_flag() const { return sent_; }
  bool cp_state() const { return cp_state_; }
  const util::IntervalSet& dependency_vector() const { return R_; }
  const Trigger& own_trigger() const { return own_trigger_; }
  std::size_t mutable_count() const { return mutables_.size(); }

  /// Fired when this process (as initiator) commits or aborts. Lives in
  /// the lazily-allocated initiator block; assigning through this
  /// accessor materializes it.
  std::function<void(const Trigger&, bool committed)>& on_initiation_done() {
    return ist().on_initiation_done;
  }

  /// Section 2.2: deposits a disconnect_checkpoint at the local MSS just
  /// before the MH disconnects (one checkpoint transfer over the air).
  /// Call before CellularTransport::disconnect().
  void on_disconnect();

  /// Section 2.2 reconnect handshake (buffered messages are replayed by
  /// the transport; dependency state is already up to date because the
  /// protocol instance acted at the MSS while disconnected).
  void on_reconnect() {}

  /// Section 3.6: "If the failed process is the coordinator and the
  /// failure occurred before the process sent out commit or abort
  /// messages, on restarting after failure, it broadcasts an abort
  /// corresponding to its checkpoint initiation."
  void on_restart() {
    if (active_initiator_) initiator_abort();
  }

 protected:
  std::shared_ptr<const rt::Payload> computation_payload(
      ProcessId dst) override;
  void handle_computation(const rt::Message& m) override;
  void handle_system(const rt::Message& m) override;

 private:
  struct MutableRec {
    ckpt::CkptRef ref = ckpt::kNoCkpt;
    Trigger trigger;
    util::IntervalSet saved_R;
    bool saved_sent = false;
  };

  struct PendingTentative {
    ckpt::CkptRef ref = ckpt::kNoCkpt;
    Trigger trigger;
    util::IntervalSet saved_R;  // for abort restoration
    bool saved_sent = false;
    Csn saved_old_csn = 0;
  };

  // Pseudocode subroutines.
  util::Weight prop_cp(const util::IntervalSet& deps, const SparseMr& mr_in,
                       const Trigger& trigger, util::Weight weight);
  void take_tentative_and_propagate(const Trigger& trigger,
                                    const SparseMr& mr, util::Weight weight,
                                    bool as_initiator);
  void promote_mutable(std::size_t idx, const SparseMr& mr,
                       util::Weight weight);
  void take_mutable(const Trigger& trigger);
  void send_reply(const Trigger& trigger, util::Weight weight, bool refused);

  void handle_request(const rt::Message& m, const RequestPayload& p);
  void handle_reply(const rt::Message& m, const ReplyPayload& p);
  void handle_commit(const Trigger& trigger,
                     const util::IntervalSet* abort_set = nullptr);
  void handle_abort(const Trigger& trigger);
  void handle_clear(const Trigger& trigger, bool is_commit,
                    const util::IntervalSet* abort_set = nullptr);

  void initiator_decide_commit();
  void initiator_abort();
  void bank_local_weight(const Trigger& t, util::Weight w);

  /// Zombie-tentative reaping: if the initiator's commit/abort never
  /// arrives (it failed and its termination broadcast was lost), the
  /// participant aborts its pending tentative locally after twice the
  /// decision timeout — strictly after the initiator itself must have
  /// decided, so reaping can never race a commit.
  void schedule_pending_reap(const Trigger& trigger);

  /// Union of R_ with every saved mutable-checkpoint R (the proof's
  /// "R_i should be CP_i.R if there is a mutable checkpoint").
  util::IntervalSet effective_R() const;
  bool effective_sent() const;

  /// Discards mutables matching `trigger`; merge_back restores their
  /// saved R/sent into the current interval.
  void discard_mutables_matching(const Trigger& trigger, bool merge_back);
  void discard_all_mutables(bool merge_back);
  int find_mutable(const Trigger& trigger) const;

  ckpt::InitiationStats& init_stats(const Trigger& t);

  CaoSinghalOptions opts_;

  // --- paper state (Section 3.2). All three are sparse: per-message and
  // per-request work is O(active dependencies), not O(n), and per-process
  // memory stays constant-ish as the population grows. A csn map that
  // comes to hold a quarter of its universe turns into the dense array
  // (no more bytes than its sorted vector would take) and reads in O(1)
  // from then on. ---
  util::IntervalSet R_;
  util::SparseCsnMap csn_;
  // csn actually observed on the last *computation message* from each
  // process. The paper's csn array conflates this with knowledge gained
  // from commit broadcasts (csn[pid] := inum), which would defeat its own
  // Fig. 4 req_csn optimization: a request must carry the csn of the
  // interval in which the dependency was created, so req_csn (and the MR
  // coverage check) read this array instead.
  util::SparseCsnMap dep_csn_;
  bool sent_ = false;
  bool cp_state_ = false;
  Csn old_csn_ = 0;
  // csn of our latest *permanent* checkpoint. The paper's old_csn covers
  // tentative checkpoints too, which is only sound while at most one
  // checkpointing is in progress; the req_csn filter consults this under
  // concurrent initiations (see handle_request).
  Csn perm_csn_ = 0;
  Trigger own_trigger_;
  std::vector<MutableRec> mutables_;  // the paper's CP record, generalized

  // --- participant bookkeeping ---
  // Uncommitted tentative checkpoints. Normally at most one; a second can
  // appear when a new initiation starts while the previous commit message
  // is still in flight.
  std::vector<PendingTentative> pending_;
  std::vector<ProcessId> cp_send_history_;  // update-approach (3.3.5)

  // --- initiator bookkeeping, allocated on first initiate(). Only
  // initiators (a handful of the population, bounded by the harness
  // initiator limit) ever touch any of this, and flat members would cost
  // ~140 bytes in every one of a million protocol objects. ---
  struct InitiatorState {
    util::Weight acc_weight;  // accumulated from replies
    bool self_weight_banked = false;
    bool abort_sent = false;
    std::vector<ProcessId> repliers;
    // Kim-Park partial commit: failures reported by the request wave, and
    // the repliers' dependency vectors for the abort-closure computation.
    std::vector<ProcessId> init_failed;
    std::vector<std::pair<ProcessId, util::IntervalSet>> replier_deps;
    std::function<void(const Trigger&, bool committed)> on_initiation_done;
  };
  InitiatorState& ist() {
    if (!init_) init_ = std::make_unique<InitiatorState>();
    return *init_;
  }
  bool active_initiator_ = false;
  std::unique_ptr<InitiatorState> init_;
  // Participant side: failures observed while propagating; attached to
  // the next reply.
  std::vector<ProcessId> observed_failures_;

  // Initiations this process knows have terminated (commit or abort
  // received). A checkpoint request can still be in flight on a longer
  // path when the termination broadcast lands (e.g. an initiator that
  // detected a failed dependency aborts while its first-hop requests are
  // propagating); such late requests must be answered without taking a
  // checkpoint, or the tentative would be orphaned forever. Kept as a
  // sorted inline vector: every commit/abort broadcast grows this on all
  // n processes, and at n = 1M the former std::set cost a 64-byte heap
  // node per entry per process (~450 MB for a handful of initiations).
  bool initiation_terminated(ckpt::InitiationId id) const {
    return std::binary_search(terminated_.begin(), terminated_.end(), id);
  }
  void mark_terminated(ckpt::InitiationId id) {
    auto* it = std::lower_bound(terminated_.begin(), terminated_.end(), id);
    if (it != terminated_.end() && *it == id) return;
    terminated_.insert(it, id);
  }
  util::SmallVec<ckpt::InitiationId, 2> terminated_;
};

}  // namespace mck::core
