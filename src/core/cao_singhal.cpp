#include "core/cao_singhal.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "util/assert.hpp"
#include "util/pool.hpp"
#include "util/log.hpp"

namespace mck::core {

using util::IntervalSet;
using util::Weight;

namespace {

/// Weights go into the trace as the bit pattern of their double
/// approximation (exact for the depths the protocol reaches; mcktrace
/// formats it back as a double).
std::uint64_t weight_bits(const Weight& w) {
  return std::bit_cast<std::uint64_t>(w.to_double());
}

}  // namespace

CaoSinghalProtocol::CaoSinghalProtocol(CaoSinghalOptions opts)
    : opts_(opts) {}

void CaoSinghalProtocol::start() {
  const int n = ctx_.num_processes;
  MCK_ASSERT(n > 0);
  R_ = IntervalSet(static_cast<std::size_t>(n));
  csn_.assign(static_cast<std::size_t>(n));
  dep_csn_.assign(static_cast<std::size_t>(n));
  own_trigger_ = Trigger{self(), 0};
}

ckpt::InitiationStats& CaoSinghalProtocol::init_stats(const Trigger& t) {
  return ctx_.tracker->at(t.initiation());
}

void CaoSinghalProtocol::schedule_pending_reap(const Trigger& trigger) {
  if (opts_.decision_timeout <= 0) return;
  ctx_.sim->schedule_after(2 * opts_.decision_timeout, [this, trigger]() {
    if (initiation_terminated(trigger.initiation())) return;
    for (const PendingTentative& pt : pending_) {
      if (pt.trigger == trigger) {
        // The initiation's decision never reached us: its initiator is
        // gone (Section 3.6). Abort locally; the abort restores R/sent so
        // later initiations see (and re-propagate) the dependencies that
        // were stashed in this tentative.
        ++ctx_.stats->pending_reaped;
        handle_abort(trigger);
        return;
      }
    }
  });
}

void CaoSinghalProtocol::on_disconnect() {
  // The MH snapshots its state and ships it to the MSS as
  // disconnect_checkpoint_i before leaving (one 512 KB transfer). While
  // disconnected no events occur at the process, so this record stays a
  // faithful image of its state for the whole disconnect interval. The
  // new image supersedes the one the previous disconnect left, which
  // nothing promotes: the MSS keeps one per process.
  ckpt::CkptRef previous = ckpt::kNoCkpt;
  ctx_.store->for_each_live(self(), [&](const ckpt::CheckpointRecord& rec) {
    if (rec.kind == ckpt::CkptKind::kDisconnect) previous = rec.ref;
  });
  if (previous != ckpt::kNoCkpt) ctx_.store->discard(previous);
  ctx_.store->take(self(), ckpt::CkptKind::kDisconnect,
                   csn_.get(static_cast<std::size_t>(self())), 0,
                   ctx_.log->cursor(self()), ctx_.sim->now());
  (void)start_stable_transfer();
}

IntervalSet CaoSinghalProtocol::effective_R() const {
  IntervalSet r = R_;
  for (const MutableRec& m : mutables_) r.merge(m.saved_R);
  return r;
}

bool CaoSinghalProtocol::effective_sent() const {
  if (sent_) return true;
  for (const MutableRec& m : mutables_) {
    if (m.saved_sent) return true;
  }
  return false;
}

int CaoSinghalProtocol::find_mutable(const Trigger& trigger) const {
  for (std::size_t i = 0; i < mutables_.size(); ++i) {
    if (mutables_[i].trigger == trigger) return static_cast<int>(i);
  }
  return -1;
}

void CaoSinghalProtocol::discard_mutables_matching(const Trigger& trigger,
                                                   bool merge_back) {
  for (std::size_t i = 0; i < mutables_.size();) {
    if (mutables_[i].trigger == trigger) {
      MutableRec rec = mutables_[i];
      mutables_.erase(mutables_.begin() + static_cast<std::ptrdiff_t>(i));
      ctx_.store->discard(rec.ref);
      ++ctx_.stats->mutable_discarded;
      ++init_stats(rec.trigger).mutables_discarded;
      if (merge_back) {
        // Paper: "sent_j := sent_j ∪ CP_j.sent; R_j := R_j ∪ CP_j.R".
        R_.merge(rec.saved_R);
        sent_ = sent_ || rec.saved_sent;
      }
    } else {
      ++i;
    }
  }
}

void CaoSinghalProtocol::discard_all_mutables(bool merge_back) {
  while (!mutables_.empty()) {
    MutableRec rec = mutables_.back();
    mutables_.pop_back();
    ctx_.store->discard(rec.ref);
    ++ctx_.stats->mutable_discarded;
    ++init_stats(rec.trigger).mutables_discarded;
    if (merge_back) {
      R_.merge(rec.saved_R);
      sent_ = sent_ || rec.saved_sent;
    }
  }
}

// ---------------------------------------------------------------------
// Sending computation messages
// ---------------------------------------------------------------------

std::shared_ptr<const rt::Payload> CaoSinghalProtocol::computation_payload(
    ProcessId dst) {
  auto p = util::make_pooled<CompPayload>();
  p->csn = csn_.get(static_cast<std::size_t>(self()));
  if (cp_state_) {
    p->trigger = own_trigger_;
    // Update-approach history (Section 3.3.5).
    if (opts_.commit_mode != CommitMode::kBroadcast &&
        std::find(cp_send_history_.begin(), cp_send_history_.end(), dst) ==
            cp_send_history_.end()) {
      cp_send_history_.push_back(dst);
    }
  }
  sent_ = true;
  return p;
}

// ---------------------------------------------------------------------
// Initiation (Section 3.3.1)
// ---------------------------------------------------------------------

void CaoSinghalProtocol::initiate() {
  if (active_initiator_) return;  // already running one
  const ProcessId me = self();
  const Csn inum = csn_.bump(static_cast<std::size_t>(me));
  own_trigger_ = Trigger{me, inum};
  cp_state_ = true;
  const Trigger t = own_trigger_;

  ckpt::InitiationStats& st =
      ctx_.tracker->open(t.initiation(), me, ctx_.sim->now());
  (void)st;

  active_initiator_ = true;
  // The full unit of weight leaves the initiator with the request wave;
  // the outstanding gauge drains as portions are banked or returned.
  if (ctx_.timeline != nullptr) ctx_.timeline->outstanding_weight += 1.0;
  InitiatorState& is = ist();
  is.acc_weight = Weight::zero();
  is.self_weight_banked = false;
  is.repliers.clear();
  is.abort_sent = false;
  is.init_failed.clear();
  is.replier_deps.clear();

  SparseMr mr;
  mr.put(static_cast<std::size_t>(me), MrEntry{inum, 1});

  MCK_TRACE("[t=%.3fms] P%d initiates %s", sim::to_milliseconds(ctx_.sim->now()),
            me, t.to_string().c_str());
  if (opts_.decision_timeout > 0) {
    ctx_.sim->schedule_after(opts_.decision_timeout, [this, t]() {
      if (active_initiator_ && own_trigger_ == t) initiator_abort();
    });
  }
  take_tentative_and_propagate(t, mr, Weight::one(), /*as_initiator=*/true);
}

// ---------------------------------------------------------------------
// prop_cp (Section 3.3 subroutine)
// ---------------------------------------------------------------------

SparseMr request_mr(const SparseMr& mr_in, const util::SparseCsnMap& dep_csn,
                    const util::IntervalSet& deps) {
  const SparseMr::Storage& mr = mr_in.slots();
  const util::IntervalSet::Storage& iv = deps.intervals();
  constexpr std::uint64_t kEnd = ~std::uint64_t{0};
  std::size_t a = 0, c = 0;
  std::uint32_t x = iv.empty() ? 0 : iv[0].lo;  // next member of deps
  SparseMr out;
  // dep_csn drives the merge: each of its entries (pb, dep) first appends
  // the MR slots and dependencies below pb, then pb's own slot.
  const auto merge_through = [&](std::uint64_t pb, Csn dep) {
    while (true) {
      const std::uint64_t pa = a < mr.size() ? mr[a].pid : kEnd;
      const std::uint64_t pc = c < iv.size() ? x : kEnd;
      const std::uint64_t p = std::min({pa, pb, pc});
      if (p == kEnd) return;
      MrEntry e;
      if (pa == p) e = mr[a++].e;
      if (pb == p) e.csn = std::max(e.csn, dep);
      if (pc == p) {
        if (e.requested == 0) e.requested = 1;
        if (++x == iv[c].hi && ++c < iv.size()) x = iv[c].lo;
      }
      // Every input slot is non-default, so every merged one is too.
      const bool appended = out.append(static_cast<std::uint32_t>(p), e);
      MCK_ASSERT(appended);
      if (pb == p) return;
    }
  };
  dep_csn.for_each([&](std::size_t pb, Csn dep) { merge_through(pb, dep); });
  merge_through(kEnd, 0);
  return out;
}

Weight CaoSinghalProtocol::prop_cp(const IntervalSet& deps,
                                   const SparseMr& mr_in,
                                   const Trigger& trigger, Weight weight) {
  // The dense pseudocode builds temp[k] = {max(MR[k].csn, dep_csn[k]),
  // MR[k].R | deps[k]} for every k; sparsely, only the slots that differ
  // from {0, 0} are materialized — receivers read absent slots as the
  // default, so the semantics are element-for-element the dense ones while
  // the work is O(active dependencies). temp is built when the first
  // request goes out and is then shared, immutable, by every request of
  // this fan-out; a call that sends none builds nothing.
  std::shared_ptr<const SparseMr> temp;

  ckpt::InitiationStats& st = init_stats(trigger);
  const Csn own_csn = csn_.get(static_cast<std::size_t>(self()));
  // deps is visited ascending, so MR is read by a cursor.
  const SparseMr::Storage& mr = mr_in.slots();
  std::size_t mi = 0;
  deps.for_each([&](std::size_t ks) {
    const int k = static_cast<int>(ks);
    if (k == self()) return;
    while (mi < mr.size() && mr[mi].pid < ks) ++mi;
    const MrEntry in =
        mi < mr.size() && mr[mi].pid == ks ? mr[mi].e : MrEntry{};
    const Csn dep = dep_csn_.get(ks);
    // Prose of Section 3.3.2: skip P_k iff MR records that someone already
    // sent P_k a request with req_csn >= (the csn of the interval in which
    // our dependency on P_k was created).
    const bool covered = in.requested != 0 && in.csn >= dep;
    if (opts_.mr_filter && covered) return;

    if (!ctx_.net->reachable(k)) {
      // Section 3.6: "some processes that try to communicate with it get
      // to know of the failure" and notify the initiator.
      if (opts_.failure_mode == FailureMode::kPartialCommit) {
        // Kim-Park: keep going; the initiator decides at termination who
        // commits and who aborts.
        if (trigger.pid == self()) {
          ist().init_failed.push_back(k);
        } else {
          observed_failures_.push_back(k);
        }
      } else if (trigger.pid == self()) {
        ctx_.sim->schedule_after(0, [this, trigger]() {
          if (active_initiator_ && own_trigger_ == trigger) {
            initiator_abort();
          }
        });
      } else {
        send_reply(trigger, Weight::zero(), /*refused=*/true);
      }
      return;
    }

    weight.halve();
    if (ctx_.tracer != nullptr) {
      ctx_.tracer->record(obs::TraceKind::kWeightSplit, ctx_.sim->now(),
                          self(), 0, static_cast<std::uint16_t>(k),
                          trigger.initiation(), weight_bits(weight));
    }
    if (temp == nullptr) {
      temp = std::make_shared<const SparseMr>(request_mr(mr_in, dep_csn_, deps));
    }
    auto rp = util::make_pooled<RequestPayload>();
    rp->mr = temp;
    rp->sender_csn = own_csn;
    rp->trigger = trigger;
    rp->req_csn = dep;
    rp->weight = weight;
    send_system(rt::MsgKind::kRequest, k, std::move(rp));
    ++st.requests;
    MCK_TRACE("[t=%.3fms] P%d -> P%d request %s req_csn=%u",
              sim::to_milliseconds(ctx_.sim->now()), self(), k,
              trigger.to_string().c_str(), dep);
  });
  return weight;
}

// ---------------------------------------------------------------------
// Taking / promoting checkpoints
// ---------------------------------------------------------------------

void CaoSinghalProtocol::take_tentative_and_propagate(const Trigger& trigger,
                                                      const SparseMr& mr,
                                                      Weight weight,
                                                      bool as_initiator) {
  PendingTentative pt;
  pt.trigger = trigger;
  pt.saved_R = effective_R();
  pt.saved_sent = effective_sent();
  pt.saved_old_csn = old_csn_;

  Weight remaining = prop_cp(pt.saved_R, mr, trigger, weight);

  pt.ref = take_tentative(trigger.initiation(),
                          csn_.get(static_cast<std::size_t>(self())));

  old_csn_ = csn_.get(static_cast<std::size_t>(self()));
  // Mutables are superseded: their states precede this tentative and their
  // dependencies were just propagated via effective_R.
  discard_all_mutables(/*merge_back=*/false);
  sent_ = false;
  R_.reset();
  pending_.push_back(pt);
  schedule_pending_reap(trigger);

  // The checkpoint data must reach stable storage before the reply /
  // commit decision; the process itself keeps running (precopy, 5.2).
  sim::SimTime done = start_stable_transfer();
  if (as_initiator) {
    ctx_.sim->schedule_at(done, [this, trigger, remaining]() {
      bank_local_weight(trigger, remaining);
    });
  } else {
    ctx_.sim->schedule_at(done, [this, trigger, remaining]() {
      // Abort may have raced with the transfer; only reply if the
      // tentative is still pending.
      for (const PendingTentative& p : pending_) {
        if (p.trigger == trigger) {
          send_reply(trigger, remaining, false);
          return;
        }
      }
    });
  }
}

void CaoSinghalProtocol::promote_mutable(std::size_t idx,
                                         const SparseMr& mr, Weight weight) {
  MutableRec rec = mutables_[static_cast<std::size_t>(idx)];
  const Trigger trigger = rec.trigger;

  // Dependencies of the promoted state: everything recorded up to and
  // including this mutable (older mutables are part of its state).
  IntervalSet deps(static_cast<std::size_t>(ctx_.num_processes));
  bool deps_sent = false;
  for (std::size_t i = 0; i <= idx; ++i) {
    deps.merge(mutables_[i].saved_R);
    deps_sent = deps_sent || mutables_[i].saved_sent;
  }

  PendingTentative pt;
  pt.trigger = trigger;
  pt.ref = rec.ref;
  pt.saved_R = deps;
  pt.saved_sent = deps_sent;
  pt.saved_old_csn = old_csn_;

  Weight remaining = prop_cp(deps, mr, trigger, weight);

  ctx_.store->promote_to_tentative(rec.ref, trigger.initiation(),
                                   ctx_.sim->now());
  ++ctx_.stats->mutable_promoted;
  ckpt::InitiationStats& st = init_stats(trigger);
  ++st.mutables_promoted;
  ++st.tentative;  // it is now a tentative checkpoint of this initiation
  old_csn_ = csn_.get(static_cast<std::size_t>(self()));

  // Older mutables are consumed by the promotion (no merge back: their
  // dependencies are inside the promoted state and were propagated).
  for (std::size_t i = 0; i < idx; ++i) {
    ctx_.store->discard(mutables_[i].ref);
    ++ctx_.stats->mutable_discarded;
    ++init_stats(mutables_[i].trigger).mutables_discarded;
  }
  mutables_.erase(mutables_.begin(),
                  mutables_.begin() + static_cast<std::ptrdiff_t>(idx) + 1);
  pending_.push_back(pt);
  schedule_pending_reap(trigger);

  // Promotion is the moment the checkpoint data crosses the wireless link.
  sim::SimTime done = start_stable_transfer();
  ctx_.sim->schedule_at(done, [this, trigger, remaining]() {
    for (const PendingTentative& p : pending_) {
      if (p.trigger == trigger) {
        send_reply(trigger, remaining, false);
        return;
      }
    }
  });
}

void CaoSinghalProtocol::take_mutable(const Trigger& trigger) {
  MutableRec rec;
  rec.trigger = trigger;
  rec.saved_R = R_;
  rec.saved_sent = sent_;
  rec.ref = ctx_.store->take(self(), ckpt::CkptKind::kMutable,
                             csn_.get(static_cast<std::size_t>(self())),
                             trigger.initiation(), ctx_.log->cursor(self()),
                             ctx_.sim->now());
  charge_mutable_save();
  ++ctx_.stats->mutable_taken;
  ++init_stats(trigger).mutables_taken;
  mutables_.push_back(std::move(rec));
  sent_ = false;
  R_.reset();
  MCK_TRACE("[t=%.3fms] P%d takes MUTABLE checkpoint for %s",
            sim::to_milliseconds(ctx_.sim->now()), self(),
            trigger.to_string().c_str());
}

// ---------------------------------------------------------------------
// Replies and the initiator's termination detection (Section 3.3.4)
// ---------------------------------------------------------------------

void CaoSinghalProtocol::send_reply(const Trigger& trigger, Weight weight,
                                    bool refused) {
  if (trigger.pid == self()) {
    // A request found its way back to the initiator; account locally.
    MCK_ASSERT(!refused);
    bank_local_weight(trigger, std::move(weight));
    return;
  }
  auto rp = util::make_pooled<ReplyPayload>();
  rp->trigger = trigger;
  rp->weight = std::move(weight);
  rp->refused = refused;
  if (!observed_failures_.empty()) {
    rp->failed_observed = std::move(observed_failures_);
    observed_failures_.clear();
  }
  if (opts_.failure_mode == FailureMode::kPartialCommit) {
    // Report our checkpoint's dependency vector for the abort closure.
    for (const PendingTentative& pt : pending_) {
      if (pt.trigger == trigger) {
        rp->deps = pt.saved_R;
        break;
      }
    }
  }
  send_system(rt::MsgKind::kReply, trigger.pid, std::move(rp));
  ++init_stats(trigger).replies;
}

void CaoSinghalProtocol::bank_local_weight(const Trigger& t, Weight w) {
  if (!active_initiator_ || own_trigger_ != t) return;  // aborted meanwhile
  if (ctx_.timeline != nullptr) {
    ctx_.timeline->outstanding_weight -= w.to_double();
  }
  init_->acc_weight.add(w);
  init_->self_weight_banked = true;
  if (ctx_.tracer != nullptr) {
    ctx_.tracer->record(obs::TraceKind::kWeightReturn, ctx_.sim->now(),
                        self(), 0, static_cast<std::uint16_t>(self()),
                        t.initiation(), weight_bits(init_->acc_weight));
  }
  initiator_decide_commit();
}

void CaoSinghalProtocol::handle_reply(const rt::Message& m,
                                      const ReplyPayload& p) {
  if (!active_initiator_ || p.trigger != own_trigger_) return;  // stale
  if (p.refused) {
    initiator_abort();
    return;
  }
  InitiatorState& is = *init_;
  for (ProcessId f : p.failed_observed) {
    if (std::find(is.init_failed.begin(), is.init_failed.end(), f) ==
        is.init_failed.end()) {
      is.init_failed.push_back(f);
    }
  }
  if (p.deps.size() != 0) {
    is.replier_deps.emplace_back(m.src, p.deps);
  }
  if (ctx_.timeline != nullptr) {
    ctx_.timeline->outstanding_weight -= p.weight.to_double();
  }
  is.acc_weight.add(p.weight);
  if (ctx_.tracer != nullptr) {
    ctx_.tracer->record(obs::TraceKind::kWeightReturn, ctx_.sim->now(),
                        self(), 0, static_cast<std::uint16_t>(m.src),
                        own_trigger_.initiation(), weight_bits(is.acc_weight));
  }
  if (std::find(is.repliers.begin(), is.repliers.end(), m.src) ==
      is.repliers.end()) {
    is.repliers.push_back(m.src);
  }
  initiator_decide_commit();
}

void CaoSinghalProtocol::initiator_decide_commit() {
  if (!active_initiator_ || !init_->self_weight_banked) return;
  if (!init_->acc_weight.is_one()) return;
  InitiatorState& is = *init_;

  const Trigger t = own_trigger_;
  ckpt::InitiationStats& st = init_stats(t);

  // Failures observed by the (now fully returned) request wave. Weight
  // one means no request or reply is in flight (Lemma 2), so the
  // dependency reports are complete and the Kim-Park abort closure can
  // be computed exactly.
  util::IntervalSet abort_set;
  if (!is.init_failed.empty()) {
    if (opts_.failure_mode != FailureMode::kPartialCommit) {
      initiator_abort();
      return;
    }
    abort_set =
        util::IntervalSet(static_cast<std::size_t>(ctx_.num_processes));
    for (ProcessId f : is.init_failed) {
      abort_set.set(static_cast<std::size_t>(f));
    }
    // "Certainly, the initiator and other processes which depend on the
    // failed process have to abort their checkpointing" [Section 3.6].
    abort_set.set(static_cast<std::size_t>(self()));
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& [pid, deps] : is.replier_deps) {
        if (abort_set.test(static_cast<std::size_t>(pid))) continue;
        if (abort_set.intersects(deps)) {
          abort_set.set(static_cast<std::size_t>(pid));
          changed = true;
        }
      }
    }
    st.partial_commit = true;
  }

  ctx_.tracker->mark_committed(st, ctx_.sim->now());
  MCK_TRACE("[t=%.3fms] P%d COMMITS %s%s (%u tentative, %u mutable, %u redundant)",
            sim::to_milliseconds(ctx_.sim->now()), self(),
            t.to_string().c_str(), st.partial_commit ? " (partial)" : "",
            st.tentative, st.mutables_taken, st.mutables_discarded);

  active_initiator_ = false;
  is.self_weight_banked = false;
  is.init_failed.clear();
  is.replier_deps.clear();

  // Second phase (Section 3.3.4 / 3.3.5).
  const bool use_broadcast =
      opts_.commit_mode == CommitMode::kBroadcast ||
      (opts_.commit_mode == CommitMode::kHybrid &&
       is.repliers.size() > kHybridThreshold);
  auto cp = util::make_pooled<CommitPayload>();
  cp->trigger = t;
  cp->abort_set = std::move(abort_set);
  if (use_broadcast) {
    broadcast_system(rt::MsgKind::kCommit, cp);
    st.commits += static_cast<std::uint64_t>(ctx_.num_processes - 1);
  } else {
    for (ProcessId p : is.repliers) {
      send_system(rt::MsgKind::kCommit, p, cp);
      ++st.commits;
    }
  }
  is.repliers.clear();

  // Local effect of the commit on the initiator itself.
  handle_commit(t, &cp->abort_set);
  if (is.on_initiation_done) is.on_initiation_done(t, true);
}

void CaoSinghalProtocol::initiator_abort() {
  if (!active_initiator_ || init_->abort_sent) return;
  const Trigger t = own_trigger_;
  InitiatorState& is = *init_;
  if (ctx_.timeline != nullptr) {
    // Whatever portion never made it back is written off with the abort.
    ctx_.timeline->outstanding_weight -= 1.0 - is.acc_weight.to_double();
  }
  is.abort_sent = true;
  active_initiator_ = false;
  is.self_weight_banked = false;
  is.repliers.clear();
  is.init_failed.clear();
  is.replier_deps.clear();
  observed_failures_.clear();

  ckpt::InitiationStats& st = init_stats(t);
  ctx_.tracker->mark_aborted(st, ctx_.sim->now());
  auto ap = util::make_pooled<AbortPayload>();
  ap->trigger = t;
  broadcast_system(rt::MsgKind::kAbort, ap);
  st.aborts += static_cast<std::uint64_t>(ctx_.num_processes - 1);
  handle_abort(t);
  if (is.on_initiation_done) is.on_initiation_done(t, false);
}

// ---------------------------------------------------------------------
// Receiving a checkpoint request (Section 3.3.2)
// ---------------------------------------------------------------------

void CaoSinghalProtocol::handle_request(const rt::Message& m,
                                        const RequestPayload& p) {
  // csn_i[j] := recv_csn (the request sender's own csn).
  csn_.raise(static_cast<std::size_t>(m.src), p.sender_csn);

  // T_msg bookkeeping (Section 5.3): the synchronization phase of this
  // initiation extends at least to now.
  init_stats(p.trigger).last_request_at = ctx_.sim->now();

  // A late request for an initiation whose commit/abort we already saw:
  // answer (the weight is moot, its initiator has decided) but do not
  // checkpoint.
  if (initiation_terminated(p.trigger.initiation())) {
    ++init_stats(p.trigger).duplicate_requests;
    send_reply(p.trigger, p.weight, false);
    return;
  }

  // Section 3.1.3 / Fig. 4: the dependency was created before our current
  // stable checkpoint — nothing to do. Under concurrent initiations the
  // covering checkpoint must be *permanent* (or a tentative of this very
  // initiation, which the commit would finalize): a tentative pending for
  // a different initiation may still abort, and skipping based on it
  // would leave the requester's committed line with an orphan.
  if (opts_.req_csn_filter && old_csn_ > p.req_csn) {
    bool covered = perm_csn_ > p.req_csn;
    if (!covered) {
      for (const PendingTentative& pt : pending_) {
        if (pt.trigger == p.trigger &&
            ctx_.store->get(pt.ref).csn > p.req_csn) {
          covered = true;
          break;
        }
      }
    }
    if (covered) {
      ++init_stats(p.trigger).duplicate_requests;
      send_reply(p.trigger, p.weight, false);
      return;
    }
  }

  // Concurrent initiations (Section 3.5, "ignore" technique of [19]): an
  // active initiator always refuses foreign requests, and the refused
  // initiator aborts its checkpointing. Overlapping initiations are thus
  // legal input, not a harness bug: scripted runs start them on purpose,
  // and even with serialized scheduling this fires under failures — an
  // aborting initiator's first-hop requests can still be propagating
  // when the next initiation starts.
  if (active_initiator_ && p.trigger != own_trigger_) {
    send_reply(p.trigger, p.weight, /*refused=*/true);
    return;
  }

  cp_state_ = true;

  if (p.trigger == own_trigger_) {
    int idx = find_mutable(p.trigger);
    if (idx >= 0) {
      promote_mutable(static_cast<std::size_t>(idx), *p.mr, p.weight);
    } else {
      // Already checkpointed for this initiation (Lemma 1).
      ++init_stats(p.trigger).duplicate_requests;
      send_reply(p.trigger, p.weight, false);
    }
  } else {
    csn_.bump(static_cast<std::size_t>(self()));
    own_trigger_ = p.trigger;
    take_tentative_and_propagate(p.trigger, *p.mr, p.weight,
                                 /*as_initiator=*/false);
  }
}

// ---------------------------------------------------------------------
// Receiving a computation message (Section 3.3.3)
// ---------------------------------------------------------------------

void CaoSinghalProtocol::handle_computation(const rt::Message& m) {
  const CompPayload* p = m.payload_as<CompPayload>();
  MCK_ASSERT(p != nullptr);
  const std::size_t j = static_cast<std::size_t>(m.src);

  dep_csn_.raise(j, p->csn);

  if (p->csn <= csn_.get(j)) {
    R_.set(j);
    process_computation(m);
    return;
  }

  // Sender took a checkpoint before sending m.
  if (p->trigger.valid() &&
      csn_.get(static_cast<std::size_t>(p->trigger.pid)) >= p->trigger.inum) {
    // We already know of (or acted for) this initiation — Condition 3.
    csn_.raise(j, p->csn);
    R_.set(j);
    process_computation(m);
    return;
  }

  csn_.raise(j, p->csn);

  // Condition 1: sender inside a checkpointing process (trigger != NULL).
  // Condition 2: we sent a message since our last checkpoint.
  // Condition 3: we have not yet taken a checkpoint for this initiator.
  if (p->trigger.valid() && sent_ && p->trigger != own_trigger_ &&
      find_mutable(p->trigger) < 0) {
    take_mutable(p->trigger);
  }
  if (p->trigger.valid() && !cp_state_) {
    cp_state_ = true;
    csn_.bump(static_cast<std::size_t>(self()));
    own_trigger_ = p->trigger;
  }
  R_.set(j);
  process_computation(m);
}

// ---------------------------------------------------------------------
// Second phase at participants (Section 3.3.4 / 3.3.5 / 3.6)
// ---------------------------------------------------------------------

void CaoSinghalProtocol::handle_clear(const Trigger& t, bool is_commit,
                                      const util::IntervalSet* abort_set) {
  mark_terminated(t.initiation());
  csn_.raise(static_cast<std::size_t>(t.pid), t.inum);

  bool had_effect = false;

  if (is_commit) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].trigger != t) continue;
      // Kim-Park partial commit: abort instead if we (or anything we
      // depend on) sit in the abort closure.
      bool must_abort = false;
      if (abort_set != nullptr) {
        must_abort = abort_set->test(static_cast<std::size_t>(self())) ||
                     abort_set->intersects(pending_[i].saved_R);
      }
      if (must_abort) {
        PendingTentative pt = pending_[i];
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        ctx_.store->discard(pt.ref);
        R_.merge(pt.saved_R);
        sent_ = sent_ || pt.saved_sent;
        old_csn_ = pt.saved_old_csn;
        ++init_stats(t).participants_aborted;
        had_effect = true;
        break;
      }
      const ckpt::CheckpointRecord& rec = make_permanent(pending_[i].ref);
      if (rec.csn > perm_csn_) perm_csn_ = rec.csn;
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      // "P1 discards C1,2 when it makes checkpoint C1,1 permanent":
      // remaining mutables (all newer than this tentative) go away, their
      // dependency info folding back into the current interval.
      discard_all_mutables(/*merge_back=*/true);
      had_effect = true;
      break;
    }
  }

  // Redundant mutable checkpoints for this initiation are discarded.
  if (find_mutable(t) >= 0) {
    discard_mutables_matching(t, /*merge_back=*/true);
    had_effect = true;
  }

  if (own_trigger_ == t && cp_state_) {
    cp_state_ = false;
    had_effect = true;
  }

  // Update approach: relay the termination along the send history.
  if (opts_.commit_mode != CommitMode::kBroadcast && had_effect &&
      !cp_send_history_.empty()) {
    auto clr = util::make_pooled<ClearPayload>();
    clr->trigger = t;
    std::vector<ProcessId> hist;
    hist.swap(cp_send_history_);
    for (ProcessId dst : hist) {
      if (dst == self() || dst == t.pid) continue;
      send_system(rt::MsgKind::kControl, dst, clr);
    }
  } else if (opts_.commit_mode == CommitMode::kBroadcast) {
    cp_send_history_.clear();
  }
}

void CaoSinghalProtocol::handle_commit(const Trigger& t,
                                       const util::IntervalSet* abort_set) {
  handle_clear(t, /*is_commit=*/true,
               (abort_set && abort_set->size()) ? abort_set : nullptr);
}

void CaoSinghalProtocol::handle_abort(const Trigger& t) {
  mark_terminated(t.initiation());
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].trigger != t) continue;
    PendingTentative pt = pending_[i];
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    ctx_.store->discard(pt.ref);
    // Restore the dependency state of the interval the checkpoint would
    // have ended (Section 3.6).
    R_.merge(pt.saved_R);
    sent_ = sent_ || pt.saved_sent;
    old_csn_ = pt.saved_old_csn;
    break;
  }
  if (find_mutable(t) >= 0) {
    discard_mutables_matching(t, /*merge_back=*/true);
  }
  if (own_trigger_ == t && cp_state_) cp_state_ = false;
}

void CaoSinghalProtocol::handle_system(const rt::Message& m) {
  MCK_ASSERT(m.payload != nullptr);
  switch (m.payload->tag()) {
    case rt::PayloadTag::kRequest:
      handle_request(m, static_cast<const RequestPayload&>(*m.payload));
      break;
    case rt::PayloadTag::kReply:
      handle_reply(m, static_cast<const ReplyPayload&>(*m.payload));
      break;
    case rt::PayloadTag::kCommit: {
      const auto& p = static_cast<const CommitPayload&>(*m.payload);
      handle_commit(p.trigger, &p.abort_set);
      break;
    }
    case rt::PayloadTag::kAbort:
      handle_abort(static_cast<const AbortPayload&>(*m.payload).trigger);
      break;
    case rt::PayloadTag::kClear:
      handle_clear(static_cast<const ClearPayload&>(*m.payload).trigger,
                   /*is_commit=*/false);
      break;
    default:
      MCK_ASSERT_MSG(false, "unexpected system payload");
  }
}

}  // namespace mck::core
