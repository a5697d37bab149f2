#include "obs/graph.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "util/assert.hpp"

namespace mck::obs {

namespace {

/// Channel key: ordered (src, dst) pair plus the message class. The LAN
/// sequencer orders all kinds per pair; the cellular transport runs
/// separate computation/system sequencers — so the invariant safe to
/// audit on both is FIFO per (src, dst, class).
std::uint64_t channel_key(std::int32_t src, std::int32_t dst, bool comp) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 33) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 1) |
         (comp ? 1u : 0u);
}

std::string fmt_issue(const char* f, unsigned long long a,
                      unsigned long long b, unsigned long long c) {
  char buf[192];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

}  // namespace

MsgHop CausalGraph::hop(std::size_t i) const {
  MCK_ASSERT(i < hops_.size());
  const HopRef& ref = hops_[i];
  MCK_ASSERT_MSG(ref.deliver < records_->size(),
                 "a CausalGraph must not outlive its records");
  const TraceRecord& r = deliver_cache_[ref.deliver];
  MsgHop h;
  h.id = r.arg0;
  h.src = ref.src;
  h.dst = r.pid;
  h.kind = r.sub;
  h.computation = r.sub == kRawMsgComputation;
  h.sent_at = send_cache_[ref.send].at;
  h.delivered_at = r.at;
  h.send_stamp = ref.send_stamp;
  h.recv_stamp = msg_stamp_of(r.arg1);
  const auto a = std::lower_bound(
      annots_.begin(), annots_.end(), i,
      [](const HopAnnotAt& x, std::size_t hop) { return x.hop < hop; });
  if (a != annots_.end() && a->hop == i) {
    h.buffered_at = a->annot.buffered_at;
    h.retry_extra = a->annot.retry_extra;
    h.forwarded = a->annot.forwarded;
  }
  return h;
}

CausalGraph::Ends CausalGraph::ends(std::size_t i) const {
  MCK_ASSERT(i < hops_.size());
  const HopRef& ref = hops_[i];
  const TraceRecord& r = deliver_cache_[ref.deliver];
  return Ends{ref.src, r.pid, ref.send_stamp, msg_stamp_of(r.arg1),
              r.sub == kRawMsgComputation};
}

GraphBuilder::GraphBuilder(const TraceRecords& records, int num_processes)
    : records_(records), n_(num_processes) {
  MCK_ASSERT_MSG(records.size() <= 0xffffffffu,
                 "a run holds at most 2^32 records");
  g_.records_ = &records;
  g_.send_cache_ = RecordCache(&records);
  g_.deliver_cache_ = RecordCache(&records);
  g_.delivers_by_pid.resize(static_cast<std::size_t>(num_processes));
}

void GraphBuilder::issue(sim::SimTime at, std::uint64_t id,
                         std::string detail) {
  g_.issues.push_back(CausalIssue{at, id, std::move(detail)});
}

std::uint32_t GraphBuilder::enqueue(std::uint64_t chan_key) {
  Chan& c = channels_[chan_key];
  MCK_ASSERT_MSG(c.next_send != kConsumed, "channel sequence overflow");
  ++enqueued_;
  return c.next_send++;
}

bool GraphBuilder::match(SendRef& send, const TraceRecord& r, bool comp) {
  if (comp != (send.sub == kRawMsgComputation)) return false;
  std::uint32_t* copy = &send.seq;
  if (send.aux == kBroadcastDst) {
    if (r.pid < 0 || r.pid >= n_ || r.pid == send.pid) return false;
    copy = &bcast_seqs_[send.seq + static_cast<std::size_t>(r.pid)];
  } else if (r.pid != static_cast<std::int32_t>(send.aux)) {
    return false;
  }
  if (*copy == kConsumed) return false;  // this copy was delivered already
  const std::uint32_t seq = *copy;
  *copy = kConsumed;
  ++matched_;
  const std::uint64_t key = channel_key(send.pid, r.pid, comp);
  Chan* c = channels_.find(key);
  MCK_ASSERT_MSG(c != nullptr, "a channel with a copy in flight is live");
  if (seq == c->next_deliver) {
    // In order: also release the overtakers parked right behind it.
    ++c->next_deliver;
    for (auto it = overtaken_.find({key, c->next_deliver});
         it != overtaken_.end() && it->first == key &&
         it->second == c->next_deliver;
         it = overtaken_.erase(it)) {
      ++c->next_deliver;
    }
    // Idle: nothing of it is in flight or parked, so it can go.
    if (c->next_deliver == c->next_send) channels_.erase(key);
    return true;
  }
  // Ahead of the channel: every number in [next_deliver, seq) that is not
  // parked here itself is an earlier send still undelivered.
  const auto parked =
      std::distance(overtaken_.lower_bound({key, c->next_deliver}),
                    overtaken_.lower_bound({key, seq}));
  issue(r.at, r.arg0,
        fmt_issue("FIFO violation: message overtook %llu earlier "
                  "send(s) on channel P%llu -> P%llu",
                  static_cast<unsigned long long>(seq - c->next_deliver) -
                      static_cast<unsigned long long>(parked),
                  static_cast<unsigned long long>(
                      static_cast<std::uint32_t>(send.pid)),
                  static_cast<unsigned long long>(
                      static_cast<std::uint32_t>(r.pid))));
  overtaken_.emplace(key, seq);
  return true;
}

void GraphBuilder::reindex(std::uint32_t end) {
  retiring_ = false;
  for (auto it = records_.begin(); it.index() < end; ++it) {
    if (static_cast<TraceKind>(it->kind) != TraceKind::kMsgSend) continue;
    auto [ref, fresh] = sends_.try_emplace(it->arg0);
    // Ids ascended so far, so a missing id is a unicast that was retired.
    if (fresh) {
      *ref = send_ref(static_cast<std::uint32_t>(it.index()), *it, kConsumed);
    }
  }
}

void GraphBuilder::add(std::size_t index, const TraceRecord& r) {
  MCK_ASSERT_MSG(index == next_rec_,
                 "GraphBuilder::add must see the records in order");
  const std::uint32_t idx = next_rec_++;
  const sim::SimTime latest_before = max_at_;
  max_at_ = std::max(max_at_, r.at);
  switch (static_cast<TraceKind>(r.kind)) {
    case TraceKind::kMsgSend: {
      if (may_be_retired(r.arg0)) {
        reindex(idx);
      } else if (retiring_) {
        last_send_id_ = r.arg0;
      }
      auto [ref, fresh] = sends_.try_emplace(r.arg0);
      if (!fresh) {
        issue(r.at, r.arg0, "duplicate send record for one message id");
        break;
      }
      ++g_.sends;
      *ref = send_ref(idx, r, 0);
      const bool comp = r.sub == kRawMsgComputation;
      if (r.aux == kBroadcastDst) {
        const std::size_t base = bcast_seqs_.size();
        MCK_ASSERT_MSG(base <= 0xffffffffu, "too many broadcast recipients");
        ref->seq = static_cast<std::uint32_t>(base);
        bcast_seqs_.resize(base + static_cast<std::size_t>(n_));
        for (std::int32_t p = 0; p < n_; ++p) {
          if (p == r.pid) continue;
          bcast_seqs_[base + static_cast<std::size_t>(p)] =
              enqueue(channel_key(r.pid, p, comp));
        }
      } else {
        ref->seq =
            enqueue(channel_key(r.pid, static_cast<std::int32_t>(r.aux), comp));
      }
      break;
    }
    case TraceKind::kMsgRetry:
      annots_[r.arg0].retry_extra += retry_extra_of(r.arg1);
      break;
    case TraceKind::kMsgBuffered:
      annots_[r.arg0].buffered_at = r.at;
      break;
    case TraceKind::kMsgForwarded:
      annots_[r.arg0].forwarded = true;
      break;
    case TraceKind::kMsgDeliver: {
      ++g_.delivers;
      SendRef* ref = sends_.find(r.arg0);
      if (ref == nullptr && may_be_retired(r.arg0)) {
        // Maybe a retired send delivered again: look again in full.
        reindex(idx);
        ref = sends_.find(r.arg0);
      }
      if (ref == nullptr) {
        issue(r.at, r.arg0, "delivery with no matching send record");
        break;
      }
      const SendRef s = *ref;
      if (r.at < latest_before && records_[s.rec].at > r.at) {
        issue(r.at, r.arg0, "message delivered before it was sent");
      }
      if (static_cast<std::int32_t>(r.aux) != s.pid) {
        issue(r.at, r.arg0,
              fmt_issue("delivery names sender P%llu, send was by P%llu",
                        static_cast<unsigned long long>(r.aux),
                        static_cast<unsigned long long>(
                            static_cast<std::uint32_t>(s.pid)),
                        0));
      }
      if (s.aux != kBroadcastDst && static_cast<std::int32_t>(s.aux) != r.pid) {
        issue(r.at, r.arg0, "unicast message delivered to a third party");
      }

      const bool comp = r.sub == kRawMsgComputation;
      if (!match(*ref, r, comp)) {
        issue(r.at, r.arg0, "message delivered twice to one process");
      } else if (retiring_ && s.aux != kBroadcastDst) {
        sends_.erase(r.arg0);  // its one copy is consumed
      }

      const auto hop = static_cast<std::uint32_t>(g_.hops_.size());
      if (const CausalGraph::HopAnnot* a = annots_.find(r.arg0)) {
        g_.annots_.push_back(CausalGraph::HopAnnotAt{hop, *a});
      }
      if (comp && (s.stamp == 0 || msg_stamp_of(r.arg1) == 0)) {
        issue(r.at, r.arg0,
              "computation message is missing an event-log stamp");
      }
      if (r.pid >= 0 && r.pid < n_) {
        g_.delivers_by_pid[static_cast<std::size_t>(r.pid)].push_back(hop);
      }
      g_.hops_.push_back(CausalGraph::HopRef{s.rec, idx, s.pid, s.stamp});
      break;
    }
    default:
      break;
  }
}

CausalGraph GraphBuilder::finish() {
  g_.in_transit = enqueued_ - matched_;
  return std::move(g_);
}

CausalGraph build_graph(const TraceRecords& records, int num_processes) {
  GraphBuilder b(records, num_processes);
  for (auto it = records.begin(), end = records.end(); it != end; ++it) {
    b.add(it.index(), *it);
  }
  return b.finish();
}

}  // namespace mck::obs
