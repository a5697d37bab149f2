// Causal reconstruction of a recorded run: the happens-before skeleton.
//
// GraphBuilder matches kMsgSend records to kMsgDeliver records by message
// id (including broadcast fan-out — one send record, N-1 delivers — plus
// kMsgForwarded reroutes and kMsgBuffered deferred deliveries), checks the
// FIFO channel discipline the simulated transports guarantee (per ordered
// (src, dst) pair and message class), and exposes the matched hops in
// delivery order, as record indices, so the auditor (obs/audit.hpp) can
// replay Theorem 1 and walk critical paths without any protocol
// knowledge. It is fed one record at a time, so the auditor runs it in
// the same pass as its own replay; build_graph is the loop for callers
// that only want the graph.
//
// Channel state mirrors net::FifoSequencer: a (src, dst, class) channel
// is two 32-bit counters in a flat table — sends take the next sequence
// number, an in-order delivery advances the delivery counter — and a
// delivery that overtakes an undelivered predecessor is parked in one
// shared ordered set, which stays empty in a clean run. Only copies in
// flight hold state: a unicast send leaves the send table when its copy
// is consumed, a broadcast marks each recipient's copy consumed in
// place, and an idle channel is erased (its numbers restart at its next
// send; nothing live refers to the old ones). Tables are flat and at
// most 5/8 full: a channel slot is 16 bytes, a send slot 32 (its record
// index and the fields its deliveries are checked against), plus 4 B
// per broadcast recipient. A hop is 16 bytes: the indices of its two
// records, and its sender and send stamp, which the Theorem 1 sweep
// needs without decoding the send record again.
//
// Retiring sends relies on ascending send ids, which the simulator's one
// message counter guarantees. The first send id that does not ascend, or
// a delivery of a missing id not above the latest, re-enters every
// earlier send record (the first of each id wins; retired ones come back
// consumed) and stops retiring for the run: every verdict is then that
// of a matcher that forgets nothing, for one pass over a forged trace.
//
// Everything here is derived from TraceRecords alone — the whole point is
// an *independent* witness that shares no code with the system under test
// beyond the trace schema and util's generic containers (util::FlatMap is
// the table the sequencer uses too; the matching logic is separate).
#pragma once

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/flat_map.hpp"

namespace mck::obs {

/// One matched (send, deliver) pair, as CausalGraph::hop() rebuilds it
/// from the two records. A broadcast produces one hop per recipient, all
/// sharing the send-side fields.
struct MsgHop {
  std::uint64_t id = 0;
  std::int32_t src = -1;
  std::int32_t dst = -1;
  sim::SimTime sent_at = 0;
  sim::SimTime delivered_at = 0;
  sim::SimTime buffered_at = -1;  // when an MSS buffered it (-1: never)
  sim::SimTime retry_extra = 0;   // delay added by link-layer retries (ns)
  std::uint32_t send_stamp = 0;   // sender's event index + 1 (0: system msg)
  std::uint32_t recv_stamp = 0;   // receiver's event index + 1
  std::uint8_t kind = 0;          // rt::MsgKind discriminator (raw byte)
  bool computation = false;
  bool forwarded = false;         // rerouted after a handoff
};

/// A causal-order defect found while matching: an unmatched or duplicated
/// delivery, time travel, or a FIFO inversion on a channel.
struct CausalIssue {
  sim::SimTime at = 0;
  std::uint64_t msg_id = 0;
  std::string detail;
};

/// The matched hops of one run, in delivery order. A hop is held as the
/// indices of its send and deliver records plus its sender and send
/// stamp (16 bytes), not as a copy of the records, so the graph reads the
/// records it was built from: it must not outlive them, and they must not
/// change while it is in use.
class CausalGraph {
 public:
  std::size_t num_hops() const { return hops_.size(); }

  /// Hop `i`, with the fields its records give and the annotations its
  /// message had at delivery.
  MsgHop hop(std::size_t i) const;

  /// The endpoints of hop `i`, what the Theorem 1 sweep tests: read from
  /// the deliver record alone, without a lookup of the (older) send.
  struct Ends {
    std::int32_t src = -1;
    std::int32_t dst = -1;
    std::uint32_t send_stamp = 0;
    std::uint32_t recv_stamp = 0;
    bool computation = false;
  };
  Ends ends(std::size_t i) const;

  sim::SimTime delivered_at(std::size_t i) const {
    return deliver_cache_[hops_[i].deliver].at;
  }

  /// Indices of the hops delivered at each process, in delivery order
  /// (trace order == non-decreasing delivered_at).
  std::vector<std::vector<std::uint32_t>> delivers_by_pid;
  std::vector<CausalIssue> issues;
  std::uint64_t sends = 0;       // send records (a broadcast counts once)
  std::uint64_t delivers = 0;    // deliver records
  std::uint64_t in_transit = 0;  // expected deliveries that never happened

 private:
  friend class GraphBuilder;

  /// What kMsgRetry / kMsgBuffered / kMsgForwarded records said about a
  /// message.
  struct HopAnnot {
    sim::SimTime buffered_at = -1;
    sim::SimTime retry_extra = 0;
    bool forwarded = false;
  };
  struct HopRef {
    std::uint32_t send = 0;     // record index of the kMsgSend
    std::uint32_t deliver = 0;  // record index of the kMsgDeliver
    std::int32_t src = -1;      // the send's pid and stamp
    std::uint32_t send_stamp = 0;
  };
  struct HopAnnotAt {
    std::uint32_t hop = 0;
    HopAnnot annot;
  };

  const TraceRecords* records_ = nullptr;
  /// Lookups of send and of deliver records, each keeping its last
  /// decoded block (hops are read mostly in delivery order, so the
  /// deliver side decodes each block about once). They make the const
  /// readers unsafe to call from two threads at once.
  mutable RecordCache send_cache_;
  mutable RecordCache deliver_cache_;
  std::vector<HopRef> hops_;
  /// The annotations of the hops whose message had any when it was
  /// delivered, by ascending hop index (rare: retries, buffering and
  /// handoff reroutes).
  std::vector<HopAnnotAt> annots_;
};

/// Incremental matcher over ONE run's records. Message ids repeat across
/// replications, so runs must be processed separately.
class GraphBuilder {
 public:
  /// `records` must outlive the builder and the graph it finishes, and
  /// add() must be fed records[0], records[1], ... in order, each with
  /// its index: sends and hops are kept as indices.
  GraphBuilder(const TraceRecords& records, int num_processes);

  void add(std::size_t index, const TraceRecord& r);

  /// Sends and channels with a copy in flight (plus every broadcast and,
  /// after a re-index, every send): what the builder holds now.
  std::size_t live_sends() const { return sends_.size(); }
  std::size_t live_channels() const { return channels_.size(); }

  /// The graph of every record added so far; the builder is spent.
  CausalGraph finish();

 private:
  struct Chan {
    std::uint32_t next_send = 0;
    std::uint32_t next_deliver = 0;
  };
  /// A send: its record, and its sequence number on its channel — for a
  /// broadcast, the offset of its per-recipient numbers in bcast_seqs_.
  /// A copy already delivered has the number kConsumed. The fields its
  /// deliveries are checked against ride along (24 bytes in all), so a
  /// delivery decodes the send record only to check its time, and only
  /// when the trace's time has gone backwards (see max_at_).
  struct SendRef {
    std::uint32_t rec = 0;
    std::uint32_t seq = 0;
    std::int32_t pid = 0;
    std::uint32_t stamp = 0;  // msg_stamp_of(arg1)
    std::uint16_t aux = 0;
    std::uint8_t sub = 0;
  };
  static SendRef send_ref(std::uint32_t idx, const TraceRecord& s,
                          std::uint32_t seq) {
    return SendRef{idx, seq, s.pid, msg_stamp_of(s.arg1), s.aux, s.sub};
  }
  /// Never a channel sequence number: enqueue() stops short of it.
  static constexpr std::uint32_t kConsumed = 0xffffffffu;

  std::uint32_t enqueue(std::uint64_t chan_key);
  /// Consumes the delivery `r` of `send` on its channel, marking the copy
  /// consumed in `send` or bcast_seqs_. False if `r` is not on the channel
  /// the send went to, or that copy was delivered.
  bool match(SendRef& send, const TraceRecord& r, bool comp);
  /// Whether `id` may name a send retired from sends_: ids have ascended
  /// so far and `id` is not above the latest.
  bool may_be_retired(std::uint64_t id) const {
    return retiring_ && g_.sends != 0 && id <= last_send_id_;
  }
  /// Puts every send record in [0, end) back into sends_ and stops
  /// retiring: see the header comment.
  void reindex(std::uint32_t end);
  void issue(sim::SimTime at, std::uint64_t id, std::string detail);

  const TraceRecords& records_;
  int n_;
  std::uint32_t next_rec_ = 0;
  /// The latest time of any record added so far: a send is no later than
  /// it, so a delivery at or after it needs no time check.
  sim::SimTime max_at_ = std::numeric_limits<sim::SimTime>::min();
  CausalGraph g_;
  util::FlatMap<SendRef> sends_;  // message id -> first send record, live
  /// Message id -> what reroute / buffer / retry records said so far.
  util::FlatMap<CausalGraph::HopAnnot> annots_;
  util::FlatMap<Chan> channels_;  // channel key -> counters, while busy
  std::vector<std::uint32_t> bcast_seqs_;  // n per broadcast, by recipient
  /// Deliveries that arrived ahead of an undelivered predecessor, keyed
  /// (channel key, seq); erased once the channel catches up to them.
  std::set<std::pair<std::uint64_t, std::uint32_t>> overtaken_;
  std::uint64_t enqueued_ = 0;  // expected deliveries
  std::uint64_t matched_ = 0;   // deliveries consumed on their channel
  bool retiring_ = true;  // consumed unicasts leave sends_ (ids ascend)
  std::uint64_t last_send_id_ = 0;  // id of the latest send while retiring
};

/// Rebuilds the causal graph of ONE run's records; the graph reads
/// `records`, so it must not outlive them.
CausalGraph build_graph(const TraceRecords& records, int num_processes);
CausalGraph build_graph(TraceRecords&&, int) = delete;

}  // namespace mck::obs
