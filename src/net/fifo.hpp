// Per-ordered-pair FIFO sequencing. The computation model (Section 2.1)
// promises reliable FIFO channels, but raw transmission delays differ by
// message size (a 50 B system message flies in 0.2 ms, a 1 KB computation
// message needs 4 ms) and rerouted messages take detours after handoffs.
// The sequencer stamps messages at send time and holds back overtakers at
// the receiver until their predecessors arrive.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "rt/message.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"

namespace mck::net {

class FifoSequencer {
 public:
  /// Channels live in an open-addressed flat table keyed by (src, dst)
  /// (util::FlatMap): 16 bytes per channel with a message in flight, one
  /// multiply-mix hash and a linear probe per lookup. A channel is
  /// retired the moment it goes idle (every stamped message delivered,
  /// nothing parked): an idle channel behaves exactly like one never
  /// created, so it is erased and its numbering restarts at 0. The table
  /// is bounded by the messages in flight, not by the pairs that ever
  /// talked. In cell-coord (n = 1k) the system-message sequencer touches
  /// ~277k channels and holds at most ~32k at once; the computation one
  /// touches ~310k and holds at most 7.
  /// Overtaken messages are parked in a shared ordered side map:
  /// out-of-order arrival is rare (reroutes after handoffs), so the
  /// per-channel structure stays lean.
  /// (One storage mode at every n. A dense n*n table for n <= 256 saves
  /// ~3-6 ns per message at n <= 64, ~4% of a fig5-style n = 16 run, and
  /// nothing resolvable on the simbench LAN workloads (n = 64, 8
  /// alternated pairs on a shared 4-CPU Xeon): lan-p2p wall 1.74 s dense
  /// vs 1.72 s sparse, lan-group-koo 1.24 s vs 1.26 s, both inside the
  /// dense runs' interquartile range of ~0.25-0.36 s. Dead ends at
  /// n = 1k, do not revisit: a dense table loses ~6% to zeroing two 16 MB
  /// tables; lazily allocated per-sender row arrays lose ~12% to
  /// scattered zeroing plus a 64-bit division per lookup.)
  explicit FifoSequencer(int num_processes) : n_(num_processes) {}

  /// Stamps a message with its channel sequence number. Must be called in
  /// send order.
  void stamp(rt::Message& msg) {
    msg.channel_seq = stamp_channel(msg.src, msg.dst);
  }

  /// Stamp variant for broadcast batching: allocates the next sequence
  /// number on (src, dst) without materializing a per-recipient Message at
  /// send time.
  std::uint32_t stamp_channel(ProcessId src, ProcessId dst) {
    Chan& c = table_[chan_key(src, dst)];
    MCK_ASSERT_MSG(c.next_send != kSeqLimit, "channel sequence overflow");
    return c.next_send++;
  }

  /// Broadcast-batch fast path: iff no overtaker is parked anywhere and
  /// `seq` is exactly the next expected on (src, dst), consumes the slot
  /// (advances next_deliver, with nothing to release afterwards, retiring
  /// the channel if that was its last message in flight) and returns
  /// true — the caller may deliver without ever materializing a
  /// per-recipient Message. Returns false untouched otherwise; the caller
  /// falls back to the full arrive() pipeline.
  bool try_fast_deliver(ProcessId src, ProcessId dst, std::uint32_t seq) {
    if (!pending_.empty()) return false;
    const std::uint64_t key = chan_key(src, dst);
    Chan& c = in_flight(key);
    if (seq != c.next_deliver) return false;
    if (++c.next_deliver == c.next_send) table_.erase(key);
    return true;
  }

  /// Registers the arrival of `msg` and invokes `deliver` for every
  /// message that is now deliverable on its channel, in FIFO order (not
  /// at all if `msg` has to wait for a predecessor still in flight).
  /// Callback-style so the in-order common case hands the message
  /// straight through without ever touching the heap; only overtakers
  /// (out-of-order arrivals) are parked in the shared pending map.
  template <typename Deliver>
  void arrive(rt::Message msg, Deliver&& deliver) {
    const std::uint64_t key = chan_key(msg.src, msg.dst);
    Chan* c = &in_flight(key);
    if (msg.channel_seq != c->next_deliver) {
      MCK_ASSERT_MSG(msg.channel_seq > c->next_deliver &&
                         msg.channel_seq < c->next_send,
                     "channel sequence number not in flight");
      pending_.emplace(std::make_pair(key, msg.channel_seq), std::move(msg));
      return;
    }
    while (true) {
      // Retired before `deliver` runs: the callback may create channels
      // (sends from a LAN inline delivery path), which can rehash the
      // table, so `c` is re-resolved after it.
      const bool idle = ++c->next_deliver == c->next_send;
      if (idle) table_.erase(key);
      deliver(std::move(msg));
      if (idle || pending_.empty()) return;
      c = &in_flight(key);
      auto it = pending_.find(std::make_pair(key, c->next_deliver));
      if (it == pending_.end()) return;
      msg = std::move(it->second);
      pending_.erase(it);
    }
  }

  /// Channels with a message in flight (stamped, not yet delivered).
  std::size_t live_channels() const { return table_.size(); }

 private:
  static constexpr std::uint32_t kSeqLimit = 0xffffffffu;

  /// 8 bytes per channel; sequence numbers are 32-bit (4G messages on a
  /// channel between two idle moments, asserted in stamp_channel()). A
  /// channel holds next_send > next_deliver while it is in the table.
  struct Chan {
    std::uint32_t next_send = 0;
    std::uint32_t next_deliver = 0;
  };

  std::uint64_t chan_key(ProcessId src, ProcessId dst) const {
    return static_cast<std::uint64_t>(src) * static_cast<std::uint64_t>(n_) +
           static_cast<std::uint64_t>(dst);
  }

  /// The channel of `key`, which must have a message in flight: an
  /// arrival on a retired channel was never stamped or is a duplicate.
  Chan& in_flight(std::uint64_t key) {
    Chan* c = table_.find(key);
    MCK_ASSERT_MSG(c != nullptr, "arrival on a channel with nothing in flight");
    return *c;
  }

  int n_;
  util::FlatMap<Chan> table_;  // only channels with a message in flight
  /// Parked overtakers, keyed (channel key, seq). Shared across channels:
  /// almost always empty, so the per-channel Chan stays 8 bytes.
  std::map<std::pair<std::uint64_t, std::uint64_t>, rt::Message> pending_;
};

}  // namespace mck::net
