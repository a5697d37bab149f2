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
#include <vector>

#include "rt/message.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"

namespace mck::net {

class FifoSequencer {
 public:
  /// Small populations get a dense n*n channel table (no hashing on the
  /// per-message hot path); past the threshold the table would be
  /// quadratic in n (16 hosts: 16 KB; 1M hosts: ~16 TB), so channels are
  /// created lazily in an open-addressed flat table keyed by (src, dst)
  /// (util::FlatMap) — 16 bytes per touched channel, one multiply-mix
  /// hash and a linear probe per lookup (a broadcast at n = 1M touches a
  /// million channels, so per-channel footprint and lookup cost both
  /// matter). A channel that was never touched is identical to a
  /// default-constructed Chan, so the storage modes behave the same.
  /// Overtaken messages are parked in a shared ordered side map:
  /// out-of-order arrival is rare (reroutes after handoffs), so the
  /// per-channel structure stays lean.
  /// (Measured dead ends at n = 1k, do not revisit: raising kDenseLimit
  /// to cover n = 1k loses ~6% — zeroing two 16 MB tables dominates the
  /// ~0.1 s run; lazily allocated per-sender row arrays lose ~12% — the
  /// live hash table is ~1 MB and cache-hot, rows pay 8 MB of scattered
  /// zeroing plus a 64-bit division per lookup.)
  explicit FifoSequencer(int num_processes) : n_(num_processes) {
    if (num_processes <= kDenseLimit) {
      dense_.resize(static_cast<std::size_t>(num_processes) *
                    static_cast<std::size_t>(num_processes));
    }
  }

  /// Stamps a message with its channel sequence number. Must be called in
  /// send order.
  void stamp(rt::Message& msg) {
    msg.channel_seq = stamp_channel(msg.src, msg.dst);
  }

  /// Stamp variant for broadcast batching: allocates the next sequence
  /// number on (src, dst) without materializing a per-recipient Message at
  /// send time.
  std::uint32_t stamp_channel(ProcessId src, ProcessId dst) {
    Chan& c = chan(src, dst);
    MCK_ASSERT_MSG(c.next_send != kSeqLimit, "channel sequence overflow");
    return c.next_send++;
  }

  /// Broadcast-batch fast path: iff no overtaker is parked anywhere and
  /// `seq` is exactly the next expected on (src, dst), consumes the slot
  /// (advances next_deliver, with nothing to release afterwards) and
  /// returns true — the caller may deliver without ever materializing a
  /// per-recipient Message. Returns false untouched otherwise; the caller
  /// falls back to the full arrive() pipeline.
  bool try_fast_deliver(ProcessId src, ProcessId dst, std::uint32_t seq) {
    if (!pending_.empty()) return false;
    Chan& c = chan(src, dst);
    if (seq != c.next_deliver) return false;
    ++c.next_deliver;
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
    Chan& c = chan_by_key(key);
    if (msg.channel_seq != c.next_deliver) {
      MCK_ASSERT_MSG(msg.channel_seq > c.next_deliver,
                     "duplicate channel sequence number");
      pending_.emplace(std::make_pair(key, msg.channel_seq), std::move(msg));
      return;
    }
    ++c.next_deliver;
    deliver(std::move(msg));
    // The callback may create channels (sends from a LAN inline delivery
    // path), which can rehash the table — re-resolve instead of holding
    // the Chan reference across it.
    while (!pending_.empty()) {
      Chan& cur = chan_by_key(key);
      auto it = pending_.find(std::make_pair(key, cur.next_deliver));
      if (it == pending_.end()) break;
      rt::Message m = std::move(it->second);
      pending_.erase(it);
      ++chan_by_key(key).next_deliver;
      deliver(std::move(m));
    }
  }

 private:
  static constexpr int kDenseLimit = 256;
  static constexpr std::uint32_t kSeqLimit = 0xffffffffu;

  /// 8 bytes per channel; sequence numbers are 32-bit (4G messages per
  /// ordered pair, asserted in stamp()) so a 1M-host broadcast costs
  /// 16 B per touched channel instead of ~112 B under the old
  /// unordered_map-of-fat-Chan layout.
  struct Chan {
    std::uint32_t next_send = 0;
    std::uint32_t next_deliver = 0;
  };

  std::uint64_t chan_key(ProcessId src, ProcessId dst) const {
    return static_cast<std::uint64_t>(src) * static_cast<std::uint64_t>(n_) +
           static_cast<std::uint64_t>(dst);
  }

  Chan& chan(ProcessId src, ProcessId dst) {
    return chan_by_key(chan_key(src, dst));
  }

  Chan& chan_by_key(std::uint64_t key) {
    if (!dense_.empty()) return dense_[static_cast<std::size_t>(key)];
    return table_[key];
  }

  int n_;
  std::vector<Chan> dense_;    // n <= kDenseLimit: direct-indexed
  util::FlatMap<Chan> table_;  // otherwise: lazily populated
  /// Parked overtakers, keyed (channel key, seq). Shared across channels:
  /// almost always empty, so the per-channel Chan stays 8 bytes.
  std::map<std::pair<std::uint64_t, std::uint64_t>, rt::Message> pending_;
};

}  // namespace mck::net
