// Global record of computation-message send/receive events.
//
// Every process has a private event counter that advances on each
// computation-message send or receive. A checkpoint of process p is
// abstracted as a *cursor* c: the saved state contains exactly the events
// of p with index < c. A global checkpoint is then a vector of cursors
// (a "line"), and message m is an *orphan* w.r.t. a line L iff its receive
// is inside the line but its send is not:
//     recv_event < L[dst]  &&  send_event >= L[src].
// This is the oracle the correctness proof (Theorem 1) is tested against.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.hpp"
#include "util/types.hpp"

namespace mck::ckpt {

inline constexpr std::uint64_t kNoEvent =
    std::numeric_limits<std::uint64_t>::max();

struct MsgRecord {
  MessageId id = 0;
  ProcessId src = kInvalidProcess;
  ProcessId dst = kInvalidProcess;
  std::uint64_t send_event = kNoEvent;  // event index at src
  std::uint64_t recv_event = kNoEvent;  // event index at dst (kNoEvent: in transit)
  sim::SimTime sent_at = 0;
  sim::SimTime recv_at = 0;
};

/// A global checkpoint line: cursors_[p] = number of events of P_p covered.
struct Line {
  std::vector<std::uint64_t> cursors;

  explicit Line(std::size_t n = 0) : cursors(n, 0) {}
  std::uint64_t operator[](ProcessId p) const {
    return cursors[static_cast<std::size_t>(p)];
  }
  std::uint64_t& operator[](ProcessId p) {
    return cursors[static_cast<std::size_t>(p)];
  }
  std::size_t size() const { return cursors.size(); }
};

struct Orphan {
  MessageId msg;
  ProcessId src, dst;
  std::uint64_t send_event, recv_event;
};

class EventLog {
 public:
  explicit EventLog(int num_processes)
      : cursors_(static_cast<std::size_t>(num_processes), 0) {}

  int num_processes() const { return static_cast<int>(cursors_.size()); }

  /// Allocates a MessageId (also for system messages, which are not
  /// logged as dependency events).
  MessageId next_msg_id() { return next_id_++; }

  /// Records the send of a computation message; returns its id.
  MessageId record_send(ProcessId src, ProcessId dst, sim::SimTime at);

  /// Records the receive (processing) of computation message `id` at `dst`.
  void record_recv(MessageId id, ProcessId dst, sim::SimTime at);

  /// Current event cursor of process p (== number of events logged at p).
  std::uint64_t cursor(ProcessId p) const {
    return cursors_[static_cast<std::size_t>(p)];
  }

  /// All computation messages recorded so far.
  const std::vector<MsgRecord>& messages() const { return msgs_; }

  /// Returns every orphan message w.r.t. `line`.
  std::vector<Orphan> find_orphans(const Line& line) const;

  /// Messages whose send is inside `line` but whose receive is not
  /// (in transit across the line). The paper's protocols do not record
  /// channel state, so these are reported but never an error.
  std::size_t count_in_transit(const Line& line) const;

 private:
  std::vector<std::uint64_t> cursors_;
  std::vector<MsgRecord> msgs_;
  std::vector<std::size_t> index_by_id_;  // MessageId -> msgs_ slot (+1), 0 = none
  MessageId next_id_ = 1;
};

}  // namespace mck::ckpt
