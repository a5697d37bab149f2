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
//
// The log holds live state only. Once a line is final, a record whose
// send and receive both lie below it can never be an orphan or in transit
// on that line or any later one (lines only move forward), so
// retire_below() drops it after its verdict on the earlier lines is taken
// (ConsistencyChecker::settle). A run's memory is then bounded by the
// traffic since the last settled line, not by its horizon.
//
// A record is what the oracle reads and nothing more: the endpoints and
// the two event indices, 32 bytes. Send and receive times are in the
// flight recorder's kMsgSend/kMsgDeliver records, which a test that needs
// them reads instead (tests/full_history.hpp).
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/flat_map.hpp"
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
};
static_assert(sizeof(MsgRecord) == 32, "a live record costs 32 bytes");

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
  MessageId record_send(ProcessId src, ProcessId dst);

  /// Records the receive (processing) of computation message `id` at `dst`.
  void record_recv(MessageId id, ProcessId dst);

  /// Current event cursor of process p (== number of events logged at p).
  std::uint64_t cursor(ProcessId p) const {
    return cursors_[static_cast<std::size_t>(p)];
  }

  /// The live computation-message records, in send order: every record
  /// not yet retired.
  const std::vector<MsgRecord>& messages() const { return msgs_; }

  /// Number of records retired so far.
  std::uint64_t retired() const { return retired_; }

  /// Returns every orphan message w.r.t. `line`, which must be at or past
  /// the retirement frontier.
  std::vector<Orphan> find_orphans(const Line& line) const;

  /// Messages whose send is inside `line` but whose receive is not
  /// (in transit across the line). The paper's protocols do not record
  /// channel state, so these are reported but never an error. `line` must
  /// be at or past the retirement frontier.
  std::size_t count_in_transit(const Line& line) const;

  /// Drops every record whose send and receive both lie below the line
  /// whose entry for process p is `line(p)`, handing each to
  /// `retire(record)` first; the others keep their order. The line must
  /// be final and pointwise at or past the retirement frontier (the last
  /// such line), and becomes the new frontier.
  template <typename LineFn, typename Fn>
  void retire_below(LineFn&& line, Fn&& retire) {
    MCK_ASSERT_MSG(at_or_past_frontier(line), "retirement frontier moved back");
    std::size_t live = 0;
    for (const MsgRecord& m : msgs_) {
      if (m.recv_event != kNoEvent && m.send_event < line(m.src) &&
          m.recv_event < line(m.dst)) {
        retire(m);
        continue;
      }
      if (m.recv_event == kNoEvent) *in_transit_.find(m.id) = live;
      msgs_[live++] = m;
    }
    retired_ += msgs_.size() - live;
    msgs_.resize(live);
    frontier_.clear();
    for (ProcessId p = 0; p < num_processes(); ++p) {
      if (line(p) > 0) frontier_.emplace_back(p, line(p));
    }
  }

 private:
  /// Whether the line given by `line(p)` is pointwise at or past the
  /// retirement frontier: retired records are neither orphans nor in
  /// transit there, so a scan of the live records is exact.
  template <typename LineFn>
  bool at_or_past_frontier(LineFn&& line) const {
    for (const auto& [p, cursor] : frontier_) {
      if (line(p) < cursor) return false;
    }
    return true;
  }

  std::vector<std::uint64_t> cursors_;
  std::vector<MsgRecord> msgs_;
  util::FlatMap<std::size_t> in_transit_;  // unreceived MessageId -> msgs_ slot
  // The retirement frontier's nonzero entries: lines at 1M processes
  // touch few of them.
  std::vector<std::pair<ProcessId, std::uint64_t>> frontier_;
  std::uint64_t retired_ = 0;
  MessageId next_id_ = 1;
};

}  // namespace mck::ckpt
