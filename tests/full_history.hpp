// Full-history references for tests of the history-free event log.
//
// A System's EventLog retires the records behind settled lines, so a test
// that needs the whole history (random lines anywhere in the past, a
// record-by-record comparison, the per-line reference checker) rebuilds it
// from the run's flight-recorder records. The computation kMsgSend and
// kMsgDeliver records stamp the send and receive event + 1
// (obs::msg_stamp_of), so the rebuilt log equals the one a never-retiring
// run would have kept. The same records carry the send and receive times,
// which the log does not keep; message_times reads them.
#pragma once

#include <string>
#include <vector>

#include "ckpt/checker.hpp"
#include "ckpt/event_log.hpp"
#include "ckpt/tracker.hpp"
#include "obs/trace.hpp"

namespace mck::ckpt {

/// The trace kinds full_history reads.
inline constexpr std::uint64_t kFullHistoryKinds =
    obs::Tracer::mask_of(obs::TraceKind::kMsgSend) |
    obs::Tracer::mask_of(obs::TraceKind::kMsgDeliver);

/// The never-retired event log of one run of `num_processes` processes,
/// rebuilt from its records in append order.
EventLog full_history(const std::vector<obs::TraceRecord>& records,
                      int num_processes);

/// Simulation times of one computation message's send and receive.
struct MessageTimes {
  sim::SimTime sent_at = 0;
  sim::SimTime recv_at = 0;  // 0 while never received
};

/// The send and receive times of every computation message in `records`,
/// in send order: entry i belongs to full_history(records).messages()[i].
std::vector<MessageTimes> message_times(
    const std::vector<obs::TraceRecord>& records);

/// Empty if `live` (a log that retires) holds exactly the records of
/// `full` that it has not retired, in order and field for field; else the
/// first difference.
std::string live_log_mismatch(const EventLog& full, const EventLog& live);

/// Reference oracle: the per-line loop, one find_orphans and one
/// count_in_transit scan of the whole log per committed line.
CheckResult check_per_line(const EventLog& log,
                           const CoordinationTracker& tracker);

/// Empty if the two results are equal (orphans in order); else the first
/// difference.
std::string check_result_mismatch(const CheckResult& got,
                                  const CheckResult& want);

}  // namespace mck::ckpt
