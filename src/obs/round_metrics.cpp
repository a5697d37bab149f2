#include "obs/round_metrics.hpp"

#include <map>

namespace mck::obs {

void accumulate(TraceSummary& s, const std::vector<TraceRecord>& records) {
  for (const TraceRecord& r : records) {
    ++s.total;
    if (r.kind < kTraceKindCount) ++s.by_kind[r.kind];
    switch (static_cast<TraceKind>(r.kind)) {
      case TraceKind::kEventFire: ++s.events_fired; break;
      case TraceKind::kEventCancel: ++s.events_cancelled; break;
      case TraceKind::kMsgSend:
        if (r.sub < 16) ++s.msgs_sent_by_kind[r.sub];
        break;
      case TraceKind::kCkptTaken:
        if (r.sub < 8) ++s.ckpt_taken_by_kind[r.sub];
        break;
      case TraceKind::kInitStart: ++s.rounds_started; break;
      case TraceKind::kRoundCommit: ++s.rounds_committed; break;
      case TraceKind::kRoundAbort: ++s.rounds_aborted; break;
      case TraceKind::kCkptPromoted: ++s.promoted; break;
      case TraceKind::kCkptDiscarded:
        if (r.sub == kRawCkptMutable) ++s.discarded_mutable;
        break;
      case TraceKind::kCkptPermanent: ++s.permanent; break;
      case TraceKind::kUnblock: {
        s.blocked_total += static_cast<sim::SimTime>(r.arg0);
        if (r.pid >= 0) {
          std::size_t p = static_cast<std::size_t>(r.pid);
          if (s.blocked_by_pid.size() <= p) s.blocked_by_pid.resize(p + 1, 0);
          s.blocked_by_pid[p] += static_cast<sim::SimTime>(r.arg0);
        }
        break;
      }
      case TraceKind::kHandoff: ++s.handoffs; break;
      case TraceKind::kDisconnect: ++s.disconnects; break;
      case TraceKind::kReconnect: ++s.reconnects; break;
      case TraceKind::kMsgBuffered: ++s.buffered; break;
      case TraceKind::kMsgForwarded: ++s.forwarded; break;
      case TraceKind::kMsgRetry:
        s.retries += retry_count_of(r.arg1);
        s.retry_extra_total += retry_extra_of(r.arg1);
        break;
      case TraceKind::kQueueDepth:
        s.queue_depth_samples.push_back(r.arg0);
        break;
      case TraceKind::kWeightSplit: ++s.weight_splits; break;
      case TraceKind::kWeightReturn: ++s.weight_returns; break;
      default: break;
    }
  }
}

std::vector<RoundMetrics> derive_rounds(
    const std::vector<TraceRecord>& records) {
  std::map<std::uint64_t, std::size_t> index;
  std::vector<RoundMetrics> rounds;
  auto round_of = [&](std::uint64_t initiation) -> RoundMetrics& {
    auto [it, fresh] = index.emplace(initiation, rounds.size());
    if (fresh) {
      rounds.emplace_back();
      rounds.back().initiation = initiation;
    }
    return rounds[it->second];
  };
  for (const TraceRecord& r : records) {
    switch (static_cast<TraceKind>(r.kind)) {
      case TraceKind::kInitStart: {
        RoundMetrics& m = round_of(r.arg0);
        m.initiator = r.pid;
        m.started_at = r.at;
        break;
      }
      case TraceKind::kCkptTaken: {
        if (r.arg0 == 0) break;  // local decision, not part of a round
        RoundMetrics& m = round_of(r.arg0);
        if (r.sub == kRawCkptTentative) {
          ++m.tentative;
          if (m.first_tentative_at < 0) m.first_tentative_at = r.at;
          m.last_tentative_at = r.at;
        } else if (r.sub == kRawCkptMutable) {
          ++m.mutables;
        }
        break;
      }
      case TraceKind::kCkptPromoted: {
        if (r.arg0 == 0) break;
        RoundMetrics& m = round_of(r.arg0);
        ++m.promoted;
        // A promotion also puts a checkpoint on stable storage: it counts
        // toward the round's tentative-latency clock.
        if (m.first_tentative_at < 0) m.first_tentative_at = r.at;
        m.last_tentative_at = r.at;
        break;
      }
      case TraceKind::kCkptDiscarded:
        if (r.arg0 != 0 && r.sub == kRawCkptMutable) {
          ++round_of(r.arg0).discarded;
        }
        break;
      case TraceKind::kRoundCommit:
        round_of(r.arg0).committed_at = r.at;
        break;
      case TraceKind::kRoundAbort:
        round_of(r.arg0).aborted_at = r.at;
        break;
      case TraceKind::kWeightSplit:
        ++round_of(r.arg0).weight_splits;
        break;
      default: break;
    }
  }
  return rounds;
}

TraceSummary summarize_runs(const std::vector<TraceRun>& runs) {
  TraceSummary s;
  for (const TraceRun& run : runs) accumulate(s, run.records);
  return s;
}

std::vector<RoundMetrics> derive_rounds_runs(const std::vector<TraceRun>& runs) {
  std::vector<RoundMetrics> all;
  for (const TraceRun& run : runs) {
    std::vector<RoundMetrics> one = derive_rounds(run.records);
    all.insert(all.end(), one.begin(), one.end());
  }
  return all;
}

Registry build_registry(const TraceSummary& s,
                        const std::vector<RoundMetrics>& rounds) {
  Registry reg;
  reg.counter("trace.records").inc(s.total);
  reg.counter("sim.events_fired").inc(s.events_fired);
  reg.counter("sim.events_cancelled").inc(s.events_cancelled);
  reg.counter("msg.sends").inc(s.by_kind[static_cast<int>(TraceKind::kMsgSend)]);
  reg.counter("msg.delivers")
      .inc(s.by_kind[static_cast<int>(TraceKind::kMsgDeliver)]);
  reg.counter("rounds.started").inc(s.rounds_started);
  reg.counter("rounds.committed").inc(s.rounds_committed);
  reg.counter("rounds.aborted").inc(s.rounds_aborted);
  reg.counter("ckpt.tentative")
      .inc(s.ckpt_taken_by_kind[kRawCkptTentative]);
  reg.counter("ckpt.mutable").inc(s.ckpt_taken_by_kind[kRawCkptMutable]);
  reg.counter("ckpt.promoted").inc(s.promoted);
  reg.counter("ckpt.useless_mutable").inc(s.discarded_mutable);
  reg.counter("ckpt.permanent").inc(s.permanent);
  reg.counter("weight.splits").inc(s.weight_splits);
  reg.counter("weight.returns").inc(s.weight_returns);
  reg.counter("mobility.handoffs").inc(s.handoffs);
  reg.counter("mobility.disconnects").inc(s.disconnects);
  reg.counter("mobility.buffered_msgs").inc(s.buffered);
  reg.counter("mobility.forwarded_msgs").inc(s.forwarded);
  reg.gauge("blocked.total_s").set(sim::to_seconds(s.blocked_total));

  std::vector<double> latency_buckets = {0.5, 1, 2, 5, 10, 30, 60, 300};
  Histogram& tent =
      reg.histogram("round.init_to_tentative_s", latency_buckets);
  Histogram& commit = reg.histogram("round.init_to_commit_s", latency_buckets);
  for (const RoundMetrics& m : rounds) {
    if (m.tentative_latency() >= 0) {
      tent.observe(sim::to_seconds(m.tentative_latency()));
    }
    if (m.commit_latency() >= 0) {
      commit.observe(sim::to_seconds(m.commit_latency()));
    }
  }

  std::vector<double> depth_buckets = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  Histogram& depth = reg.histogram("sim.queue_depth", depth_buckets);
  for (std::uint64_t d : s.queue_depth_samples) {
    depth.observe(static_cast<double>(d));
  }
  return reg;
}

}  // namespace mck::obs
