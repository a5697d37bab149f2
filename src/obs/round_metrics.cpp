#include "obs/round_metrics.hpp"

namespace mck::obs {

RoundMetrics& TraceFold::round_of(std::uint64_t initiation) {
  auto [it, fresh] = index_.emplace(initiation, rounds_.size());
  if (fresh) {
    rounds_.emplace_back();
    rounds_.back().initiation = initiation;
  }
  return rounds_[it->second];
}

const RoundMetrics* TraceFold::find(std::uint64_t initiation) const {
  auto it = index_.find(initiation);
  return it == index_.end() ? nullptr : &rounds_[it->second];
}

void TraceFold::end_run() {
  ++runs_;
  run_begin_ = rounds_.size();
  index_.clear();
  commits_.clear();
}

void TraceFold::add(const TraceRecord& r) {
  TraceSummary& s = summary_;
  ++s.total;
  if (r.kind < kTraceKindCount) ++s.by_kind[r.kind];
  switch (static_cast<TraceKind>(r.kind)) {
    case TraceKind::kMsgSend:
      if (r.sub < 16) ++s.msgs_sent_by_kind[r.sub];
      break;
    case TraceKind::kInitStart: {
      RoundMetrics& m = round_of(r.arg0);
      m.initiator = r.pid;
      m.started_at = r.at;
      break;
    }
    case TraceKind::kRoundCommit: {
      RoundMetrics& m = round_of(r.arg0);
      m.committed_at = r.at;
      commits_.push_back(static_cast<std::size_t>(&m - rounds_.data()));
      break;
    }
    case TraceKind::kRoundAbort: round_of(r.arg0).aborted_at = r.at; break;
    case TraceKind::kCkptTaken:
      if (r.sub < 8) ++s.ckpt_taken_by_kind[r.sub];
      if (r.sub != kRawCkptTentative) break;
      [[fallthrough]];
    case TraceKind::kCkptPromoted:
      // A checkpoint reached stable storage (arg0 == 0: a local decision,
      // not part of a round).
      if (r.arg0 != 0) {
        RoundMetrics& m = round_of(r.arg0);
        if (m.first_tentative_at < 0) m.first_tentative_at = r.at;
      }
      break;
    case TraceKind::kCkptDiscarded:
      if (r.sub == kRawCkptMutable) ++s.discarded_mutable;
      break;
    case TraceKind::kUnblock:
      s.blocked_total += static_cast<sim::SimTime>(r.arg0);
      break;
    case TraceKind::kQueueDepth:
      s.queue_depth_samples.push_back(r.arg0);
      break;
    case TraceKind::kTruncated:
      s.truncations.push_back(TruncationMark{
          runs_, r.arg0, static_cast<sim::SimTime>(r.arg1), r.at});
      break;
    default: break;
  }
}

TraceFold fold_runs(const std::vector<TraceRun>& runs) {
  TraceFold fold;
  for (const TraceRun& run : runs) {
    for (const TraceRecord& r : run.records) fold.add(r);
    fold.end_run();
  }
  return fold;
}

double mean_latency_s(const std::vector<RoundMetrics>& rounds,
                      sim::SimTime (RoundMetrics::*latency)() const) {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const RoundMetrics& m : rounds) {
    const sim::SimTime l = (m.*latency)();
    if (l < 0) continue;
    sum += sim::to_seconds(l);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

Registry build_registry(const TraceFold& fold) {
  const TraceSummary& s = fold.summary();
  Registry reg;
  reg.counter("trace.records").inc(s.total);
  reg.counter("sim.events_fired").inc(s.count(TraceKind::kEventFire));
  reg.counter("sim.events_cancelled").inc(s.count(TraceKind::kEventCancel));
  reg.counter("msg.sends").inc(s.count(TraceKind::kMsgSend));
  reg.counter("msg.delivers").inc(s.count(TraceKind::kMsgDeliver));
  reg.counter("rounds.started").inc(s.count(TraceKind::kInitStart));
  reg.counter("rounds.committed").inc(s.count(TraceKind::kRoundCommit));
  reg.counter("rounds.aborted").inc(s.count(TraceKind::kRoundAbort));
  reg.counter("ckpt.tentative")
      .inc(s.ckpt_taken_by_kind[kRawCkptTentative]);
  reg.counter("ckpt.mutable").inc(s.ckpt_taken_by_kind[kRawCkptMutable]);
  reg.counter("ckpt.promoted").inc(s.count(TraceKind::kCkptPromoted));
  reg.counter("ckpt.useless_mutable").inc(s.discarded_mutable);
  reg.counter("ckpt.permanent").inc(s.count(TraceKind::kCkptPermanent));
  reg.counter("weight.splits").inc(s.count(TraceKind::kWeightSplit));
  reg.counter("weight.returns").inc(s.count(TraceKind::kWeightReturn));
  reg.counter("mobility.handoffs").inc(s.count(TraceKind::kHandoff));
  reg.counter("mobility.disconnects").inc(s.count(TraceKind::kDisconnect));
  reg.counter("mobility.buffered_msgs")
      .inc(s.count(TraceKind::kMsgBuffered));
  reg.counter("mobility.forwarded_msgs")
      .inc(s.count(TraceKind::kMsgForwarded));
  reg.gauge("blocked.total_s").set(sim::to_seconds(s.blocked_total));

  std::vector<double> latency_buckets = {0.5, 1, 2, 5, 10, 30, 60, 300};
  Histogram& tent =
      reg.histogram("round.init_to_tentative_s", latency_buckets);
  Histogram& commit = reg.histogram("round.init_to_commit_s", latency_buckets);
  for (const RoundMetrics& m : fold.rounds()) {
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
