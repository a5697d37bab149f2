// Derived metrics over a recorded trace: whole-run tallies per record
// kind (TraceSummary) and the per-checkpoint-round latency breakdown
// (RoundMetrics) the paper's survey comparisons are phrased in —
// initiation -> first tentative -> commit, blocking time,
// weight-termination latency, useless-mutable counts.
//
// Both come from one fold (TraceFold): one add() per record, one switch
// that fills the summary and reassembles the rounds. The offline auditor
// drives the same fold in its own pass, so rounds are reassembled in one
// place only. Everything here is recomputed from TraceRecords alone,
// which is what lets tests cross-check the trace against rt::RunStats:
// two independent accounting paths must agree.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"

namespace mck::obs {

/// A kTruncated marker: the recorder hit its cap and dropped the tail of
/// run `run` (its ordinal among the folded runs).
struct TruncationMark {
  std::size_t run = 0;
  std::uint64_t dropped = 0;
  sim::SimTime since = 0;
  sim::SimTime at = 0;

  bool operator==(const TruncationMark&) const = default;
};

/// Whole-run tallies, accumulated record by record.
struct TraceSummary {
  std::uint64_t total = 0;
  std::uint64_t by_kind[kTraceKindCount] = {};
  /// kMsgSend records by their MsgKind discriminator (sub field).
  std::uint64_t msgs_sent_by_kind[16] = {};
  /// kCkptTaken records by their CkptKind discriminator.
  std::uint64_t ckpt_taken_by_kind[8] = {};
  std::uint64_t discarded_mutable = 0;  // kCkptDiscarded with sub==kMutable
  /// Sum of kUnblock durations; kBlock/kUnblock pair up per process.
  sim::SimTime blocked_total = 0;
  /// kQueueDepth samples (live pending events), for the --metrics
  /// queue-depth quantiles. Sampled, so bounded by events / sample period.
  std::vector<std::uint64_t> queue_depth_samples;
  std::vector<TruncationMark> truncations;

  /// Records of kind `k` (e.g. kRoundCommit: commit decisions).
  std::uint64_t count(TraceKind k) const {
    return by_kind[static_cast<int>(k)];
  }
  bool operator==(const TraceSummary&) const = default;
};

/// One checkpointing round (initiation), reassembled from its records.
struct RoundMetrics {
  std::uint64_t initiation = 0;
  std::int32_t initiator = -1;
  sim::SimTime started_at = -1;
  /// First checkpoint of the round on stable storage: a fresh tentative
  /// one or a promoted mutable one.
  sim::SimTime first_tentative_at = -1;
  sim::SimTime committed_at = -1;
  sim::SimTime aborted_at = -1;

  bool operator==(const RoundMetrics&) const = default;

  bool committed() const { return committed_at >= 0; }
  /// Initiation -> first stable checkpoint of the round.
  sim::SimTime tentative_latency() const {
    return first_tentative_at < 0 || started_at < 0
               ? -1
               : first_tentative_at - started_at;
  }
  /// Initiation -> initiator's commit decision (for the weight-based
  /// protocol this is exactly the weight-termination latency: the commit
  /// fires when the accumulated weight reaches one).
  sim::SimTime commit_latency() const {
    return !committed() || started_at < 0 ? -1 : committed_at - started_at;
  }
};

/// Mean of a per-round latency in seconds over the rounds where it is
/// defined (>= 0); 0 when it is defined for none.
double mean_latency_s(const std::vector<RoundMetrics>& rounds,
                      sim::SimTime (RoundMetrics::*latency)() const);

/// The one fold over a trace's records: add() fills the summary and
/// reassembles the rounds in a single switch. The summary concatenates
/// over runs; rounds are matched per run, since initiation ids (pid,
/// inum) repeat across independent replications — call end_run() after
/// each run's last record.
class TraceFold {
 public:
  void add(const TraceRecord& r);
  void end_run();

  const TraceSummary& summary() const { return summary_; }
  /// Every folded run's rounds; within a run, in order of first record.
  const std::vector<RoundMetrics>& rounds() const { return rounds_; }

  // The current run (records added since the last end_run()).
  /// Index in rounds() of the run's first round.
  std::size_t run_begin() const { return run_begin_; }
  /// The run's round `initiation`, or null if no record created it.
  const RoundMetrics* find(std::uint64_t initiation) const;
  /// The run's kRoundCommit records in order, as indices into rounds().
  const std::vector<std::size_t>& commits() const { return commits_; }

 private:
  RoundMetrics& round_of(std::uint64_t initiation);

  TraceSummary summary_;
  std::vector<RoundMetrics> rounds_;
  std::size_t runs_ = 0;
  std::size_t run_begin_ = 0;
  std::map<std::uint64_t, std::size_t> index_;  // initiation -> rounds_
  std::vector<std::size_t> commits_;
};

/// Folds every run of a trace file's worth of runs.
TraceFold fold_runs(const std::vector<TraceRun>& runs);

/// Builds the --metrics registry: whole-run counters plus the per-round
/// latency histograms (seconds).
Registry build_registry(const TraceFold& fold);

}  // namespace mck::obs
