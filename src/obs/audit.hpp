// Offline trace-replay auditor: an independent witness for the paper's
// correctness claims, recomputed from trace records alone.
//
// Four verdict families (ISSUE 5; see EXPERIMENTS.md "Auditing a run"):
//   causality    — every delivery matches an earlier send, channels stay
//                  FIFO per (src, dst, class), stamps are present.
//   consistency  — the trace-level restatement of Theorem 1: replaying
//                  committed rounds' line updates in commit order, no
//                  computation message is received inside the line but
//                  sent outside it (orphan detection, incl. the handoff /
//                  disconnection cases — the line updates of promoted
//                  disconnect checkpoints flow through kCkptPermanent
//                  like any other).
//   weight       — Huang-style termination bookkeeping: exact dyadic
//                  arithmetic over the recorded kWeightSplit /
//                  kWeightReturn bit patterns must conserve weight per
//                  process and sum to exactly 1 at commit.
//   lifecycle    — kCkptPromoted / kCkptPermanent / kCkptDiscarded only
//                  ever follow a valid kCkptTaken with a matching
//                  (initiation, ref), no use-after-discard.
//   blocking     — no computation send from inside a kBlock/kUnblock
//                  window (the mutable-checkpoint protocol's selling
//                  point is that it never blocks).
//   truncation   — the trace is complete: a kTruncated marker (record-cap
//                  overflow) means the tail of the run is missing, so no
//                  absence-based verdict can be trusted and the rep is
//                  refused certification. A rep with n > 65535 is refused
//                  outright (one verdict, no other check): message and
//                  weight records carry peer pids in a 16-bit field.
//
// On top of the causal graph the auditor attributes each committed
// round's init -> commit latency to wire / retry / MSS-buffer /
// participant / initiator-wait time by walking the latest-delivery chain
// backwards from the commit decision (the reconstructed critical path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/graph.hpp"
#include "obs/round_metrics.hpp"
#include "obs/trace_io.hpp"

namespace mck::obs {

enum class AuditCheck : std::uint8_t {
  kCausality,
  kConsistency,
  kWeight,
  kLifecycle,
  kBlocking,
  kTruncation,
};
inline constexpr int kAuditCheckCount = 6;

inline const char* to_string(AuditCheck c) {
  switch (c) {
    case AuditCheck::kCausality: return "causality";
    case AuditCheck::kConsistency: return "consistency";
    case AuditCheck::kWeight: return "weight";
    case AuditCheck::kLifecycle: return "lifecycle";
    case AuditCheck::kBlocking: return "blocking";
    case AuditCheck::kTruncation: return "truncation";
  }
  return "?";
}

struct AuditViolation {
  AuditCheck check = AuditCheck::kCausality;
  int rep = 0;
  sim::SimTime at = 0;
  std::uint64_t initiation = 0;  // 0: not tied to a specific round
  std::string detail;
};

/// Critical-path attribution of one committed round. The five time
/// columns sum exactly to `total` (= committed_at - started_at).
struct RoundAttribution {
  int rep = 0;
  std::uint64_t initiation = 0;
  std::int32_t initiator = -1;
  sim::SimTime started_at = 0;
  sim::SimTime committed_at = 0;
  sim::SimTime total = 0;
  sim::SimTime wire = 0;            // transit minus retry/buffer share
  sim::SimTime retry = 0;           // link-layer retransmission delay
  sim::SimTime buffer = 0;          // MSS buffering for disconnected MHs
  sim::SimTime participant = 0;     // handling gaps at non-initiators
  sim::SimTime initiator_wait = 0;  // gaps at the initiator (incl. local
                                    // checkpoint I/O and the decision)
  std::uint32_t hops = 0;           // messages on the critical path
};

struct AuditTotals {
  std::uint64_t runs = 0;
  std::uint64_t records = 0;
  std::uint64_t sends = 0;
  std::uint64_t delivers = 0;
  std::uint64_t in_transit = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t rounds_committed = 0;
  std::uint64_t rounds_aborted = 0;
  std::uint64_t orphan_checks = 0;  // (line, message) pairs tested
  std::uint64_t weight_rounds = 0;  // rounds with weight records audited
};

struct AuditReport {
  std::vector<AuditViolation> violations;
  std::vector<RoundAttribution> rounds;  // committed rounds, rep order
  AuditTotals totals;
  /// Summary and rounds of every audited run: equal to fold_runs() over
  /// the same runs, folded in the audit's own pass.
  TraceFold fold;

  bool ok() const { return violations.empty(); }
  std::size_t count(AuditCheck c) const {
    std::size_t n = 0;
    for (const AuditViolation& v : violations) n += v.check == c ? 1 : 0;
    return n;
  }
  /// The Theorem 1 verdict alone (what the in-sim checker also decides).
  bool consistent() const { return count(AuditCheck::kConsistency) == 0; }
};

/// Audits one run's records, appending into `out` (rep labels the run).
void audit_records(const TraceRecords& records, int num_processes,
                   int rep, AuditReport& out);

AuditReport audit_runs(const std::vector<TraceRun>& runs, int num_processes);

inline AuditReport audit_file(const TraceFile& f) {
  return audit_runs(f.runs, f.meta.num_processes);
}

/// Human-readable verdict summary; with `show_rounds`, appends the
/// per-round critical-path table.
std::string render_report(const AuditReport& r, bool show_rounds);

/// Machine-readable JSON document (schema in EXPERIMENTS.md).
std::string report_json(const AuditReport& r, const TraceFileMeta* meta);

}  // namespace mck::obs
