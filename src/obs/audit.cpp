#include "obs/audit.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "stats/table.hpp"
#include "util/json.hpp"
#include "util/weight.hpp"

namespace mck::obs {

namespace {

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

/// Replay state of one checkpoint ref.
struct CkptState {
  std::int32_t pid = -1;
  std::uint8_t kind = 0;
  std::uint64_t initiation = 0;
  std::uint64_t cursor = 0;
  bool has_cursor = false;
  bool discarded = false;
};

/// Replay state of one checkpointing round.
struct Round {
  std::uint64_t initiation = 0;
  std::int32_t initiator = -1;
  sim::SimTime started_at = -1;
  sim::SimTime committed_at = -1;
  sim::SimTime aborted_at = -1;
  std::vector<std::pair<std::int32_t, std::uint64_t>> line_updates;
  // Weight ledger (exact dyadic arithmetic over the recorded bit
  // patterns): what each process was given vs. what left it again.
  bool has_weight = false;
  bool weight_flagged = false;  // one violation per round, not a storm
  std::vector<util::Weight> given;
  std::vector<util::Weight> spent;
  util::Weight last_acc;
  // Records contributing to the ledger. Trace weights are IEEE doubles,
  // so each record is faithful only to ~2^-53 absolute (weights and
  // accumulators are <= 1); a ledger imbalance below weight_records *
  // 2^-53 is quantization of deep split chains, not a forged weight.
  std::uint64_t weight_records = 0;
};

sim::SimTime clamp_time(sim::SimTime v, sim::SimTime lo, sim::SimTime hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Walks the latest-delivery chain backwards from the commit decision and
/// splits the round's latency into the five attribution buckets. The
/// buckets telescope: they always sum exactly to committed_at - started_at.
RoundAttribution attribute_round(const Round& rd, const CausalGraph& g,
                                 int num_processes, int rep) {
  RoundAttribution a;
  a.rep = rep;
  a.initiation = rd.initiation;
  a.initiator = rd.initiator;
  a.started_at = rd.started_at;
  a.committed_at = rd.committed_at;
  a.total = rd.committed_at - rd.started_at;

  std::int32_t pid = rd.initiator;
  sim::SimTime t = rd.committed_at;
  const sim::SimTime t0 = rd.started_at;
  for (std::uint32_t guard = 0;; ++guard) {
    auto& wait_bucket = pid == rd.initiator ? a.initiator_wait : a.participant;
    if (pid < 0 || pid >= num_processes || guard > 100000) {
      wait_bucket += t - t0;
      break;
    }
    // Latest delivery at `pid` inside [t0, t].
    const auto& list = g.delivers_by_pid[static_cast<std::size_t>(pid)];
    auto it = std::upper_bound(
        list.begin(), list.end(), t,
        [&](sim::SimTime tt, std::uint32_t idx) {
          return tt < g.hops[idx].delivered_at;
        });
    if (it == list.begin() || g.hops[*(it - 1)].delivered_at < t0) {
      wait_bucket += t - t0;
      break;
    }
    const MsgHop& hop = g.hops[*(it - 1)];
    wait_bucket += t - hop.delivered_at;
    sim::SimTime transit_start = std::max(hop.sent_at, t0);
    sim::SimTime transit = hop.delivered_at - transit_start;
    sim::SimTime buf = 0;
    if (hop.buffered_at >= 0) {
      buf = clamp_time(hop.delivered_at - std::max(hop.buffered_at,
                                                   transit_start),
                       0, transit);
    }
    sim::SimTime retry = clamp_time(hop.retry_extra, 0, transit - buf);
    a.buffer += buf;
    a.retry += retry;
    a.wire += transit - buf - retry;
    ++a.hops;
    if (hop.sent_at <= t0) break;  // chain reached the window start
    pid = hop.src;
    t = hop.sent_at;
  }
  return a;
}

}  // namespace

void audit_records(const std::vector<TraceRecord>& records, int num_processes,
                   int rep, AuditReport& out) {
  auto violate = [&](AuditCheck c, sim::SimTime at, std::uint64_t initiation,
                     std::string detail) {
    out.violations.push_back(
        AuditViolation{c, rep, at, initiation, std::move(detail)});
  };

  // ---- causal graph (matching + FIFO discipline) ----------------------
  CausalGraph g = build_graph(records, num_processes);
  for (const CausalIssue& is : g.issues) {
    violate(AuditCheck::kCausality, is.at, 0,
            fmt("msg %llu: %s", static_cast<unsigned long long>(is.msg_id),
                is.detail.c_str()));
  }
  out.totals.records += records.size();
  out.totals.sends += g.sends;
  out.totals.delivers += g.delivers;
  out.totals.in_transit += g.in_transit;

  // ---- replay: checkpoint lifecycle, rounds, blocking, weights --------
  std::unordered_map<std::uint64_t, CkptState> ckpts;
  std::map<std::uint64_t, Round> rounds;  // ordered: stable reporting
  std::vector<std::uint64_t> commit_order;
  std::vector<char> blocked(static_cast<std::size_t>(num_processes), 0);

  auto round_of = [&](std::uint64_t initiation) -> Round& {
    Round& rd = rounds[initiation];
    if (rd.initiation == 0) {
      rd.initiation = initiation;
      rd.initiator = static_cast<std::int32_t>(initiation >> 32);
      rd.given.resize(static_cast<std::size_t>(num_processes));
      rd.spent.resize(static_cast<std::size_t>(num_processes));
    }
    return rd;
  };

  for (const TraceRecord& r : records) {
    switch (static_cast<TraceKind>(r.kind)) {
      case TraceKind::kCkptTaken: {
        const std::uint64_t ref = r.arg1 >> 32;
        ++out.totals.checkpoints;
        CkptState st;
        st.pid = r.pid;
        st.kind = r.sub;
        st.initiation = r.arg0;
        if (!ckpts.emplace(ref, st).second) {
          violate(AuditCheck::kLifecycle, r.at, r.arg0,
                  fmt("checkpoint ref %llu taken twice",
                      static_cast<unsigned long long>(ref)));
        }
        break;
      }
      case TraceKind::kCkptCursor: {
        auto it = ckpts.find(r.arg0);
        if (it == ckpts.end()) {
          violate(AuditCheck::kLifecycle, r.at, 0,
                  fmt("cursor record for unknown checkpoint ref %llu",
                      static_cast<unsigned long long>(r.arg0)));
          break;
        }
        it->second.cursor = r.arg1;
        it->second.has_cursor = true;
        break;
      }
      case TraceKind::kCkptPromoted: {
        auto it = ckpts.find(r.arg1);
        if (it == ckpts.end()) {
          violate(AuditCheck::kLifecycle, r.at, r.arg0,
                  fmt("promotion of checkpoint ref %llu before it was taken",
                      static_cast<unsigned long long>(r.arg1)));
          break;
        }
        CkptState& st = it->second;
        if (st.discarded) {
          violate(AuditCheck::kLifecycle, r.at, r.arg0,
                  fmt("promotion of discarded checkpoint ref %llu",
                      static_cast<unsigned long long>(r.arg1)));
        } else if (st.kind != kRawCkptMutable &&
                   st.kind != kRawCkptDisconnect) {
          violate(AuditCheck::kLifecycle, r.at, r.arg0,
                  fmt("promotion of a %s checkpoint (ref %llu)",
                      ckpt_kind_name(st.kind),
                      static_cast<unsigned long long>(r.arg1)));
        }
        st.kind = kRawCkptTentative;
        st.initiation = r.arg0;
        break;
      }
      case TraceKind::kCkptPermanent: {
        auto it = ckpts.find(r.arg1);
        if (it == ckpts.end()) {
          violate(AuditCheck::kLifecycle, r.at, r.arg0,
                  fmt("checkpoint ref %llu made permanent before it was taken",
                      static_cast<unsigned long long>(r.arg1)));
          break;
        }
        CkptState& st = it->second;
        if (st.discarded) {
          violate(AuditCheck::kLifecycle, r.at, r.arg0,
                  fmt("discarded checkpoint ref %llu made permanent",
                      static_cast<unsigned long long>(r.arg1)));
        } else if (st.kind != kRawCkptTentative) {
          violate(AuditCheck::kLifecycle, r.at, r.arg0,
                  fmt("%s checkpoint ref %llu made permanent (must be "
                      "tentative first)",
                      ckpt_kind_name(st.kind),
                      static_cast<unsigned long long>(r.arg1)));
        } else if (st.initiation != r.arg0) {
          violate(AuditCheck::kLifecycle, r.at, r.arg0,
                  fmt("checkpoint ref %llu committed under initiation %s but "
                      "taken for %s",
                      static_cast<unsigned long long>(r.arg1),
                      initiation_label(r.arg0).c_str(),
                      initiation_label(st.initiation).c_str()));
        }
        st.kind = kRawCkptPermanent;
        if (r.arg0 != 0) {
          if (!st.has_cursor) {
            violate(AuditCheck::kLifecycle, r.at, r.arg0,
                    fmt("checkpoint ref %llu has no cursor record; cannot "
                        "place it on the committed line",
                        static_cast<unsigned long long>(r.arg1)));
          }
          round_of(r.arg0).line_updates.emplace_back(st.pid, st.cursor);
        }
        break;
      }
      case TraceKind::kCkptDiscarded: {
        auto it = ckpts.find(r.arg1);
        if (it == ckpts.end()) {
          violate(AuditCheck::kLifecycle, r.at, r.arg0,
                  fmt("discard of checkpoint ref %llu before it was taken",
                      static_cast<unsigned long long>(r.arg1)));
          break;
        }
        CkptState& st = it->second;
        if (st.kind == kRawCkptPermanent) {
          violate(AuditCheck::kLifecycle, r.at, r.arg0,
                  fmt("permanent checkpoint ref %llu discarded",
                      static_cast<unsigned long long>(r.arg1)));
        } else if (st.discarded) {
          violate(AuditCheck::kLifecycle, r.at, r.arg0,
                  fmt("checkpoint ref %llu discarded twice",
                      static_cast<unsigned long long>(r.arg1)));
        }
        st.discarded = true;
        break;
      }
      case TraceKind::kInitStart: {
        Round& rd = round_of(r.arg0);
        rd.initiator = r.pid;
        rd.started_at = r.at;
        break;
      }
      case TraceKind::kRoundCommit: {
        Round& rd = round_of(r.arg0);
        rd.committed_at = r.at;
        commit_order.push_back(r.arg0);
        break;
      }
      case TraceKind::kRoundAbort:
        round_of(r.arg0).aborted_at = r.at;
        break;
      case TraceKind::kBlock:
        if (r.pid >= 0 && r.pid < num_processes) {
          if (blocked[static_cast<std::size_t>(r.pid)]) {
            violate(AuditCheck::kBlocking, r.at, 0,
                    fmt("P%d blocked twice without an unblock", r.pid));
          }
          blocked[static_cast<std::size_t>(r.pid)] = 1;
        }
        break;
      case TraceKind::kUnblock:
        if (r.pid >= 0 && r.pid < num_processes) {
          if (!blocked[static_cast<std::size_t>(r.pid)]) {
            violate(AuditCheck::kBlocking, r.at, 0,
                    fmt("P%d unblocked while not blocked", r.pid));
          }
          blocked[static_cast<std::size_t>(r.pid)] = 0;
        }
        break;
      case TraceKind::kMsgSend:
        if (r.sub == kRawMsgComputation && r.pid >= 0 &&
            r.pid < num_processes && blocked[static_cast<std::size_t>(r.pid)]) {
          violate(AuditCheck::kBlocking, r.at, 0,
                  fmt("P%d sent computation message %llu while blocked",
                      r.pid, static_cast<unsigned long long>(r.arg0)));
        }
        break;
      case TraceKind::kWeightSplit: {
        Round& rd = round_of(r.arg0);
        rd.has_weight = true;
        ++rd.weight_records;
        util::Weight w = util::Weight::from_double_bits(r.arg1);
        if (w.is_zero()) {
          violate(AuditCheck::kWeight, r.at, r.arg0,
                  fmt("weight split of exactly zero by P%d", r.pid));
        }
        if (r.pid >= 0 && r.pid < num_processes) {
          rd.spent[static_cast<std::size_t>(r.pid)].add(w);
        }
        if (r.aux < static_cast<std::uint16_t>(num_processes)) {
          rd.given[r.aux].add(w);
        }
        break;
      }
      case TraceKind::kWeightReturn: {
        Round& rd = round_of(r.arg0);
        rd.has_weight = true;
        ++rd.weight_records;
        util::Weight acc = util::Weight::from_double_bits(r.arg1);
        util::Weight diff = acc;
        // A decrease is forged; an exactly-unchanged accumulator is a
        // return smaller than half an ulp of acc — below the recorded
        // doubles' resolution, so it neither violates nor credits spent.
        if (!diff.try_subtract(rd.last_acc)) {
          if (!rd.weight_flagged) {
            rd.weight_flagged = true;
            violate(AuditCheck::kWeight, r.at, r.arg0,
                    fmt("accumulated weight decreased on the return "
                        "from P%u (%.17g -> %.17g)",
                        static_cast<unsigned>(r.aux), rd.last_acc.to_double(),
                        acc.to_double()));
          }
        } else if (r.aux < static_cast<std::uint16_t>(num_processes)) {
          // The increment is what this reply returned: it left the replier.
          rd.spent[r.aux].add(diff);
        }
        rd.last_acc = acc;
        break;
      }
      case TraceKind::kTruncated:
        // The recorder hit its cap and dropped the tail of the run. Every
        // absence-based check (conservation, termination, lifecycle
        // completion) is now unfalsifiable, so the rep is refused
        // certification outright.
        violate(AuditCheck::kTruncation, r.at, 0,
                fmt("trace truncated: %llu record(s) dropped since "
                    "t=%.6fs — cannot certify this rep",
                    static_cast<unsigned long long>(r.arg0),
                    static_cast<double>(r.arg1) / 1e9));
        break;
      default:
        break;
    }
  }

  // ---- round verdicts -------------------------------------------------
  for (auto& [initiation, rd] : rounds) {
    if (rd.committed_at >= 0) ++out.totals.rounds_committed;
    if (rd.aborted_at >= 0) ++out.totals.rounds_aborted;
    if (!rd.has_weight) continue;
    ++out.totals.weight_rounds;
    // Conservation per process: nothing leaves a process (onward splits +
    // returned increments) beyond what it was given (incoming splits,
    // plus the initiator's initial weight of 1).
    if (rd.initiator >= 0 && rd.initiator < num_processes) {
      rd.given[static_cast<std::size_t>(rd.initiator)].add(
          util::Weight::one());
    }
    // Measurement floor: every contributing record may be off by half an
    // ulp of a value <= 1, so only an excess above weight_records * 2^-53
    // is distinguishable from quantization (see Round::weight_records).
    const double quant_floor =
        static_cast<double>(rd.weight_records) * 0x1p-53;
    for (int p = 0; p < num_processes; ++p) {
      const util::Weight& spent = rd.spent[static_cast<std::size_t>(p)];
      const util::Weight& given = rd.given[static_cast<std::size_t>(p)];
      if (given < spent) {
        util::Weight excess = spent;
        excess.try_subtract(given);
        if (excess.to_double() <= quant_floor) continue;
        violate(AuditCheck::kWeight,
                rd.committed_at >= 0 ? rd.committed_at : rd.started_at,
                initiation,
                fmt("P%d emitted more weight (%.17g) than it was given "
                    "(%.17g)",
                    p, spent.to_double(), given.to_double()));
      }
    }
    // Termination: a committed round's returns must sum to exactly 1.
    if (rd.committed_at >= 0 && !rd.last_acc.is_one()) {
      violate(AuditCheck::kWeight, rd.committed_at, initiation,
              fmt("committed with accumulated weight %.17g != 1",
                  rd.last_acc.to_double()));
    }
  }

  // ---- consistency: Theorem 1 over the reconstructed lines ------------
  std::vector<std::uint64_t> line(static_cast<std::size_t>(num_processes), 0);
  std::unordered_set<std::size_t> flagged_hops;
  for (std::uint64_t initiation : commit_order) {
    const Round& rd = rounds[initiation];
    for (const auto& [pid, cursor] : rd.line_updates) {
      if (pid < 0 || pid >= num_processes) continue;
      // A later checkpoint never moves the line backwards.
      if (cursor > line[static_cast<std::size_t>(pid)]) {
        line[static_cast<std::size_t>(pid)] = cursor;
      }
    }
    for (std::size_t i = 0; i < g.hops.size(); ++i) {
      const MsgHop& h = g.hops[i];
      if (!h.computation || h.send_stamp == 0 || h.recv_stamp == 0) continue;
      if (h.src < 0 || h.src >= num_processes || h.dst < 0 ||
          h.dst >= num_processes) {
        continue;
      }
      ++out.totals.orphan_checks;
      const std::uint64_t send_event = h.send_stamp - 1;
      const std::uint64_t recv_event = h.recv_stamp - 1;
      if (recv_event < line[static_cast<std::size_t>(h.dst)] &&
          send_event >= line[static_cast<std::size_t>(h.src)]) {
        if (flagged_hops.insert(i).second) {
          violate(AuditCheck::kConsistency, rd.committed_at, initiation,
                  fmt("orphan msg %llu: P%d(ev %llu) -> P%d(ev %llu) crosses "
                      "the committed line",
                      static_cast<unsigned long long>(h.id), h.src,
                      static_cast<unsigned long long>(send_event), h.dst,
                      static_cast<unsigned long long>(recv_event)));
        }
      }
    }
  }

  // ---- critical-path attribution --------------------------------------
  for (std::uint64_t initiation : commit_order) {
    const Round& rd = rounds[initiation];
    if (rd.started_at < 0 || rd.committed_at < rd.started_at) continue;
    out.rounds.push_back(attribute_round(rd, g, num_processes, rep));
  }
}

AuditReport audit_runs(const std::vector<TraceRun>& runs, int num_processes) {
  AuditReport report;
  for (const TraceRun& run : runs) {
    ++report.totals.runs;
    audit_records(run.records, num_processes, run.rep, report);
  }
  return report;
}

namespace {

double ms(sim::SimTime t) { return static_cast<double>(t) / 1e6; }
double secs(sim::SimTime t) { return static_cast<double>(t) / 1e9; }

}  // namespace

std::string render_report(const AuditReport& r, bool show_rounds) {
  std::string out;
  out += r.ok() ? "audit: OK"
                : fmt("audit: %zu VIOLATION(S)", r.violations.size());
  out += fmt(" — %llu run(s), %llu records, %llu sends, %llu delivers, "
             "%llu in transit\n",
             static_cast<unsigned long long>(r.totals.runs),
             static_cast<unsigned long long>(r.totals.records),
             static_cast<unsigned long long>(r.totals.sends),
             static_cast<unsigned long long>(r.totals.delivers),
             static_cast<unsigned long long>(r.totals.in_transit));
  out += fmt("  checkpoints=%llu rounds=%llu committed / %llu aborted, "
             "orphan-checks=%llu, weight-rounds=%llu\n",
             static_cast<unsigned long long>(r.totals.checkpoints),
             static_cast<unsigned long long>(r.totals.rounds_committed),
             static_cast<unsigned long long>(r.totals.rounds_aborted),
             static_cast<unsigned long long>(r.totals.orphan_checks),
             static_cast<unsigned long long>(r.totals.weight_rounds));
  out += "  checks:";
  for (int c = 0; c < kAuditCheckCount; ++c) {
    out += fmt(" %s=%zu", to_string(static_cast<AuditCheck>(c)),
               r.count(static_cast<AuditCheck>(c)));
  }
  out += "\n";
  constexpr std::size_t kMaxShown = 20;
  for (std::size_t i = 0; i < r.violations.size() && i < kMaxShown; ++i) {
    const AuditViolation& v = r.violations[i];
    out += fmt("  [%s] rep %d t=%.6fs", to_string(v.check), v.rep,
               secs(v.at));
    if (v.initiation != 0) out += " " + initiation_label(v.initiation);
    out += ": " + v.detail + "\n";
  }
  if (r.violations.size() > kMaxShown) {
    out += fmt("  ... and %zu more\n", r.violations.size() - kMaxShown);
  }

  if (show_rounds && !r.rounds.empty()) {
    stats::TextTable table({"rep", "round", "init", "start_s", "total_ms",
                            "wire_ms", "retry_ms", "buffer_ms", "partic_ms",
                            "init_wait_ms", "hops"});
    for (const RoundAttribution& a : r.rounds) {
      table.add_row({fmt("%d", a.rep), initiation_label(a.initiation),
                     fmt("P%d", a.initiator),
                     stats::fmt("%.3f", secs(a.started_at)),
                     stats::fmt("%.3f", ms(a.total)),
                     stats::fmt("%.3f", ms(a.wire)),
                     stats::fmt("%.3f", ms(a.retry)),
                     stats::fmt("%.3f", ms(a.buffer)),
                     stats::fmt("%.3f", ms(a.participant)),
                     stats::fmt("%.3f", ms(a.initiator_wait)),
                     fmt("%u", a.hops)});
    }
    out += table.render();
  }
  return out;
}

std::string report_json(const AuditReport& r, const TraceFileMeta* meta) {
  std::string out = "{\n";
  if (meta != nullptr) {
    out += fmt("  \"trace\": {\"algo\": \"%s\", \"processes\": %d, "
               "\"runs\": %llu},\n",
               util::json_escape(meta->algo).c_str(), meta->num_processes,
               static_cast<unsigned long long>(r.totals.runs));
  }
  out += fmt("  \"verdict\": \"%s\",\n", r.ok() ? "ok" : "violations");
  out += fmt("  \"consistent\": %s,\n", r.consistent() ? "true" : "false");
  out += "  \"checks\": {";
  for (int c = 0; c < kAuditCheckCount; ++c) {
    out += fmt("%s\"%s\": %zu", c == 0 ? "" : ", ",
               to_string(static_cast<AuditCheck>(c)),
               r.count(static_cast<AuditCheck>(c)));
  }
  out += "},\n";
  out += fmt("  \"totals\": {\"records\": %llu, \"sends\": %llu, "
             "\"delivers\": %llu, \"in_transit\": %llu, "
             "\"checkpoints\": %llu, \"rounds_committed\": %llu, "
             "\"rounds_aborted\": %llu, \"orphan_checks\": %llu, "
             "\"weight_rounds\": %llu},\n",
             static_cast<unsigned long long>(r.totals.records),
             static_cast<unsigned long long>(r.totals.sends),
             static_cast<unsigned long long>(r.totals.delivers),
             static_cast<unsigned long long>(r.totals.in_transit),
             static_cast<unsigned long long>(r.totals.checkpoints),
             static_cast<unsigned long long>(r.totals.rounds_committed),
             static_cast<unsigned long long>(r.totals.rounds_aborted),
             static_cast<unsigned long long>(r.totals.orphan_checks),
             static_cast<unsigned long long>(r.totals.weight_rounds));
  out += "  \"violations\": [";
  for (std::size_t i = 0; i < r.violations.size(); ++i) {
    const AuditViolation& v = r.violations[i];
    out += i == 0 ? "\n" : ",\n";
    out += fmt("    {\"check\": \"%s\", \"rep\": %d, \"at_s\": %.9f, "
               "\"initiation\": \"%s\", \"detail\": \"%s\"}",
               to_string(v.check), v.rep, secs(v.at),
               initiation_label(v.initiation).c_str(),
               util::json_escape(v.detail).c_str());
  }
  out += r.violations.empty() ? "],\n" : "\n  ],\n";
  out += "  \"rounds\": [";
  for (std::size_t i = 0; i < r.rounds.size(); ++i) {
    const RoundAttribution& a = r.rounds[i];
    out += i == 0 ? "\n" : ",\n";
    out += fmt("    {\"rep\": %d, \"round\": \"%s\", \"initiator\": %d, "
               "\"started_s\": %.9f, \"committed_s\": %.9f, "
               "\"total_ms\": %.6f, \"wire_ms\": %.6f, \"retry_ms\": %.6f, "
               "\"buffer_ms\": %.6f, \"participant_ms\": %.6f, "
               "\"initiator_wait_ms\": %.6f, \"hops\": %u}",
               a.rep, initiation_label(a.initiation).c_str(), a.initiator,
               secs(a.started_at), secs(a.committed_at), ms(a.total),
               ms(a.wire), ms(a.retry), ms(a.buffer), ms(a.participant),
               ms(a.initiator_wait), a.hops);
  }
  out += r.rounds.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace mck::obs
