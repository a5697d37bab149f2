// mcksim — command-line driver for the mobile-checkpointing simulator.
//
//   mcksim [--algo NAME] [--n N] [--rate R] [--interval S] [--hours H]
//          [--workload p2p|group] [--ratio X] [--groups G] [--seed S]
//          [--reps R] [--jobs N] [--transport lan|cellular]
//          [--shared-medium] [--commit broadcast|update|hybrid]
//          [--wire-sizes] [--wire-fidelity] [--csv]
//          [--trace FILE] [--trace-cap N] [--metrics] [--audit]
//          [--timeline FILE] [--timeline-interval S] [--progress]
//          [--log-level LVL]
//
// Prints the paper's per-initiation metrics for one configuration;
// --csv emits a machine-readable row instead. A malformed or out-of-range
// flag prints the usage and exits 2 before anything runs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "flags.hpp"
#include "harness/experiment.hpp"
#include "obs/audit.hpp"
#include "obs/round_metrics.hpp"
#include "obs/trace_io.hpp"
#include "util/log.hpp"
#include "workload/traffic.hpp"

using namespace mck;
using namespace mck::cli;

void cli::usage(const char* msg) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: mcksim [options]\n"
               "  --algo NAME       cao-singhal | koo-toueg | elnozahy |\n"
               "                    chandy-lamport | lai-yang | simple-scheme |\n"
               "                    revised-scheme | uncoordinated\n"
               "  --n N             number of processes (default 16)\n"
               "  --rate R          msgs/s per process (default 0.01)\n"
               "  --interval S      checkpoint interval seconds (default 900)\n"
               "  --hours H         simulated hours (default 4)\n"
               "  --workload KIND   p2p | group (default p2p)\n"
               "  --ratio X         group intra/inter rate ratio (default 1000)\n"
               "  --groups G        number of groups, >= 2 and dividing N\n"
               "                    into groups of >= 2 (default 4)\n"
               "  --seed S          RNG seed (default 1)\n"
               "  --reps R          repetitions merged (default 1)\n"
               "  --jobs N          replication worker threads (default:\n"
               "                    MCK_JOBS env var, else 1; at most the\n"
               "                    CPU count; results are identical for\n"
               "                    any N)\n"
               "  --transport T     lan | cellular (default lan)\n"
               "  --shared-medium   802.11-style contention for messages\n"
               "  --commit MODE     broadcast | update | hybrid\n"
               "  --wire-sizes      charge every message its honest codec\n"
               "                    size (link header + encoded payload)\n"
               "                    instead of the paper's flat budgets\n"
               "  --wire-fidelity   serialize payloads through the codec on\n"
               "                    every hop (lossless: results identical)\n"
               "  --csv             one CSV row instead of the report\n"
               "  --trace FILE      record a flight-recorder trace (inspect\n"
               "                    with mcktrace; bytes are identical for\n"
               "                    any --jobs)\n"
               "  --trace-cap N     cap trace records per rep; further\n"
               "                    records drop and a truncation marker\n"
               "                    is stamped. Default:\n"
               "                    unlimited, except 4000000 when tracing\n"
               "                    n >= 100000 (OOM guard; pass 0 to lift).\n"
               "                    Records are held encoded, 5-9 B each:\n"
               "                    a capped rep holds ~20-35 MiB in memory\n"
               "                    and writes as much to the file\n"
               "  --timeline FILE   record the run-health timeline (one\n"
               "                    gauge row per --timeline-interval of\n"
               "                    sim time; inspect with mcktrace\n"
               "                    timeline; bytes are identical for any\n"
               "                    --jobs)\n"
               "  --timeline-interval S\n"
               "                    timeline sampling period in simulated\n"
               "                    seconds (default 1.0)\n"
               "  --progress        periodic run-health line on stderr\n"
               "                    (stdout is untouched)\n"
               "  --metrics         derive trace metrics: extra CSV columns,\n"
               "                    or a metrics table after the report\n"
               "  --audit           replay the trace through the offline\n"
               "                    auditor (stderr); exit non-zero on any\n"
               "                    violation or if its consistency verdict\n"
               "                    disagrees with the in-sim checker\n"
               "  --log-level LVL   off | info | trace (stderr; default off)\n");
  std::exit(2);
}

namespace {

harness::Algorithm parse_algo(const std::string& s) {
  using A = harness::Algorithm;
  for (A a : {A::kCaoSinghal, A::kKooToueg, A::kElnozahy,
              A::kChandyLamport, A::kLaiYang, A::kSimpleScheme,
              A::kRevisedScheme, A::kUncoordinated}) {
    if (s == harness::to_string(a)) return a;
  }
  usage("unknown --algo");
}

}  // namespace

int main(int argc, char** argv) {
  harness::ExperimentConfig cfg;
  cfg.rate = 0.01;
  int reps = 1;
  int jobs = 0;  // 0 = MCK_JOBS env, else serial
  bool csv = false;
  double hours = 4.0;
  std::string trace_path;
  std::string timeline_path;
  long long trace_cap = -1;  // -1 = unset (size-based default applies)
  bool metrics = false;
  bool audit = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (arg == "--algo") {
      cfg.sys.algorithm = parse_algo(next());
    } else if (arg == "--n") {
      cfg.sys.num_processes = parse_count("--n", next(), 2);
    } else if (arg == "--rate") {
      cfg.rate = parse_real("--rate", next());
      if (cfg.rate <= 0) usage("--rate must be positive");
    } else if (arg == "--interval") {
      cfg.ckpt_interval =
          to_sim_time("--interval", parse_real("--interval", next()));
    } else if (arg == "--hours") {
      hours = parse_real("--hours", next());
    } else if (arg == "--workload") {
      std::string w = next();
      if (w == "p2p") {
        cfg.workload = harness::WorkloadKind::kPointToPoint;
      } else if (w == "group") {
        cfg.workload = harness::WorkloadKind::kGroup;
      } else {
        usage("unknown --workload");
      }
    } else if (arg == "--ratio") {
      cfg.group_ratio = parse_real("--ratio", next());
      if (cfg.group_ratio <= 0) usage("--ratio must be positive");
    } else if (arg == "--groups") {
      cfg.groups = parse_count("--groups", next(), 2);
    } else if (arg == "--seed") {
      cfg.sys.seed = static_cast<std::uint64_t>(parse_int("--seed", next()));
    } else if (arg == "--reps") {
      reps = parse_count("--reps", next(), 1);
    } else if (arg == "--jobs") {
      jobs = parse_count("--jobs", next(), 1);
    } else if (arg == "--transport") {
      std::string t = next();
      if (t == "lan") {
        cfg.sys.transport = harness::TransportKind::kLan;
      } else if (t == "cellular") {
        cfg.sys.transport = harness::TransportKind::kCellular;
      } else {
        usage("unknown --transport");
      }
    } else if (arg == "--shared-medium") {
      cfg.sys.lan.mode = net::MediumMode::kShared;
    } else if (arg == "--commit") {
      std::string m = next();
      if (m == "broadcast") {
        cfg.sys.cs.commit_mode = core::CommitMode::kBroadcast;
      } else if (m == "update") {
        cfg.sys.cs.commit_mode = core::CommitMode::kUpdate;
      } else if (m == "hybrid") {
        cfg.sys.cs.commit_mode = core::CommitMode::kHybrid;
      } else {
        usage("unknown --commit");
      }
    } else if (arg == "--wire-sizes") {
      cfg.sys.timing.use_wire_sizes = true;
      cfg.sys.timing.record_wire_bytes = true;
    } else if (arg == "--wire-fidelity") {
      cfg.sys.wire_fidelity = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--trace-cap") {
      trace_cap = parse_int("--trace-cap", next());
      if (trace_cap < 0) usage("--trace-cap must be >= 0");
    } else if (arg == "--timeline") {
      timeline_path = next();
    } else if (arg == "--timeline-interval") {
      cfg.timeline_interval = to_sim_time(
          "--timeline-interval", parse_real("--timeline-interval", next()));
    } else if (arg == "--progress") {
      cfg.progress = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--audit") {
      audit = true;
    } else if (arg == "--log-level") {
      if (!util::Log::set_level(next())) usage("unknown --log-level");
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      usage(("unknown option: " + arg).c_str());
    }
  }
  if (cfg.workload == harness::WorkloadKind::kGroup &&
      (cfg.sys.num_processes % cfg.groups != 0 ||
       cfg.sys.num_processes / cfg.groups < 2)) {
    usage("--workload group needs --n a multiple of --groups, with at least "
          "2 processes per group");
  }
  cfg.horizon = to_sim_time("--hours", hours * 3600.0);
  require_duration("--rate", workload::mean_gap(cfg.rate));
  if (cfg.workload == harness::WorkloadKind::kGroup) {
    require_duration("--ratio", workload::mean_gap(cfg.rate, cfg.group_ratio));
  }
  cfg.capture_trace = !trace_path.empty() || metrics || audit;
  cfg.capture_timeline = !timeline_path.empty();
  if (trace_cap >= 0) {
    cfg.trace_record_cap = static_cast<std::uint64_t>(trace_cap);
  } else if (cfg.capture_trace && cfg.sys.num_processes >= 100000) {
    // OOM guard at population scale: an uncapped trace of a 1M-host run
    // is tens of GiB. The cap keeps the run alive and stamps an honest
    // truncation marker; pass --trace-cap 0 for the old behaviour.
    cfg.trace_record_cap = 4000000;
    std::fprintf(stderr,
                 "mcksim: note: tracing with n >= 100000 defaults to "
                 "--trace-cap 4000000 (pass --trace-cap 0 to lift)\n");
  }
  harness::RunResult res = harness::run_replicated(cfg, reps, jobs);

  // Offline audit of the captured trace: an independent verdict that must
  // agree with the in-sim checker. stderr keeps the --csv stdout clean.
  bool audit_failed = false;
  obs::AuditReport audit_report;
  if (audit) {
    audit_report = obs::audit_runs(res.traces, cfg.sys.num_processes);
    std::fprintf(stderr, "%s", obs::render_report(audit_report, false).c_str());
    if (audit_report.consistent() != res.consistent) {
      std::fprintf(stderr,
                   "mcksim: AUDIT DISAGREEMENT: trace replay says %s, in-sim "
                   "checker says %s\n",
                   audit_report.consistent() ? "consistent" : "inconsistent",
                   res.consistent ? "consistent" : "inconsistent");
      audit_failed = true;
    }
    if (!audit_report.ok()) audit_failed = true;
  }

  if (!trace_path.empty()) {
    obs::TraceFileMeta meta;
    meta.num_processes = cfg.sys.num_processes;
    meta.algo = harness::to_string(cfg.sys.algorithm);
    std::string err;
    if (!obs::write_trace_file(trace_path, meta, res.traces, &err)) {
      std::fprintf(stderr, "mcksim: cannot write trace: %s\n", err.c_str());
      return 1;
    }
  }

  if (!timeline_path.empty()) {
    obs::TimelineFileMeta meta;
    meta.num_processes = cfg.sys.num_processes;
    meta.algo = harness::to_string(cfg.sys.algorithm);
    meta.columns = obs::builtin_timeline_schema();
    std::string err;
    if (!obs::write_timeline_file(timeline_path, meta, res.timelines, &err)) {
      std::fprintf(stderr, "mcksim: cannot write timeline: %s\n", err.c_str());
      return 1;
    }
  }

  // Derived trace metrics, computed only on request so the default CSV
  // shape (and the committed goldens built on it) stays untouched. The
  // audit already folded the records in its own pass.
  const obs::TraceFold fold = !metrics ? obs::TraceFold{}
                              : audit   ? std::move(audit_report.fold)
                                        : obs::fold_runs(res.traces);
  const obs::TraceSummary& summary = fold.summary();

  if (csv) {
    std::printf(
        "algo,n,rate,interval_s,hours,reps,initiations,committed,aborted,"
        "tentative_per_init,redundant_mutable_per_init,commit_delay_s,"
        "blocked_s_per_init,sys_msgs_per_init,comp_msgs,sys_bytes,"
        "sys_wire_bytes,comp_wire_bytes,joules,consistent%s\n",
        metrics ? ",trace_records,trace_rounds_committed,"
                  "trace_init_to_tentative_s,trace_init_to_commit_s,"
                  "trace_useless_mutable,trace_blocked_s"
                : "");
    std::printf("%s,%d,%g,%g,%g,%d,%llu,%llu,%llu,%.4f,%.4f,%.4f,%.4f,%.4f,"
                "%llu,%llu,%llu,%llu,%.2f,%d",
                harness::to_string(cfg.sys.algorithm),
                cfg.sys.num_processes, cfg.rate,
                sim::to_seconds(cfg.ckpt_interval), hours, reps,
                (unsigned long long)res.initiations,
                (unsigned long long)res.committed,
                (unsigned long long)res.aborted,
                res.tentative_per_init.mean(),
                res.redundant_mutable_per_init.mean(),
                res.commit_delay_s.mean(), res.blocked_s_per_init.mean(),
                res.sys_msgs_per_init.mean(),
                (unsigned long long)res.comp_msgs,
                (unsigned long long)res.stats.system_bytes(),
                (unsigned long long)res.stats.system_wire_bytes(),
                (unsigned long long)res.stats.wire_bytes_sent[static_cast<int>(
                    rt::MsgKind::kComputation)],
                res.stats.energy.total_joules(), res.consistent ? 1 : 0);
    if (metrics) {
      std::printf(",%llu,%llu,%.4f,%.4f,%llu,%.4f",
                  (unsigned long long)summary.total,
                  (unsigned long long)summary.count(
                      obs::TraceKind::kRoundCommit),
                  obs::mean_latency_s(fold.rounds(),
                                      &obs::RoundMetrics::tentative_latency),
                  obs::mean_latency_s(fold.rounds(),
                                      &obs::RoundMetrics::commit_latency),
                  (unsigned long long)summary.discarded_mutable,
                  sim::to_seconds(summary.blocked_total));
    }
    std::printf("\n");
    return res.consistent && !audit_failed ? 0 : 1;
  }

  std::printf("mcksim: %s, N=%d, rate=%g msg/s, interval=%gs, %.1fh x %d reps\n\n",
              harness::to_string(cfg.sys.algorithm), cfg.sys.num_processes,
              cfg.rate, sim::to_seconds(cfg.ckpt_interval), hours, reps);
  std::printf("initiations:            %llu (%llu committed, %llu aborted)\n",
              (unsigned long long)res.initiations,
              (unsigned long long)res.committed,
              (unsigned long long)res.aborted);
  std::printf("tentative ckpts/init:   %.3f +- %.3f\n",
              res.tentative_per_init.mean(),
              res.tentative_per_init.ci95_half_width());
  std::printf("redundant mutable/init: %.3f +- %.3f\n",
              res.redundant_mutable_per_init.mean(),
              res.redundant_mutable_per_init.ci95_half_width());
  std::printf("output commit delay:    %.3f s +- %.3f\n",
              res.commit_delay_s.mean(),
              res.commit_delay_s.ci95_half_width());
  std::printf("  T_msg / T_data:       %.4f s / %.3f s (T_ch decomposition)\n",
              res.t_msg_s.mean(), res.t_data_s.mean());
  std::printf("blocked process-s/init: %.3f\n", res.blocked_s_per_init.mean());
  std::printf("system msgs/init:       %.2f\n", res.sys_msgs_per_init.mean());
  std::printf("computation messages:   %llu\n",
              (unsigned long long)res.comp_msgs);
  std::printf("forced checkpoints:     %llu\n",
              (unsigned long long)res.forced_checkpoints);
  std::printf("system bytes charged:   %llu\n",
              (unsigned long long)res.stats.system_bytes());
  if (cfg.sys.timing.record_wire_bytes) {
    std::printf("per-kind system traffic (count / charged B / honest wire B):\n");
    for (int k = 1; k < rt::kMsgKindCount; ++k) {
      if (res.stats.msgs_sent[k] == 0) continue;
      std::printf("  %-12s          %llu / %llu / %llu\n",
                  rt::to_string(static_cast<rt::MsgKind>(k)),
                  (unsigned long long)res.stats.msgs_sent[k],
                  (unsigned long long)res.stats.bytes_sent[k],
                  (unsigned long long)res.stats.wire_bytes_sent[k]);
    }
    std::printf("computation piggyback:  %llu wire B over %llu msgs\n",
                (unsigned long long)res.stats.wire_bytes_sent[static_cast<int>(
                    rt::MsgKind::kComputation)],
                (unsigned long long)res.comp_msgs);
  }
  std::printf("radio energy:           %.1f J\n",
              res.stats.energy.total_joules());
  std::printf("consistency:            %s (%zu lines checked)\n",
              res.consistent ? "OK" : "VIOLATED", res.lines_checked);
  if (metrics) {
    obs::Registry reg = obs::build_registry(fold);
    std::printf("\ntrace metrics (%llu records over %zu reps):\n%s",
                (unsigned long long)summary.total, res.traces.size(),
                reg.render().c_str());
  }
  return res.consistent && !audit_failed ? 0 : 1;
}
