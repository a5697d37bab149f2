// simbench — one run of one benchmark workload, in this process.
//
//   simbench --workload NAME --seed N [--trace 0|1] [--scale F]
//            [--tmpdir DIR]
//
// The run is assembled from public calls only, so every layer boundary
// can be timed from out here: harness::System, the workload generator,
// mobile::MobilityModel, harness::CheckpointScheduler,
// sim::Simulator::run_until, System::check_consistency,
// recovery().recover_coordinated and the obs trace pipeline
// (write_trace_file, read_trace_file, verify_trace_digests, audit_file).
// run_experiment is deliberately not used: it hides the phase boundaries
// and has no mobility.
//
// Every output is verified (drained queue, no orphan on any committed
// line, and for the flight-recorder workload a clean digest check and
// audit that agrees with the checker). The last stdout line is one JSON
// object: {"ok", "error", "fingerprint", "values": {name: number}}. Exit
// status is 0 iff ok. simbench/run.py runs this binary once per child
// process and aggregates.
//
// Each phase above is timed either way (a handful of clock reads).
// --trace 1 adds the one span that costs: the SendFn handed to the
// workload times every System::send.
//
// --scale F multiplies every horizon by F (the self-test runs tiny ones).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "harness/experiment.hpp"
#include "harness/scheduler.hpp"
#include "harness/system.hpp"
#include "mobile/mobility.hpp"
#include "obs/audit.hpp"
#include "obs/trace_io.hpp"
#include "workload/traffic.hpp"

using namespace mck;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload {
  const char* name;
  harness::Algorithm algo;
  harness::TransportKind transport;
  int n;
  double rate;            // msgs/s per process (intragroup rate if group)
  bool group;             // 4 groups, intra/inter ratio 1000 (Fig. 6)
  double hours;           // simulated horizon
  bool mobility;          // MobilityModel defaults (cellular only)
  bool flight_recorder;   // trace written, read back, verified, audited
};

// Every workload: checkpoint interval 900 s, serialized initiations,
// serial engine, one thread. Why each one is here:
constexpr Workload kWorkloads[] = {
    // Cao-Singhal on the wireless LAN with point-to-point traffic: heavy
    // application traffic and few coordination messages per initiation.
    // The Theorem 1 checker and the EventLog history dominate time and
    // memory here; the cellular transport, mobility and obs stay idle.
    {"lan-p2p", harness::Algorithm::kCaoSinghal, harness::TransportKind::kLan,
     64, 1.0, false, 16.0, false, false},
    // Cao-Singhal on cellular (4 MSSs, no mobility), many processes at a
    // low rate: tens of thousands of coordination messages per initiation.
    // Loads the event loop, the cellular broadcast path and protocol-state
    // memory; the checker is nearly idle, mobility and obs are off. Two
    // hours at n=1024 rather than one at n=2048: initiations run back to
    // back here, and ~17 of them keep the work within a few percent across
    // seeds, where ~14 larger ones varied it by +-14%.
    {"cell-coord", harness::Algorithm::kCaoSinghal,
     harness::TransportKind::kCellular, 1024, 0.05, false, 2.0, false, false},
    // Cao-Singhal on cellular with handoffs (MobilityModel defaults, but no
    // disconnections; see set_up) and the flight recorder on; the run's
    // records are written, read back, digest-verified and audited. The
    // only workload where obs works and the only one with handoffs.
    {"cell-mobile-audit", harness::Algorithm::kCaoSinghal,
     harness::TransportKind::kCellular, 1024, 0.1, false, 1.0, true, true},
    // Koo-Toueg (blocking, minimum-process) on the LAN with group traffic:
    // the only workload that measures baselines and rt's deferred sends,
    // and the checker applied to many committed lines.
    {"lan-group-koo", harness::Algorithm::kKooToueg,
     harness::TransportKind::kLan, 64, 1.0, true, 12.0, false, false},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// VmHWM (peak resident set) of this process in MiB; 0 if unreadable.
double vm_hwm_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

/// Everything one run owns. The tracer is declared before the system,
/// which records into it, so it outlives the system.
struct Run {
  obs::Tracer tracer;
  std::unique_ptr<harness::System> sys;
  std::unique_ptr<mobile::MobilityModel> mobility;
  std::unique_ptr<workload::PointToPointWorkload> p2p;
  std::unique_ptr<workload::GroupWorkload> grp;
  std::unique_ptr<harness::CheckpointScheduler> scheduler;
  // The SendFn span (--trace 1 only).
  std::uint64_t send_calls = 0;
  Clock::duration send_time{0};
};

/// Builds the System and arms mobility, traffic and the scheduler.
std::unique_ptr<Run> set_up(const Workload& w, std::uint64_t seed,
                            sim::SimTime horizon, bool spans) {
  auto run = std::make_unique<Run>();
  harness::SystemOptions opts;
  opts.num_processes = w.n;
  opts.algorithm = w.algo;
  opts.transport = w.transport;
  opts.seed = seed;
  if (w.flight_recorder) {
    run->tracer.enable();
    opts.tracer = &run->tracer;
  }
  run->sys = std::make_unique<harness::System>(opts);
  harness::System& sys = *run->sys;

  if (w.mobility) {
    // Disconnections stay off: with them, some seeds (30 and 51 of
    // cell-mobile-audit) deliver a computation message ahead of an earlier
    // one on the same channel, which the audit reports as a causality
    // (FIFO) violation. Turning them on needs
    // on_disconnect = CaoSinghalProtocol::on_disconnect as well.
    mobile::MobilityParams mp;
    mp.disconnect_probability = 0;
    run->mobility = std::make_unique<mobile::MobilityModel>(
        sys.simulator(), sys.rng(), *sys.cellular(), mp);
    run->mobility->start(horizon);
  }

  workload::SendFn send;
  if (spans) {
    Run* r = run.get();
    send = [r](ProcessId src, ProcessId dst) {
      const Clock::time_point t0 = Clock::now();
      r->sys->send(src, dst);
      r->send_time += Clock::now() - t0;
      ++r->send_calls;
    };
  } else {
    send = [&sys](ProcessId src, ProcessId dst) { sys.send(src, dst); };
  }
  if (w.group) {
    run->grp = std::make_unique<workload::GroupWorkload>(
        sys.simulator(), sys.rng(), sys.n(), /*num_groups=*/4, w.rate,
        /*ratio=*/1000.0, std::move(send));
    run->grp->start(horizon);
  } else {
    run->p2p = std::make_unique<workload::PointToPointWorkload>(
        sys.simulator(), sys.rng(), sys.n(), w.rate, std::move(send));
    run->p2p->start(horizon);
  }

  harness::SchedulerOptions so;
  so.interval = sim::seconds(900);
  run->scheduler = std::make_unique<harness::CheckpointScheduler>(sys, so);
  run->scheduler->start(horizon);
  return run;
}

/// Name/value pairs printed as the JSON "values" object, in order.
class Values {
 public:
  void add(const char* name, double v) { items_.emplace_back(name, v); }
  void add_count(const char* name, std::uint64_t v) {
    items_.emplace_back(name, static_cast<double>(v));
  }
  std::string json() const {
    std::string out = "{";
    char buf[128];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", i == 0 ? "" : ", ",
                    items_[i].first, items_[i].second);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<const char*, double>> items_;
};

/// Folds the run's deterministic simulated counts into one 64-bit value.
/// Runs of one seed must agree on it; a speed-only change leaves it alone.
std::uint64_t fingerprint(const std::vector<std::uint64_t>& counts) {
  std::uint64_t h = 0x6d636b62656e6368ULL;  // "mckbench"
  for (std::uint64_t c : counts) h = harness::splitmix64(h ^ c);
  return h;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload NAME --seed N "
               "[--trace 0|1] [--scale F] [--tmpdir DIR]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool spans = false;
  double scale = 1.0;
  std::string tmpdir = ".";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload") {
      w = find_workload(v);
      if (w == nullptr) usage("unknown --workload");
    } else if (arg == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("--seed must be an integer");
      have_seed = true;
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace must be 0 or 1");
      }
      spans = v[0] == '1';
    } else if (arg == "--scale") {
      scale = std::atof(v);
      if (!(scale > 0 && scale <= 1)) usage("--scale must be in (0, 1]");
    } else if (arg == "--tmpdir") {
      tmpdir = v;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (w == nullptr || !have_seed) usage("--workload and --seed are required");
  const sim::SimTime horizon = sim::from_seconds(w->hours * 3600.0 * scale);

  // Set-up is a few milliseconds, so it is timed several times and the
  // median kept; only the last set-up is run.
  constexpr int kSetups = 15;
  std::vector<double> setup_times;
  std::unique_ptr<Run> run;
  Clock::time_point wall0;
  for (int i = 0; i < kSetups; ++i) {
    run.reset();
    wall0 = Clock::now();
    run = set_up(*w, seed, horizon, spans);
    setup_times.push_back(seconds_since(wall0));
  }
  const double setup_s = setup_times.back();
  std::sort(setup_times.begin(), setup_times.end());
  const double setup_median_s = setup_times[kSetups / 2];

  harness::System& sys = *run->sys;
  std::string error;
  auto fail = [&error](const std::string& why) {
    if (error.empty()) error = why;
  };

  // Event loop to quiescence: nothing is scheduled past the horizon except
  // in-flight coordinations, which terminate (Theorem 2).
  Clock::time_point t0 = Clock::now();
  sys.simulator().run_until(sim::kTimeNever);
  const double run_s = seconds_since(t0);
  const double sim_hwm_mib = vm_hwm_mib();
  if (sys.simulator().live_pending() != 0) fail("event queue not drained");

  // Theorem 1 oracle over every committed line.
  t0 = Clock::now();
  const ckpt::CheckResult check = sys.check_consistency();
  const double check_s = seconds_since(t0);

  std::uint64_t initiations = 0, committed = 0, aborted = 0;
  for (const ckpt::InitiationStats* st : sys.tracker().in_order()) {
    ++initiations;
    if (st->aborted()) ++aborted;
    if (st->committed()) ++committed;
  }
  if (!check.consistent || !check.orphans.empty()) {
    fail("orphan message on a committed line");
  }
  if (check.lines_checked != committed) fail("checker skipped committed lines");

  t0 = Clock::now();
  const ckpt::RecoveryOutcome rec =
      sys.recovery().recover_coordinated(sys.simulator().now());
  const double recover_s = seconds_since(t0);

  // Flight-recorder pipeline: write, read back, verify digests, audit.
  std::uint64_t trace_records = 0;
  double trace_mib = 0, write_s = 0, read_s = 0, verify_s = 0, audit_s = 0;
  if (w->flight_recorder) {
    t0 = Clock::now();
    if (run->tracer.truncated()) fail("flight recorder truncated");
    std::vector<obs::TraceRun> runs(1);
    runs[0].seed = seed;
    runs[0].records = run->tracer.take_records();
    trace_records = runs[0].records.size();
    obs::TraceFileMeta meta;
    meta.num_processes = sys.n();
    meta.algo = harness::to_string(w->algo);
    const std::string path = tmpdir + "/simbench-" +
                             std::to_string(static_cast<long>(getpid())) +
                             ".trc";
    std::string err;
    if (!obs::write_trace_file(path, meta, runs, &err)) {
      fail("cannot write trace: " + err);
    }
    runs.clear();
    runs.shrink_to_fit();
    write_s = seconds_since(t0);

    t0 = Clock::now();
    std::optional<obs::TraceFile> file = obs::read_trace_file(path, &err);
    read_s = seconds_since(t0);
    if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
      std::fseek(f, 0, SEEK_END);
      trace_mib = static_cast<double>(std::ftell(f)) / (1024.0 * 1024.0);
      std::fclose(f);
    }
    std::remove(path.c_str());
    if (!file) {
      fail("cannot read trace back: " + err);
    } else {
      if (file->total_records() != trace_records) fail("trace lost records");
      t0 = Clock::now();
      const bool digests_ok = obs::verify_trace_digests(*file).empty();
      verify_s = seconds_since(t0);
      if (!digests_ok) fail("trace digest mismatch");

      t0 = Clock::now();
      const obs::AuditReport audit = obs::audit_file(*file);
      audit_s = seconds_since(t0);
      if (!audit.ok()) {
        const obs::AuditViolation& first = audit.violations.front();
        fail(std::to_string(audit.violations.size()) + " audit violation(s), " +
             "first: " + obs::to_string(first.check) + ": " + first.detail);
      }
      if (audit.consistent() != check.consistent) {
        fail("audit and checker disagree");
      }
      if (audit.totals.rounds_committed != committed) {
        fail("audit saw a different number of committed rounds");
      }
    }
  }
  const double wall_s = seconds_since(wall0);
  const double hwm_mib = vm_hwm_mib();

  const rt::RunStats& st = sys.stats();
  const std::uint64_t comp_msgs =
      st.msgs_sent[static_cast<int>(rt::MsgKind::kComputation)];
  const std::uint64_t sys_msgs = st.system_msgs();
  const std::uint64_t events = sys.simulator().events_executed();
  const std::uint64_t fp = fingerprint(
      {events, st.deliveries, comp_msgs, sys_msgs, committed,
       st.tentative_taken, st.mutable_taken, trace_records, rec.lost_events});

  Values v;
  v.add("wall_s", wall_s);
  v.add("setup_s", setup_median_s);
  v.add("setup_run_s", setup_s);
  v.add("peak_rss_mib", hwm_mib);

  v.add("sim.run_s", run_s);
  v.add_count("sim.events", events);
  v.add("sim.events_per_s", run_s > 0 ? static_cast<double>(events) / run_s
                                      : 0.0);
  v.add_count("sim.slots", sys.simulator().slot_count());
  v.add_count("sim.tombstones", sys.simulator().tombstones_reaped());
  v.add("sim.hwm_mib", sim_hwm_mib);

  // Protocol layer: core (Cao-Singhal) or baselines, by algorithm.
  const bool core = w->algo == harness::Algorithm::kCaoSinghal;
  const double send_s = std::chrono::duration<double>(run->send_time).count();
  v.add_count(core ? "core.send_calls" : "baselines.send_calls",
              run->send_calls);
  v.add(core ? "core.send_s" : "baselines.send_s", send_s);
  v.add_count(core ? "core.initiations" : "baselines.initiations",
              initiations);
  v.add_count(core ? "core.committed" : "baselines.committed", committed);
  v.add_count(core ? "core.aborted" : "baselines.aborted", aborted);

  v.add_count("rt.comp_msgs", comp_msgs);
  v.add_count("rt.sys_msgs", sys_msgs);
  v.add_count("rt.sys_bytes", st.system_bytes());
  v.add_count("rt.deliveries", st.deliveries);
  v.add_count("rt.blocked_sends_deferred", st.blocked_sends_deferred);

  const net::LanTransport* lan = sys.lan();
  v.add_count("net.transmissions", lan ? lan->transmissions() : 0);
  v.add_count("net.retransmissions", lan ? lan->retransmissions() : 0);
  const mobile::CellularTransport* cell = sys.cellular();
  v.add_count("mobile.handoffs", cell ? cell->handoffs() : 0);
  v.add_count("mobile.buffered", cell ? cell->messages_buffered() : 0);
  v.add_count("mobile.forwarded", cell ? cell->messages_forwarded() : 0);

  v.add("ckpt.check_s", check_s);
  v.add_count("ckpt.lines", check.lines_checked);
  v.add("ckpt.recover_s", recover_s);
  v.add_count("ckpt.recover_lost_events", rec.lost_events);
  v.add_count("ckpt.log_records", sys.log().messages().size());
  v.add_count("ckpt.peak_stable", sys.store().peak_stable_occupancy());
  v.add_count("ckpt.tentative", st.tentative_taken);
  v.add_count("ckpt.mutable_taken", st.mutable_taken);
  v.add_count("ckpt.mutable_promoted", st.mutable_promoted);

  v.add_count("obs.records", trace_records);
  v.add("obs.trace_mib", trace_mib);
  v.add("obs.write_s", write_s);
  v.add("obs.read_s", read_s);
  v.add("obs.verify_s", verify_s);
  v.add("obs.audit_s", audit_s);
  v.add("obs.hwm_mib", w->flight_recorder ? hwm_mib : 0.0);

  char fp_hex[17];
  std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                static_cast<unsigned long long>(fp));
  std::string err_json;
  for (char c : error) {
    if (c == '"' || c == '\\') err_json += '\\';
    err_json += c;
  }
  std::printf("{\"ok\": %s, \"error\": \"%s\", \"fingerprint\": \"%s\", "
              "\"values\": %s}\n",
              error.empty() ? "true" : "false", err_json.c_str(), fp_hex,
              v.json().c_str());
  std::fflush(stdout);
  // The run's memory is released by process exit; tearing the structures
  // down first would only add to the child's lifetime.
  std::_Exit(error.empty() ? 0 : 1);
}
