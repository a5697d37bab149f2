// Run-health timeline (obs/timeline.hpp): the acceptance invariant is
// byte-identity — timeline rows and traces are a pure function of
// (config, seed), never of --jobs — and every gauge must reconcile with
// the aggregates the run reports elsewhere (RunStats, the flight-recorder
// summary).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "harness/experiment.hpp"
#include "obs/audit.hpp"
#include "obs/diff.hpp"
#include "obs/round_metrics.hpp"
#include "obs/timeline.hpp"

namespace mck {
namespace {

harness::ExperimentConfig cellular_config(harness::Algorithm a) {
  harness::ExperimentConfig cfg;
  cfg.sys.algorithm = a;
  cfg.sys.num_processes = 8;
  cfg.sys.seed = 7;
  cfg.sys.transport = harness::TransportKind::kCellular;  // 4 MSSs
  cfg.rate = 0.02;
  cfg.ckpt_interval = sim::seconds(600);
  cfg.horizon = sim::seconds(1800);
  cfg.capture_timeline = true;
  cfg.timeline_interval = sim::seconds(30);
  return cfg;
}

harness::ExperimentConfig lan_config(harness::Algorithm a) {
  harness::ExperimentConfig cfg = cellular_config(a);
  cfg.sys.transport = harness::TransportKind::kLan;
  return cfg;
}

constexpr harness::Algorithm kAllAlgorithms[] = {
    harness::Algorithm::kCaoSinghal,    harness::Algorithm::kKooToueg,
    harness::Algorithm::kElnozahy,      harness::Algorithm::kChandyLamport,
    harness::Algorithm::kLaiYang,       harness::Algorithm::kSimpleScheme,
    harness::Algorithm::kRevisedScheme, harness::Algorithm::kUncoordinated,
};

void expect_same_timelines(const std::vector<obs::TimelineRun>& a,
                           const std::vector<obs::TimelineRun>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("rep " + std::to_string(i));
    EXPECT_EQ(a[i].rep, b[i].rep);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].interval_ns, b[i].interval_ns);
    // On divergence, fail with the forensic report (first diverging row
    // and column, schema-named, with preceding context) instead of
    // memcmp != 0. Covers data rows and the post-quiescence final row.
    std::optional<obs::TimelineDivergence> d = obs::diff_timeline_runs(
        a[i], b[i], obs::builtin_timeline_schema());
    if (d) {
      ADD_FAILURE() << "timeline divergence at rep " << i << ":\n"
                    << obs::render_timeline_divergence(*d);
    }
  }
}

std::int64_t cell_i64(const obs::TimelineRun& run, std::size_t k, int col) {
  return obs::timeline_i64(run.row(k)[col]);
}

void expect_same_traces(const std::vector<obs::TraceRun>& a,
                        const std::vector<obs::TraceRun>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rep, b[i].rep);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].digests.run, b[i].digests.run)
        << "rep " << i << ": harness-computed run digest differs";
    // On divergence, fail with the forensic report (first diverging
    // record, classification, causal backtrace) instead of memcmp != 0.
    std::optional<obs::RunDivergence> d =
        obs::diff_records(a[i].records, b[i].records, a[i].rep);
    if (d) {
      ADD_FAILURE() << "trace divergence at rep " << i << ":\n"
                    << obs::render_divergence(*d);
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: --jobs must not move a single byte of the timeline or the
// trace, for any algorithm on either transport.
// ---------------------------------------------------------------------------

void expect_jobs_byte_identical(harness::ExperimentConfig cfg) {
  cfg.capture_trace = true;
  const int reps = 4;
  harness::RunResult j1 = harness::run_replicated(cfg, reps, 1);
  harness::RunResult j4 = harness::run_replicated(cfg, reps, 4);
  ASSERT_EQ(j1.timelines.size(), static_cast<std::size_t>(reps));
  ASSERT_GT(j1.timelines[0].rows(), 0u);
  ASSERT_GT(j1.comp_msgs, 0u);
  expect_same_timelines(j1.timelines, j4.timelines);
  expect_same_traces(j1.traces, j4.traces);
  EXPECT_EQ(j1.initiations, j4.initiations);
  EXPECT_EQ(j1.committed, j4.committed);
  EXPECT_EQ(j1.stats.deliveries, j4.stats.deliveries);
  // The traces are genuine: the offline auditor certifies them.
  obs::AuditReport rep = obs::audit_runs(j4.traces, cfg.sys.num_processes);
  EXPECT_TRUE(rep.ok()) << obs::render_report(rep, false);
  EXPECT_EQ(rep.consistent(), j4.consistent);
}

TEST(TimelineDeterminism, AllAlgorithmsByteIdenticalAcrossJobsOnCellular) {
  for (harness::Algorithm a : kAllAlgorithms) {
    SCOPED_TRACE(harness::to_string(a));
    expect_jobs_byte_identical(cellular_config(a));
  }
}

TEST(TimelineDeterminism, AllAlgorithmsByteIdenticalAcrossJobsOnLan) {
  for (harness::Algorithm a : kAllAlgorithms) {
    SCOPED_TRACE(harness::to_string(a));
    expect_jobs_byte_identical(lan_config(a));
  }
}

// ---------------------------------------------------------------------------
// Gauge cross-checks: the sampled columns must reconcile with the run's
// own aggregates on every algorithm.
// ---------------------------------------------------------------------------

TEST(TimelineGauges, ReconcileWithRunStatsOnAllAlgorithms) {
  for (harness::Algorithm a : kAllAlgorithms) {
    SCOPED_TRACE(harness::to_string(a));
    harness::ExperimentConfig cfg = cellular_config(a);
    cfg.capture_trace = true;
    harness::RunResult res = harness::run_experiment(cfg);
    ASSERT_EQ(res.timelines.size(), 1u);
    const obs::TimelineRun& tl = res.timelines[0];
    const std::size_t rows = tl.rows();
    ASSERT_GT(rows, 0u);
    // Ticks land on the interval grid, starting at t=0.
    for (std::size_t k = 0; k < rows; ++k) {
      ASSERT_EQ(tl.row(k)[obs::kColTime],
                k * static_cast<std::uint64_t>(cfg.timeline_interval))
          << "row " << k;
    }
    // Cumulative columns never decrease.
    for (int col : {obs::kColEventsExecuted, obs::kColMsgsSent,
                    obs::kColDeliveries, obs::kColBytesComp,
                    obs::kColBytesSys, obs::kColBufferedTotal,
                    obs::kColForwardedTotal}) {
      for (std::size_t k = 1; k < rows; ++k) {
        ASSERT_GE(tl.row(k)[col], tl.row(k - 1)[col])
            << "column " << col << " row " << k;
      }
    }
    // Post-quiescence: nothing is on the wire, parked, or blocked, and
    // the cumulative totals equal the run's aggregates.
    ASSERT_EQ(tl.final_row.size(),
              static_cast<std::size_t>(obs::kTimelineNumColumns));
    const std::uint64_t* fin = tl.final_row.data();
    EXPECT_EQ(obs::timeline_i64(fin[obs::kColInFlight]), 0);
    EXPECT_EQ(obs::timeline_i64(fin[obs::kColBufferedNow]), 0);
    EXPECT_EQ(obs::timeline_i64(fin[obs::kColBlockedProcs]), 0);
    EXPECT_EQ(obs::timeline_i64(fin[obs::kColMssBufSum]), 0);
    EXPECT_EQ(fin[obs::kColDeliveries], res.stats.deliveries);
    std::uint64_t sent = 0;
    for (int k = 0; k < rt::kMsgKindCount; ++k) sent += res.stats.msgs_sent[k];
    EXPECT_EQ(fin[obs::kColMsgsSent], sent);
    EXPECT_EQ(fin[obs::kColBytesSys], res.stats.system_bytes());
    EXPECT_EQ(fin[obs::kColMssCount],
              static_cast<std::uint64_t>(cfg.sys.cellular.num_mss));
    // Gauges stay sane at every tick, not just at the end.
    for (std::size_t k = 0; k < rows; ++k) {
      ASSERT_GE(cell_i64(tl, k, obs::kColInFlight), 0) << "row " << k;
      ASSERT_GE(cell_i64(tl, k, obs::kColBufferedNow), 0) << "row " << k;
      ASSERT_GE(cell_i64(tl, k, obs::kColBlockedProcs), 0) << "row " << k;
      ASSERT_GE(cell_i64(tl, k, obs::kColCkptPermanent), 0) << "row " << k;
    }
    // The transport's cumulative buffering agrees with the trace summary.
    obs::TraceSummary s = obs::fold_runs(res.traces).summary();
    EXPECT_EQ(fin[obs::kColBufferedTotal],
              s.count(obs::TraceKind::kMsgBuffered));
    EXPECT_EQ(fin[obs::kColForwardedTotal],
              s.count(obs::TraceKind::kMsgForwarded));
  }
}

// ---------------------------------------------------------------------------
// MCKTL02 round-trip and corrupt-input rejection.
// ---------------------------------------------------------------------------

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(TimelineIo, RoundTripPreservesEveryByte) {
  harness::ExperimentConfig cfg =
      cellular_config(harness::Algorithm::kCaoSinghal);
  harness::RunResult res = harness::run_replicated(cfg, 2, 1);
  ASSERT_EQ(res.timelines.size(), 2u);

  obs::TimelineFileMeta meta;
  meta.num_processes = cfg.sys.num_processes;
  meta.algo = harness::to_string(cfg.sys.algorithm);
  meta.columns = obs::builtin_timeline_schema();
  const std::string path = temp_path("tl_roundtrip.mcktl");
  std::string err;
  ASSERT_TRUE(obs::write_timeline_file(path, meta, res.timelines, &err))
      << err;

  std::optional<obs::TimelineFile> f = obs::read_timeline_file(path, &err);
  ASSERT_TRUE(f.has_value()) << err;
  EXPECT_EQ(f->meta.num_processes, cfg.sys.num_processes);
  EXPECT_EQ(f->meta.algo, "cao-singhal");
  ASSERT_EQ(f->meta.columns.size(),
            static_cast<std::size_t>(obs::kTimelineNumColumns));
  for (int c = 0; c < obs::kTimelineNumColumns; ++c) {
    EXPECT_EQ(f->meta.columns[c].name, obs::timeline_columns()[c].name);
    EXPECT_EQ(f->meta.columns[c].value, obs::timeline_columns()[c].value);
  }
  ASSERT_EQ(f->runs.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(f->runs[i].rep, res.timelines[i].rep);
    EXPECT_EQ(f->runs[i].seed, res.timelines[i].seed);
    EXPECT_EQ(f->runs[i].interval_ns, res.timelines[i].interval_ns);
    std::optional<obs::TimelineDivergence> d = obs::diff_timeline_runs(
        f->runs[i], res.timelines[i], f->meta.columns);
    if (d) {
      ADD_FAILURE() << "timeline round-trip divergence at rep " << i << ":\n"
                    << obs::render_timeline_divergence(*d);
    }
  }
  std::remove(path.c_str());
}

TEST(TimelineIo, RejectsCorruptInput) {
  const std::string path = temp_path("tl_corrupt.mcktl");
  std::string err;

  {  // Wrong magic.
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("NOTATIME", 1, 8, f);
    std::fclose(f);
    EXPECT_FALSE(obs::read_timeline_file(path, &err).has_value());
    EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
  }
  {  // Truncated header after a valid magic.
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("MCKTL02\0", 1, 8, f);
    std::uint32_t n = 8;
    std::fwrite(&n, sizeof n, 1, f);
    std::fclose(f);
    EXPECT_FALSE(obs::read_timeline_file(path, &err).has_value());
  }
  {  // Implausible column count.
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("MCKTL02\0", 1, 8, f);
    std::uint32_t n = 8, algo_len = 0, cols = 5000;
    std::fwrite(&n, sizeof n, 1, f);
    std::fwrite(&algo_len, sizeof algo_len, 1, f);
    std::fwrite(&cols, sizeof cols, 1, f);
    std::fclose(f);
    EXPECT_FALSE(obs::read_timeline_file(path, &err).has_value());
    EXPECT_NE(err.find("corrupt schema"), std::string::npos) << err;
  }
  EXPECT_FALSE(obs::read_timeline_file(temp_path("definitely_missing.mcktl"),
                                       &err)
                   .has_value());
  std::remove(path.c_str());
}

// A forged row count must be reported as truncation before the reader
// allocates for it: 2^30 rows of 1024 columns would be 8 TiB.
TEST(TimelineIo, RejectsForgedRowCountWithoutAllocating) {
  const std::string path = temp_path("tl_forged_rows.mcktl");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::uint32_t n = 8, algo_len = 0, cols = 1024, rep = 0;
  const std::uint8_t value = 0;
  const std::uint16_t name_len = 1;
  const std::uint64_t seed = 1, interval = 1, rows = 1ull << 30;
  std::fwrite("MCKTL02\0", 1, 8, f);
  std::fwrite(&n, sizeof n, 1, f);
  std::fwrite(&algo_len, sizeof algo_len, 1, f);
  std::fwrite(&cols, sizeof cols, 1, f);
  for (std::uint32_t c = 0; c < cols; ++c) {
    std::fwrite(&value, sizeof value, 1, f);
    std::fwrite(&name_len, sizeof name_len, 1, f);
    std::fwrite("c", 1, name_len, f);
  }
  std::fwrite("TLR.", 1, 4, f);
  std::fwrite(&rep, sizeof rep, 1, f);
  std::fwrite(&seed, sizeof seed, 1, f);
  std::fwrite(&interval, sizeof interval, 1, f);
  std::fwrite(&rows, sizeof rows, 1, f);
  const std::uint64_t row[2] = {1, 2};  // far short of one row
  std::fwrite(row, sizeof row, 1, f);
  std::fclose(f);

  std::string err;
  EXPECT_FALSE(obs::read_timeline_file(path, &err).has_value());
  EXPECT_NE(err.find("truncated rows"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(TimelineIo, RejectsMCKTL01File) {
  // A well-formed version-1 file: the same header, a schema whose column
  // descriptors carry an extra merge byte, and no runs.
  const std::string path = temp_path("tl_v1.mcktl");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::uint32_t n = 8, algo_len = 0, cols = 1;
  const std::uint8_t value = 0, merge = 0;
  const std::uint16_t name_len = 7;
  std::fwrite("MCKTL01\0", 1, 8, f);
  std::fwrite(&n, sizeof n, 1, f);
  std::fwrite(&algo_len, sizeof algo_len, 1, f);
  std::fwrite(&cols, sizeof cols, 1, f);
  std::fwrite(&value, sizeof value, 1, f);
  std::fwrite(&merge, sizeof merge, 1, f);
  std::fwrite(&name_len, sizeof name_len, 1, f);
  std::fwrite("time_ns", 1, name_len, f);
  std::fclose(f);

  std::string err;
  EXPECT_FALSE(obs::read_timeline_file(path, &err).has_value());
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Tracer OOM guard: the record cap produces an honest, bounded trace.
// ---------------------------------------------------------------------------

TEST(TracerCap, TruncationMarkerIsStampedAndAuditRefusesToCertify) {
  harness::ExperimentConfig cfg =
      cellular_config(harness::Algorithm::kCaoSinghal);
  cfg.capture_trace = true;
  cfg.trace_record_cap = 200;
  harness::RunResult res = harness::run_experiment(cfg);
  ASSERT_EQ(res.traces.size(), 1u);
  const obs::TraceRecords& r = res.traces[0].records;
  ASSERT_EQ(r.size(), 201u);  // cap + one marker
  const obs::TraceRecord marker = r.back();
  EXPECT_EQ(marker.kind, static_cast<std::uint8_t>(obs::TraceKind::kTruncated));
  EXPECT_EQ(marker.pid, -1);
  EXPECT_GT(marker.arg0, 0u) << "marker must carry the drop count";
  // A truncated rep cannot be certified.
  obs::AuditReport report =
      obs::audit_runs(res.traces, cfg.sys.num_processes);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.count(obs::AuditCheck::kTruncation), 0u);
}

TEST(TracerCap, UncappedRunsStayCertifiable) {
  harness::ExperimentConfig cfg =
      cellular_config(harness::Algorithm::kCaoSinghal);
  cfg.capture_trace = true;
  harness::RunResult res = harness::run_experiment(cfg);
  obs::AuditReport report =
      obs::audit_runs(res.traces, cfg.sys.num_processes);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.count(obs::AuditCheck::kTruncation), 0u);
}

}  // namespace
}  // namespace mck
