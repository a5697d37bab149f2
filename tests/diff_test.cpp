// Divergence forensics (obs/digest.hpp, obs/diff.hpp, trace_io MCKTRC03):
//
//  * digest round-trip — write_trace_file emits a footer the reader
//    restores bit-for-bit; verify_trace_digests passes on honest files
//    and names the corrupt chunk on tampered ones; a tampered footer
//    rejects the whole file.
//  * format version — a digest-less version-1 trace is rejected as bad
//    magic, so digest verification can never pass vacuously.
//  * fuzzed localization — for every algorithm, every single-record
//    mutation (bit-flip, drop, insert, swap-adjacent, truncate) is
//    localized by diff_traces to the exact (rep, record index) with the
//    right classification and a non-empty causal backtrace, while the
//    digest footer skips every chunk before the mutated one.
//  * decoder pins — the obs-layer name mirrors (obs cannot link rt/ckpt)
//    match the real enums name for name.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "ckpt/store.hpp"
#include "harness/experiment.hpp"
#include "obs/diff.hpp"
#include "obs/digest.hpp"
#include "obs/trace_io.hpp"
#include "record_vector.hpp"
#include "rt/message.hpp"

namespace mck {
namespace {

harness::ExperimentConfig lan_config(harness::Algorithm a) {
  harness::ExperimentConfig cfg;
  cfg.sys.algorithm = a;
  cfg.sys.num_processes = 8;
  cfg.sys.seed = 7;
  cfg.rate = 0.02;
  cfg.ckpt_interval = sim::seconds(600);
  cfg.horizon = sim::seconds(1800);
  cfg.capture_trace = true;
  return cfg;
}

constexpr harness::Algorithm kAllAlgorithms[] = {
    harness::Algorithm::kCaoSinghal,    harness::Algorithm::kKooToueg,
    harness::Algorithm::kElnozahy,      harness::Algorithm::kChandyLamport,
    harness::Algorithm::kLaiYang,       harness::Algorithm::kSimpleScheme,
    harness::Algorithm::kRevisedScheme, harness::Algorithm::kUncoordinated,
};

obs::TraceFile make_trace(harness::Algorithm a, int reps = 2,
                          double horizon_s = 1800.0) {
  harness::ExperimentConfig cfg = lan_config(a);
  cfg.horizon = sim::seconds(horizon_s);
  harness::RunResult res = harness::run_replicated(cfg, reps, 1);
  obs::TraceFile f;
  f.meta.num_processes = 8;
  f.meta.algo = harness::to_string(a);
  f.runs = std::move(res.traces);
  return f;
}

void refresh_digests(obs::TraceFile& f) {
  for (obs::TraceRun& run : f.runs) {
    run.digests = obs::compute_run_digests(run.records);
  }
}

/// Applies `fn` to run `rep`'s records as a vector, then re-encodes them.
template <typename Fn>
void edit_records(obs::TraceFile& f, int rep, Fn fn) {
  std::vector<obs::TraceRecord> v = obs::to_vector(f.runs[rep].records);
  fn(v);
  f.runs[rep].records = obs::to_records(v);
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

bool rec_eq(const obs::TraceRecord& x, const obs::TraceRecord& y) {
  return std::memcmp(&x, &y, sizeof x) == 0;
}

/// Mid-stream indices suitable for unambiguous mutation: a protocol
/// record of a real process with pairwise-distinct neighbors, so drop /
/// insert / swap realignment cannot alias onto a repeated record.
std::vector<std::size_t> mutation_sites(
    const std::vector<obs::TraceRecord>& recs) {
  std::vector<std::size_t> out;
  auto noise = [](const obs::TraceRecord& r) {
    auto k = static_cast<obs::TraceKind>(r.kind);
    return k == obs::TraceKind::kEventFire ||
           k == obs::TraceKind::kEventCancel ||
           k == obs::TraceKind::kQueueDepth ||
           k == obs::TraceKind::kTruncated;
  };
  for (std::size_t i = recs.size() / 3; i + 2 < 2 * recs.size() / 3; ++i) {
    if (noise(recs[i]) || recs[i].pid < 0) continue;
    if (rec_eq(recs[i], recs[i + 1]) || rec_eq(recs[i + 1], recs[i + 2]) ||
        rec_eq(recs[i], recs[i + 2])) {
      continue;
    }
    out.push_back(i);
  }
  return out;
}

/// A record that matches nothing the simulator ever emits, timestamped
/// to keep the stream time-ordered at the insertion point.
obs::TraceRecord foreign_record(sim::SimTime at) {
  obs::TraceRecord r{};
  r.at = at;
  r.pid = 3;
  r.kind = static_cast<std::uint8_t>(obs::TraceKind::kMsgSend);
  r.sub = 0;
  r.aux = 5;
  r.arg0 = 0xDEADBEEFull;
  r.arg1 = 0xFEEDFACEull;
  return r;
}

struct Mutation {
  const char* name;
  obs::DivergenceClass expect;
  // Applies the mutation to run `rep` of `f` at index i; returns the
  // index diff_traces must report.
  std::size_t (*apply)(obs::TraceFile& f, int rep, std::size_t i);
};

const Mutation kMutations[] = {
    {"bit-flip-arg0", obs::DivergenceClass::kPayloadField,
     [](obs::TraceFile& f, int rep, std::size_t i) {
       edit_records(f, rep, [i](auto& v) { v[i].arg0 ^= 1ull << 17; });
       return i;
     }},
    {"bit-flip-at", obs::DivergenceClass::kTimestamp,
     [](obs::TraceFile& f, int rep, std::size_t i) {
       edit_records(f, rep, [i](auto& v) { v[i].at ^= 1ull << 3; });
       return i;
     }},
    {"drop", obs::DivergenceClass::kMissingRecord,
     [](obs::TraceFile& f, int rep, std::size_t i) {
       edit_records(f, rep, [i](auto& v) {
         v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
       });
       return i;
     }},
    {"insert", obs::DivergenceClass::kExtraRecord,
     [](obs::TraceFile& f, int rep, std::size_t i) {
       edit_records(f, rep, [i](auto& v) {
         v.insert(v.begin() + static_cast<std::ptrdiff_t>(i),
                  foreign_record(v[i - 1].at));
       });
       return i;
     }},
    {"swap-adjacent", obs::DivergenceClass::kOrdering,
     [](obs::TraceFile& f, int rep, std::size_t i) {
       edit_records(f, rep, [i](auto& v) { std::swap(v[i], v[i + 1]); });
       return i;
     }},
    {"truncate", obs::DivergenceClass::kTruncation,
     [](obs::TraceFile& f, int rep, std::size_t i) {
       edit_records(f, rep, [i](auto& v) { v.resize(i); });
       return i;
     }},
};

// ---------------------------------------------------------------------------
// Digest round-trip + corruption
// ---------------------------------------------------------------------------

TEST(DigestIo, V2RoundTripRestoresDigests) {
  obs::TraceFile f = make_trace(harness::Algorithm::kCaoSinghal);
  ASSERT_EQ(f.runs.size(), 2u);
  for (const obs::TraceRun& run : f.runs) {
    // The harness plumbed digests through run_experiment already.
    ASSERT_TRUE(run.digests.present());
    EXPECT_EQ(run.digests.chunks.size(), run.records.chunks());
  }
  const std::string path = temp_path("digest_rt.trc");
  std::string err;
  ASSERT_TRUE(obs::write_trace_file(path, f.meta, f.runs, &err)) << err;
  std::optional<obs::TraceFile> back = obs::read_trace_file(path, &err);
  ASSERT_TRUE(back) << err;
  ASSERT_EQ(back->runs.size(), f.runs.size());
  for (std::size_t i = 0; i < f.runs.size(); ++i) {
    EXPECT_EQ(back->runs[i].digests.run, f.runs[i].digests.run);
    EXPECT_EQ(back->runs[i].digests.chunks, f.runs[i].digests.chunks);
  }
  EXPECT_TRUE(obs::verify_trace_digests(*back).empty());
  obs::TraceDiff d = obs::diff_traces(f, *back);
  EXPECT_TRUE(d.identical);
  EXPECT_TRUE(d.stats.used_digests);
  std::remove(path.c_str());
}

TEST(DigestIo, CorruptRecordIsNamedByChunk) {
  obs::TraceFile f = make_trace(harness::Algorithm::kKooToueg, 1, 4500.0);
  const std::string path = temp_path("digest_corrupt_rec.trc");
  std::string err;
  ASSERT_TRUE(obs::write_trace_file(path, f.meta, f.runs, &err)) << err;

  // Give the first record of the second chunk, on disk, a kind byte past
  // TraceKind::kCount that shares its kind's context (kind ^ 0x20).
  ASSERT_GT(f.runs[0].records.size(), obs::kDigestChunkRecords)
      << "trace too short to exercise chunk localization";
  const long off =
      obs::chunk_file_offset(f.meta.algo.size(), f.runs[0].records, 1);
  std::FILE* fp = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(fp, nullptr);
  ASSERT_EQ(std::fseek(fp, off, SEEK_SET), 0);
  int c = std::fgetc(fp);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(fp, off, SEEK_SET), 0);
  std::fputc(c ^ 0x20, fp);
  std::fclose(fp);

  // The bytes are still the canonical encoding of their records, so the
  // file parses, but digest verification pins the corruption to chunk 1
  // and the run digest stays consistent with the stored chunks (only
  // recomputation fails).
  std::optional<obs::TraceFile> back = obs::read_trace_file(path, &err);
  ASSERT_TRUE(back) << err;
  std::vector<obs::DigestMismatch> bad = obs::verify_trace_digests(*back);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].rep, back->runs[0].rep);
  EXPECT_EQ(bad[0].chunk, 1);
  EXPECT_NE(bad[0].stored, bad[0].computed);
  std::remove(path.c_str());
}

TEST(DigestIo, CorruptFooterRejectsFile) {
  obs::TraceFile f = make_trace(harness::Algorithm::kLaiYang, 1);
  const std::string path = temp_path("digest_corrupt_footer.trc");
  std::string err;
  ASSERT_TRUE(obs::write_trace_file(path, f.meta, f.runs, &err)) << err;

  // Flip one byte inside a stored chunk digest (8 bytes before the
  // trailing self-digest, i.e. the last chunk digest).
  std::FILE* fp = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(fp, nullptr);
  ASSERT_EQ(std::fseek(fp, -13, SEEK_END), 0);
  int c = std::fgetc(fp);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(fp, -13, SEEK_END), 0);
  std::fputc(c ^ 0x01, fp);
  std::fclose(fp);

  std::optional<obs::TraceFile> back = obs::read_trace_file(path, &err);
  EXPECT_FALSE(back);
  EXPECT_NE(err.find("digest footer"), std::string::npos) << err;
  std::remove(path.c_str());
}

TEST(DigestIo, TruncatedFooterRejectsFile) {
  obs::TraceFile f = make_trace(harness::Algorithm::kElnozahy, 1);
  const std::string path = temp_path("digest_truncated_footer.trc");
  std::string err;
  ASSERT_TRUE(obs::write_trace_file(path, f.meta, f.runs, &err)) << err;
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  ASSERT_NE(fp, nullptr);
  ASSERT_EQ(std::fseek(fp, 0, SEEK_END), 0);
  const long full = std::ftell(fp);
  std::fclose(fp);
  ASSERT_EQ(truncate(path.c_str(), full - 4), 0);
  std::optional<obs::TraceFile> back = obs::read_trace_file(path, &err);
  EXPECT_FALSE(back);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Format version
// ---------------------------------------------------------------------------

TEST(TraceVersion, RejectsMCKTRC01Header) {
  // The version-1 layout: the same header and RUN. sections, no footer.
  const std::string path = temp_path("v1.trc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char algo[] = "cao-singhal";
  const std::uint32_t n = 4, algo_len = sizeof algo - 1, rep = 0;
  const std::uint64_t seed = 1, count = 1;
  const obs::TraceRecord rec{};
  std::fwrite("MCKTRC01", 1, 8, f);
  std::fwrite(&n, sizeof n, 1, f);
  std::fwrite(&algo_len, sizeof algo_len, 1, f);
  std::fwrite(algo, 1, algo_len, f);
  std::fwrite("RUN.", 1, 4, f);
  std::fwrite(&rep, sizeof rep, 1, f);
  std::fwrite(&seed, sizeof seed, 1, f);
  std::fwrite(&count, sizeof count, 1, f);
  std::fwrite(&rec, sizeof rec, 1, f);
  std::fclose(f);

  std::string err;
  EXPECT_FALSE(obs::read_trace_file(path, &err).has_value());
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fuzzed single-record mutations, all algorithms x all mutation kinds
// ---------------------------------------------------------------------------

TEST(DiffFuzz, EveryMutationIsLocalizedExactly) {
  std::mt19937_64 rng(0x6d636b64696666ull);  // fixed: deterministic test
  for (harness::Algorithm algo : kAllAlgorithms) {
    obs::TraceFile base = make_trace(algo);
    refresh_digests(base);
    ASSERT_EQ(base.runs.size(), 2u);
    const int rep = 1;  // mutate rep 1: rep 0 must compare clean first
    std::vector<std::size_t> sites =
        mutation_sites(obs::to_vector(base.runs[rep].records));
    ASSERT_FALSE(sites.empty()) << harness::to_string(algo);

    for (const Mutation& m : kMutations) {
      SCOPED_TRACE(std::string(harness::to_string(algo)) + " / " + m.name);
      obs::TraceFile mut = base;
      const std::size_t site =
          sites[std::uniform_int_distribution<std::size_t>(
              0, sites.size() - 1)(rng)];
      const std::size_t want = m.apply(mut, rep, site);
      refresh_digests(mut);

      obs::TraceDiff d = obs::diff_traces(base, mut);
      EXPECT_FALSE(d.identical);
      ASSERT_TRUE(d.first.has_value());
      EXPECT_EQ(d.first->rep, base.runs[rep].rep);
      EXPECT_EQ(d.first->index, want);
      EXPECT_EQ(d.first->cls, m.expect)
          << "got " << obs::to_string(d.first->cls) << " at index "
          << d.first->index;
      EXPECT_EQ(d.first->chunk, want / obs::kDigestChunkRecords);
      // The causal explainer must have history to show on every side
      // that still has a record (mid-stream sites guarantee prior
      // activity of the diverging process).
      EXPECT_FALSE(d.first->backtrace_a.empty());
      if (d.first->has_b) {
        EXPECT_FALSE(d.first->backtrace_b.empty());
      }
      // Digest-guided: every chunk before the mutated one was skipped,
      // and the record scan stayed inside one chunk (plus rep 0, which
      // the digests cleared without scanning any record).
      EXPECT_TRUE(d.stats.used_digests);
      EXPECT_GE(d.stats.chunks_skipped, want / obs::kDigestChunkRecords);
      EXPECT_LE(d.stats.records_scanned, obs::kDigestChunkRecords);
    }
  }
}

TEST(DiffFuzz, DigestSearchSkipsEveryChunkBeforeTheMutation) {
  // A long enough run that the mutation lands past chunk 0: the digest
  // walk must skip every earlier chunk and the record scan must stay
  // inside the mutated chunk.
  obs::TraceFile base =
      make_trace(harness::Algorithm::kCaoSinghal, 1, 12000.0);
  refresh_digests(base);
  const std::size_t n = base.runs[0].records.size();
  ASSERT_GT(n, 2 * obs::kDigestChunkRecords)
      << "trace too short to land a mutation past chunk 0";
  std::size_t site = 0;
  for (std::size_t i : mutation_sites(obs::to_vector(base.runs[0].records))) {
    if (i > obs::kDigestChunkRecords + 16) {
      site = i;
      break;
    }
  }
  ASSERT_GT(site, 0u);

  obs::TraceFile mut = base;
  edit_records(mut, 0, [site](auto& v) { v[site].arg1 ^= 1ull << 42; });
  refresh_digests(mut);

  obs::TraceDiff d = obs::diff_traces(base, mut);
  ASSERT_TRUE(d.first.has_value());
  EXPECT_EQ(d.first->index, site);
  EXPECT_EQ(d.first->cls, obs::DivergenceClass::kPayloadField);
  EXPECT_GE(d.first->chunk, 1u);
  EXPECT_TRUE(d.stats.used_digests);
  EXPECT_EQ(d.stats.chunks_skipped, d.first->chunk);
  EXPECT_LT(d.stats.records_scanned, obs::kDigestChunkRecords);
}

TEST(DiffRecords, IdenticalStreamsReportNoDivergence) {
  obs::TraceFile f = make_trace(harness::Algorithm::kSimpleScheme, 1);
  EXPECT_FALSE(
      obs::diff_records(f.runs[0].records, f.runs[0].records).has_value());
}

// ---------------------------------------------------------------------------
// Name pins (obs/trace.hpp mirrors rt/ckpt without linking them; the
// values are static_asserted in rt/message.hpp and ckpt/store.hpp)
// ---------------------------------------------------------------------------

TEST(DecoderPins, MsgKindNamesMatchRt) {
  for (int k = 0; k < rt::kMsgKindCount; ++k) {
    EXPECT_STREQ(obs::msg_kind_name(static_cast<std::uint8_t>(k)),
                 rt::to_string(static_cast<rt::MsgKind>(k)));
  }
  EXPECT_STREQ(obs::msg_kind_name(rt::kMsgKindCount), "?");
}

TEST(DecoderPins, CkptKindNamesMatchCkpt) {
  for (int k = 0; k < obs::kRawCkptKindCount; ++k) {
    EXPECT_STREQ(obs::ckpt_kind_name(static_cast<std::uint8_t>(k)),
                 ckpt::to_string(static_cast<ckpt::CkptKind>(k)));
  }
  EXPECT_STREQ(obs::ckpt_kind_name(obs::kRawCkptKindCount), "?");
}

}  // namespace
}  // namespace mck
