// Flight-recorder tests: Tracer mechanics, trace-file round trips, the
// determinism guarantee (byte-identical traces for any --jobs count), and
// the cross-check that metrics derived purely from the trace agree with
// the protocols' own rt::RunStats accounting — two independent paths that
// must reach the same numbers, for every algorithm.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/store.hpp"
#include "harness/experiment.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/round_metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "record_vector.hpp"
#include "stats/table.hpp"

namespace mck {
namespace {

using obs::TraceKind;
using obs::TraceRecord;
using obs::Tracer;

TEST(Tracer, OffRecordsNothing) {
  Tracer t;
  t.record(TraceKind::kMsgSend, 10, 0, 0, 1, 42, 50);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.take_records().empty());
}

TEST(Tracer, RecordsInOrderWithFields) {
  Tracer t;
  t.enable();
  t.record(TraceKind::kMsgSend, 10, 3, 1, 7, 42, 50);
  t.record(TraceKind::kBlock, 20, 5, 0, 0);
  obs::TraceRecords r = t.take_records();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].at, 10);
  EXPECT_EQ(r[0].pid, 3);
  EXPECT_EQ(r[0].kind, static_cast<std::uint8_t>(TraceKind::kMsgSend));
  EXPECT_EQ(r[0].sub, 1);
  EXPECT_EQ(r[0].aux, 7);
  EXPECT_EQ(r[0].arg0, 42u);
  EXPECT_EQ(r[0].arg1, 50u);
  EXPECT_EQ(r[1].kind, static_cast<std::uint8_t>(TraceKind::kBlock));
  // take_records resets: the tracer is reusable.
  EXPECT_EQ(t.size(), 0u);
  t.record(TraceKind::kBlock, 30, 1, 0, 0);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Tracer, MaskFiltersKinds) {
  Tracer t;
  t.enable(Tracer::mask_of(TraceKind::kBlock));
  EXPECT_TRUE(t.enabled(TraceKind::kBlock));
  EXPECT_FALSE(t.enabled(TraceKind::kMsgSend));
  t.record(TraceKind::kMsgSend, 1, 0, 0, 0);
  t.record(TraceKind::kBlock, 2, 0, 0, 0);
  obs::TraceRecords r = t.take_records();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].kind, static_cast<std::uint8_t>(TraceKind::kBlock));
}

// A run that fills many chunks round-trips in order, and take_records
// leaves the tracer ready for the next run.
TEST(Tracer, GrowsAcrossChunksPreservingOrder) {
  Tracer t;
  t.enable();
  const std::uint64_t n = (1ull << 20) + 2;
  for (std::uint64_t i = 0; i < n; ++i) {
    t.record(TraceKind::kEventFire, static_cast<sim::SimTime>(i), -1, 0, 0, i);
  }
  EXPECT_EQ(t.size(), n);
  obs::TraceRecords r = t.take_records();
  ASSERT_EQ(r.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(r[i].arg0, i);
    ASSERT_EQ(r[i].at, static_cast<sim::SimTime>(i));
  }
  r = {};
  EXPECT_EQ(t.size(), 0u);
  t.record(TraceKind::kBlock, 7, 2, 0, 0, 99);
  r = t.take_records();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].arg0, 99u);
  EXPECT_EQ(r[0].pid, 2);
}

TEST(Tracer, CapPastTheFirstChunkKeepsTheExactPrefix) {
  Tracer t;
  t.enable();
  const std::uint64_t cap = (1ull << 20) + 5;
  t.set_record_cap(cap);
  const std::uint64_t n = cap + 100;
  for (std::uint64_t i = 0; i < n; ++i) {
    t.record(TraceKind::kEventFire, static_cast<sim::SimTime>(i), -1, 0, 0, i);
  }
  EXPECT_TRUE(t.truncated());
  EXPECT_EQ(t.dropped(), 100u);
  obs::TraceRecords r = t.take_records();
  ASSERT_EQ(r.size(), cap + 1);
  for (std::uint64_t i = 0; i < cap; ++i) ASSERT_EQ(r[i].arg0, i);
  const TraceRecord& marker = r.back();
  EXPECT_EQ(marker.kind, static_cast<std::uint8_t>(TraceKind::kTruncated));
  EXPECT_EQ(marker.pid, -1);
  EXPECT_EQ(marker.arg0, 100u);
  EXPECT_EQ(marker.arg1, cap);                             // first drop
  EXPECT_EQ(marker.at, static_cast<sim::SimTime>(n - 1));  // last drop
  EXPECT_FALSE(t.truncated());  // reset for reuse
}

// Regression: a retry extra-delay at or past 2^56 ns used to shift into
// the count byte, corrupting both fields on decode. Both fields saturate
// at their maximum instead.
TEST(TracePack, RetryFieldsSaturateAtTheirMaxima) {
  // In-range values round-trip exactly.
  std::uint64_t packed = obs::pack_retry(12345, 3);
  EXPECT_EQ(obs::retry_extra_of(packed), 12345);
  EXPECT_EQ(obs::retry_count_of(packed), 3u);

  // The exact field maximum is representable.
  packed = obs::pack_retry(static_cast<sim::SimTime>(obs::kRetryExtraMax), 255);
  EXPECT_EQ(obs::retry_extra_of(packed),
            static_cast<sim::SimTime>(obs::kRetryExtraMax));
  EXPECT_EQ(obs::retry_count_of(packed), 255u);

  // One past the maximum saturates; the count byte stays intact.
  packed = obs::pack_retry(static_cast<sim::SimTime>(obs::kRetryExtraMax) + 1, 7);
  EXPECT_EQ(obs::retry_extra_of(packed),
            static_cast<sim::SimTime>(obs::kRetryExtraMax));
  EXPECT_EQ(obs::retry_count_of(packed), 7u);

  // Far past the maximum (the worst case: all high bits set).
  packed = obs::pack_retry(std::numeric_limits<sim::SimTime>::max(), 1);
  EXPECT_EQ(obs::retry_extra_of(packed),
            static_cast<sim::SimTime>(obs::kRetryExtraMax));
  EXPECT_EQ(obs::retry_count_of(packed), 1u);

  // Retry counts above the 8-bit field cap at 255 without touching extra.
  packed = obs::pack_retry(99, 300);
  EXPECT_EQ(obs::retry_extra_of(packed), 99);
  EXPECT_EQ(obs::retry_count_of(packed), 255u);
}

// Regression: an empty histogram used to render mean/percentiles as 0,
// indistinguishable from a populated histogram whose mean really is 0.
TEST(MetricsRender, EmptyHistogramRendersDashesNotZeros) {
  obs::Registry reg;
  reg.histogram("empty_h", {1.0, 10.0, 100.0});
  obs::Histogram& full = reg.histogram("full_h", {1.0, 10.0, 100.0});
  full.observe(5.0);
  std::string out = reg.render();
  EXPECT_NE(out.find("0 obs, mean - [-, -] p50 - p95 - p99 -"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("1 obs, mean "), std::string::npos) << out;
}

TEST(TraceIo, RoundTrip) {
  obs::TraceFileMeta meta;
  meta.num_processes = 4;
  meta.algo = "cao-singhal";
  std::vector<obs::TraceRun> runs(2);
  runs[0].rep = 0;
  runs[0].seed = 1;
  runs[1].rep = 1;
  runs[1].seed = 99;
  for (int i = 0; i < 5; ++i) {
    TraceRecord r{};
    r.at = i;
    r.kind = static_cast<std::uint8_t>(TraceKind::kMsgSend);
    r.arg0 = static_cast<std::uint64_t>(100 + i);
    runs[static_cast<std::size_t>(i % 2)].records.push_back(r);
  }

  const std::string path = "obs_trace_roundtrip.tmp";
  std::string err;
  ASSERT_TRUE(obs::write_trace_file(path, meta, runs, &err)) << err;
  std::optional<obs::TraceFile> f = obs::read_trace_file(path, &err);
  ASSERT_TRUE(f.has_value()) << err;
  std::remove(path.c_str());

  EXPECT_EQ(f->meta.num_processes, 4);
  EXPECT_EQ(f->meta.algo, "cao-singhal");
  ASSERT_EQ(f->runs.size(), 2u);
  EXPECT_EQ(f->runs[1].seed, 99u);
  EXPECT_EQ(f->total_records(), 5u);
  for (std::size_t k = 0; k < 2; ++k) {
    ASSERT_EQ(f->runs[k].records.size(), runs[k].records.size());
    const std::vector<TraceRecord> got = obs::to_vector(f->runs[k].records);
    const std::vector<TraceRecord> want = obs::to_vector(runs[k].records);
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(TraceRecord)),
              0);
  }
}

TEST(TraceIo, RejectsCorruptFile) {
  const std::string path = "obs_trace_corrupt.tmp";
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  ASSERT_NE(fp, nullptr);
  std::fputs("NOTATRACEFILE", fp);
  std::fclose(fp);
  std::string err;
  EXPECT_FALSE(obs::read_trace_file(path, &err).has_value());
  EXPECT_FALSE(err.empty());
  std::remove(path.c_str());
}

// The reader streams a run chunk by chunk; a corrupt byte in a run's
// last, short chunk is still pinned to that chunk's index.
TEST(TraceIo, BitFlipInTheLastShortChunkIsReportedByIndex) {
  obs::TraceFileMeta meta;
  meta.num_processes = 8;
  meta.algo = "koo-toueg";
  std::vector<obs::TraceRun> runs(1);
  runs[0].seed = 3;
  const std::size_t count = 2 * obs::kDigestChunkRecords + 37;
  for (std::size_t i = 0; i < count; ++i) {
    runs[0].records.push_back(TraceRecord{
        static_cast<sim::SimTime>(10 * i), i, i * 3,
        static_cast<std::int32_t>(i % 8),
        static_cast<std::uint8_t>(TraceKind::kMsgSend), 0, 1});
  }
  const std::string path = testing::TempDir() + "obs_trace_last_chunk.trc";
  std::string err;
  ASSERT_TRUE(obs::write_trace_file(path, meta, runs, &err)) << err;

  // Flip a bit of the kind byte of chunk 2's first record (chunk 2 is 37
  // records long). The bytes still encode 37 records canonically, so the
  // file reads and only the digest sees the change.
  const long off = obs::chunk_file_offset(meta.algo.size(), runs[0].records, 2);
  std::FILE* fp = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(fp, nullptr);
  ASSERT_EQ(std::fseek(fp, off, SEEK_SET), 0);
  const int c = std::fgetc(fp);
  ASSERT_EQ(c, static_cast<int>(TraceKind::kMsgSend));
  ASSERT_EQ(std::fseek(fp, off, SEEK_SET), 0);
  std::fputc(c ^ 0x01, fp);
  std::fclose(fp);

  std::optional<obs::TraceFile> back = obs::read_trace_file(path, &err);
  ASSERT_TRUE(back) << err;
  ASSERT_EQ(back->runs[0].records.size(), count);
  const std::vector<obs::DigestMismatch> bad =
      obs::verify_trace_digests(*back);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].rep, 0);
  EXPECT_EQ(bad[0].chunk, 2);
  EXPECT_NE(bad[0].stored, bad[0].computed);
  std::remove(path.c_str());
}

std::string file_bytes(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

/// Writes `bytes` to `path`.
void write_bytes(const std::string& path, const std::string& bytes) {
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  ASSERT_NE(fp, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), fp), bytes.size());
  std::fclose(fp);
}

/// A trace file image up to its first run's first chunk byte count.
std::string run_prefix(const char (&magic)[8], std::uint64_t count) {
  std::string out(magic, 8);
  const auto put = [&out](const auto& v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(std::uint32_t{4});
  put(std::uint32_t{3});
  out += "cao";
  out += "RUN.";
  put(std::uint32_t{0});
  put(std::uint64_t{1});
  put(count);
  return out;
}

// The 51-byte file of a header, a run header and a forged record count
// of 2^30 is reported as truncated before anything is allocated.
TEST(TraceIo, RejectsForgedRecordCountWithoutAllocating) {
  const std::string path = testing::TempDir() + "obs_trace_forged_count.trc";
  write_bytes(path, run_prefix(obs::kTraceFileMagic, 1ull << 30));
  std::string err;
  EXPECT_FALSE(obs::read_trace_file(path, &err).has_value());
  EXPECT_NE(err.find("rep 0 chunk 0: truncated records"), std::string::npos)
      << err;
  std::remove(path.c_str());
}

// A chunk byte count of 2^32-1 is more than any 4096 records can take,
// so the reader refuses it before it sizes a buffer for it.
TEST(TraceIo, RejectsForgedChunkByteCountBeforeAllocating) {
  const std::string path = testing::TempDir() + "obs_trace_forged_len.trc";
  std::string image = run_prefix(obs::kTraceFileMagic, 4096);
  const std::uint32_t len = 0xffffffffu;
  image.append(reinterpret_cast<const char*>(&len), sizeof len);
  image.append(64, '\0');
  write_bytes(path, image);
  std::string err;
  EXPECT_FALSE(obs::read_trace_file(path, &err).has_value());
  EXPECT_NE(err.find("rep 0 chunk 0: implausible chunk byte count"),
            std::string::npos)
      << err;
  std::remove(path.c_str());
}

// The 32-byte-record layout is another format: its magic is rejected.
TEST(TraceIo, RejectsMCKTRC02Header) {
  const std::string path = testing::TempDir() + "obs_trace_v2.trc";
  const char v2[8] = {'M', 'C', 'K', 'T', 'R', 'C', '0', '2'};
  std::string image = run_prefix(v2, 1);
  image.append(sizeof(TraceRecord), '\0');
  write_bytes(path, image);
  std::string err;
  EXPECT_FALSE(obs::read_trace_file(path, &err).has_value());
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
  std::remove(path.c_str());
}

// ---- TraceRecords: the in-memory encoding is lossless ---------------------

/// Records no simulator emits but a forged trace may hold: extreme and
/// backwards times, all-ones arguments, negative and minimum pids, and
/// kind bytes past TraceKind::kCount.
std::vector<TraceRecord> adversarial_records() {
  constexpr std::uint64_t kOnes = ~std::uint64_t{0};
  const auto k = [](int kind) { return static_cast<std::uint8_t>(kind); };
  const std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int32_t kPidMin = std::numeric_limits<std::int32_t>::min();
  return {
      TraceRecord{kMin, 0, 0, -1, k(0), 0, 0},
      TraceRecord{kMax, kOnes, kOnes, kPidMin, k(3), 0xff, 0xffff},
      TraceRecord{kMin, kOnes, 1, std::numeric_limits<std::int32_t>::max(),
                  k(4), 0x80, 0x8000},
      TraceRecord{-1, 0x8000000000000000ull, 0x7fffffffffffffffull, -1,
                  k(obs::kTraceKindCount), 7, 1},
      TraceRecord{0, kOnes, kOnes, -1, k(0xff), 0xff, 0xffff},
      TraceRecord{5, 1ull << 56, (1ull << 56) - 1, 0, k(31), 1, 0},
      TraceRecord{4, 0, 0, 0, k(32), 0, 0},  // shares kind 0's context
      TraceRecord{3, 0, 0, 0, k(63), 0, 0},
  };
}

/// `count` records: runs of plausible ones (small forward deltas) mixed
/// with random bit patterns and the adversarial set, with an adversarial
/// record at every 16-record block edge.
std::vector<TraceRecord> mixed_records(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::vector<TraceRecord> special = adversarial_records();
  std::vector<TraceRecord> out;
  out.reserve(count);
  sim::SimTime now = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t roll = rng() % 16;
    TraceRecord r{};
    if (i % 16 == 15 || i % 16 == 0 || roll == 0) {
      r = special[rng() % special.size()];
    } else if (roll < 4) {
      r = TraceRecord{static_cast<sim::SimTime>(rng()), rng(), rng(),
                      static_cast<std::int32_t>(rng()),
                      static_cast<std::uint8_t>(rng()),
                      static_cast<std::uint8_t>(rng()),
                      static_cast<std::uint16_t>(rng())};
    } else {
      now += static_cast<sim::SimTime>(rng() % 5000);
      r = TraceRecord{now, i, (rng() % 64) << 32 | 64,
                      static_cast<std::int32_t>(rng() % 1024) - 1,
                      static_cast<std::uint8_t>(rng() % obs::kTraceKindCount),
                      static_cast<std::uint8_t>(rng() % 4),
                      static_cast<std::uint16_t>(rng() % 1024)};
    }
    out.push_back(r);
  }
  return out;
}

// Every single-byte corruption and every truncation of a file of two full
// chunks and a short one is caught, and one inside a chunk is pinned to
// that chunk: the reader names the rep and the chunk, or the chunk's
// bytes still decode canonically and verify_trace_digests names it.
// Outside the chunks (header, run header, footer) a corruption is
// rejected or changes only what no digest covers (process count, algo
// name, seed), never a record.
TEST(TraceIo, EveryByteFlipAndTruncationIsRejectedOrNamedByChunk) {
  obs::TraceFileMeta meta;
  meta.num_processes = 64;
  meta.algo = "cs";
  std::vector<obs::TraceRun> runs(1);
  runs[0].rep = 0;
  runs[0].seed = 5;
  // Each chunk opens and closes with two blocks of records of every
  // shape (mixed_records) around all-zero records, which take 2 bytes
  // each: every byte of the file is tried, so the file is kept small.
  const std::size_t count = 2 * obs::kDigestChunkRecords + 37;
  const std::vector<TraceRecord> varied = mixed_records(count, 3);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t k = i % obs::kDigestChunkRecords;
    const bool edge = k < 32 || k + 32 >= obs::kDigestChunkRecords ||
                      i + 32 >= count;
    runs[0].records.push_back(edge ? varied[i] : TraceRecord{});
  }
  const obs::TraceRecords& want = runs[0].records;
  const std::string path = testing::TempDir() + "obs_trace_fuzz.trc";
  std::string err;
  ASSERT_TRUE(obs::write_trace_file(path, meta, runs, &err)) << err;
  const std::string image = file_bytes(path);
  // Chunk c spans [lo[c], lo[c + 1]) of the file: byte count and data.
  std::vector<std::size_t> lo;
  for (std::size_t c = 0; c < want.chunks(); ++c) {
    lo.push_back(static_cast<std::size_t>(
                     obs::chunk_file_offset(meta.algo.size(), want, c)) -
                 4);
  }
  lo.push_back(lo.back() + 4 + want.chunk_bytes(want.chunks() - 1).size());
  const auto chunk_of = [&lo](std::size_t pos) -> std::int64_t {
    for (std::size_t c = 0; c + 1 < lo.size(); ++c) {
      if (pos >= lo[c] && pos < lo[c + 1]) return static_cast<std::int64_t>(c);
    }
    return -1;
  };
  const auto names = [](const std::string& e, std::int64_t c) {
    return e.find("rep 0 chunk " + std::to_string(c) + ": ") !=
           std::string::npos;
  };

  std::size_t rejected = 0, verified = 0;
  std::FILE* fp = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(fp, nullptr);
  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    const auto flip = [&](unsigned char mask) {
      std::fseek(fp, static_cast<long>(pos), SEEK_SET);
      std::fputc(static_cast<unsigned char>(image[pos]) ^ mask, fp);
      std::fflush(fp);
    };
    flip(static_cast<unsigned char>(1u << (pos % 8)));
    std::optional<obs::TraceFile> back = obs::read_trace_file(path, &err);
    flip(0);
    const std::int64_t c = chunk_of(pos);
    if (!back) {
      ++rejected;
      if (c >= 0) {
        ASSERT_TRUE(names(err, c)) << "byte " << pos << ": " << err;
      }
      continue;
    }
    const std::vector<obs::DigestMismatch> bad =
        obs::verify_trace_digests(*back);
    if (c >= 0) {
      ++verified;
      ASSERT_EQ(bad.size(), 1u) << "byte " << pos;
      ASSERT_EQ(bad[0].chunk, c) << "byte " << pos;
    } else {
      ASSERT_TRUE(bad.empty()) << "byte " << pos;
      ASSERT_TRUE(back->runs[0].records == want) << "byte " << pos;
    }
  }
  std::fclose(fp);
  // Both outcomes occur: the test is not vacuous.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(verified, 0u);

  for (std::size_t len = image.size(); len-- > 0;) {
    ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(len)), 0);
    EXPECT_FALSE(obs::read_trace_file(path, &err)) << "length " << len;
    const std::int64_t c = chunk_of(len);
    if (c >= 0) {
      ASSERT_TRUE(names(err, c)) << "length " << len << ": " << err;
    }
  }
  std::remove(path.c_str());
}

bool same_record(const TraceRecord& a, const TraceRecord& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(TraceRecords, EncodingIsLosslessAcrossBlocksAndSegments) {
  const std::vector<TraceRecord> want = mixed_records(300000, 28);
  obs::TraceRecords got;
  for (const TraceRecord& r : want) got.push_back(r);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_GE(got.segments(), 3u) << "the records must span segments";
  EXPECT_GT(got.bytes(), 0u);

  std::size_t i = 0;
  for (const TraceRecord& r : got) {
    ASSERT_TRUE(same_record(r, want[i])) << "iteration, record " << i;
    ++i;
  }
  EXPECT_EQ(i, want.size());
  for (std::size_t j = 0; j < want.size(); j += 7) {
    ASSERT_TRUE(same_record(got[j], want[j])) << "operator[], record " << j;
  }
  std::mt19937_64 rng(7);
  for (int n = 0; n < 1000; ++n) {
    const std::size_t j = rng() % want.size();
    auto it = got.from(j);
    for (std::size_t k = j; k < std::min(want.size(), j + 40); ++k, ++it) {
      ASSERT_TRUE(same_record(*it, want[k])) << "from(" << j << "), " << k;
    }
  }
  EXPECT_TRUE(same_record(got.back(), want.back()));
  EXPECT_TRUE(got.from(want.size()) == got.end());

  // Copies and moves keep the records, and the encoding is canonical:
  // equal records compare equal, one appended record does not.
  obs::TraceRecords copy = got;
  EXPECT_TRUE(copy == got);
  EXPECT_EQ(copy.bytes(), got.bytes());
  copy.push_back(want.front());
  EXPECT_FALSE(copy == got);
  obs::TraceRecords moved = std::move(copy);
  EXPECT_EQ(moved.size(), want.size() + 1);
  EXPECT_TRUE(same_record(moved.back(), want.front()));
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
}

/// The encoded bytes of one chunk of records, written from the layout in
/// obs/trace_records.hpp independently of TraceRecords: per 16-record
/// block every context starts at zero; per record a kind byte, a mask
/// byte, and for each field that differs from its context the zigzag of
/// the delta (wrapped in the field's width) as a prefix varint.
std::string reference_chunk(const TraceRecord* r, std::size_t n) {
  std::string out;
  const auto varint = [&out](std::uint64_t v) {
    if (v >> 56 != 0) {  // a zero byte, then 8 raw bytes
      out += '\0';
      for (int i = 0; i < 8; ++i) out += static_cast<char>(v >> (8 * i));
      return;
    }
    int len = 1;  // 7 value bits a byte, the length in trailing zeros
    while (len < 8 && v >> (7 * len) != 0) ++len;
    const std::uint64_t w = ((v << 1) | 1) << (len - 1);
    for (int i = 0; i < len; ++i) out += static_cast<char>(w >> (8 * i));
  };
  const auto zigzag = [](std::int64_t d) {
    return (static_cast<std::uint64_t>(d) << 1) ^
           static_cast<std::uint64_t>(d >> 63);
  };
  struct Ctx {
    std::uint64_t arg0 = 0, arg1 = 0;
    std::uint32_t pid = 0;
    std::uint8_t sub = 0;
    std::uint16_t aux = 0;
  };
  Ctx ctx[32];
  std::uint64_t at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 16 == 0) {
      std::fill(std::begin(ctx), std::end(ctx), Ctx{});
      at = 0;
    }
    const TraceRecord& x = r[i];
    Ctx& c = ctx[x.kind % 32];
    const std::size_t head = out.size();
    out += static_cast<char>(x.kind);
    out += '\0';
    unsigned mask = 0;
    const auto field = [&](unsigned bit, bool differs, std::int64_t delta) {
      if (!differs) return;
      mask |= bit;
      varint(zigzag(delta));
    };
    const auto xat = static_cast<std::uint64_t>(x.at);
    const auto xpid = static_cast<std::uint32_t>(x.pid);
    field(1, xat != at, static_cast<std::int64_t>(xat - at));
    field(2, x.arg0 != c.arg0, static_cast<std::int64_t>(x.arg0 - c.arg0));
    field(4, x.arg1 != c.arg1, static_cast<std::int64_t>(x.arg1 - c.arg1));
    field(8, xpid != c.pid, static_cast<std::int32_t>(xpid - c.pid));
    field(16, x.sub != c.sub, static_cast<std::int8_t>(x.sub - c.sub));
    field(32, x.aux != c.aux, static_cast<std::int16_t>(x.aux - c.aux));
    out[head + 1] = static_cast<char>(mask);
    at = xat;
    c = Ctx{x.arg0, x.arg1, xpid, x.sub, x.aux};
  }
  return out;
}

/// The MCKTRC03 image of `runs`, written by hand from raw records,
/// reference_chunk and obs::digest_bytes, following the layout documented
/// in trace_io.hpp.
std::string reference_trace_file(
    const obs::TraceFileMeta& meta,
    const std::vector<std::pair<obs::TraceRun, std::vector<TraceRecord>>>&
        runs) {
  std::string out;
  const auto put = [&out](const void* p, std::size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  const auto put32 = [&put](std::uint32_t v) { put(&v, 4); };
  const auto put64 = [&put](std::uint64_t v) { put(&v, 8); };
  put(obs::kTraceFileMagic, 8);
  put32(static_cast<std::uint32_t>(meta.num_processes));
  put32(static_cast<std::uint32_t>(meta.algo.size()));
  put(meta.algo.data(), meta.algo.size());
  for (const auto& [run, raw] : runs) {
    put("RUN.", 4);
    put32(static_cast<std::uint32_t>(run.rep));
    put64(run.seed);
    put64(raw.size());
    for (std::size_t lo = 0; lo < raw.size(); lo += obs::kDigestChunkRecords) {
      const std::string chunk = reference_chunk(
          raw.data() + lo, std::min(raw.size() - lo, obs::kDigestChunkRecords));
      put32(static_cast<std::uint32_t>(chunk.size()));
      put(chunk.data(), chunk.size());
    }
  }
  std::string footer;
  const auto foot = [&footer](const void* p, std::size_t n) {
    footer.append(static_cast<const char*>(p), n);
  };
  const std::uint32_t run_count = static_cast<std::uint32_t>(runs.size());
  foot(&run_count, 4);
  for (const auto& [run, raw] : runs) {
    std::vector<std::uint64_t> chunks;
    for (std::size_t lo = 0; lo < raw.size(); lo += obs::kDigestChunkRecords) {
      const std::string chunk = reference_chunk(
          raw.data() + lo, std::min(raw.size() - lo, obs::kDigestChunkRecords));
      chunks.push_back(
          obs::digest_bytes(chunk.data(), chunk.size(), chunks.size() + 1));
    }
    const std::uint64_t run_digest =
        obs::digest_bytes(chunks.data(), chunks.size() * 8,
                          0x6d636b64696765ull ^ raw.size());
    const std::uint32_t rep = static_cast<std::uint32_t>(run.rep);
    const std::uint64_t chunk_count = chunks.size();
    foot(&rep, 4);
    foot(&run_digest, 8);
    foot(&chunk_count, 8);
    foot(chunks.data(), chunks.size() * 8);
  }
  put("DIG.", 4);
  out += footer;
  put64(obs::digest_bytes(footer.data(), footer.size(), 0x666f6f746572ull));
  return out;
}

// The file holds the records in the encoding trace_records.hpp
// specifies: a written file, and the file written again from its
// read-back, both equal a reference built from the raw records by an
// independent encoder.
TEST(TraceRecords, WrittenFilesMatchAReferenceBuiltFromRawRecords) {
  obs::TraceFileMeta meta;
  meta.num_processes = 1024;
  meta.algo = "cao-singhal";
  std::vector<std::pair<obs::TraceRun, std::vector<TraceRecord>>> ref(3);
  ref[0].second = mixed_records(3 * obs::kDigestChunkRecords + 123, 1);
  ref[1].second = mixed_records(100000, 2);  // spans segments
  // ref[2]: an empty run.
  std::vector<obs::TraceRun> runs(3);
  for (std::size_t k = 0; k < 3; ++k) {
    ref[k].first.rep = static_cast<int>(k);
    ref[k].first.seed = 1000 + k;
    runs[k].rep = ref[k].first.rep;
    runs[k].seed = ref[k].first.seed;
    runs[k].records = obs::to_records(ref[k].second);
  }
  // Run 0 carries wrong digests: the writer digests the bytes it writes
  // and never reuses what a run carries.
  runs[0].digests.run = 1;
  runs[0].digests.chunks.assign(runs[0].records.chunks(), 2);
  const std::string want = reference_trace_file(meta, ref);

  const std::string first = testing::TempDir() + "trace_records_a.trc";
  const std::string second = testing::TempDir() + "trace_records_b.trc";
  std::string err;
  ASSERT_TRUE(obs::write_trace_file(first, meta, runs, &err)) << err;
  EXPECT_TRUE(file_bytes(first) == want) << "first write";
  std::optional<obs::TraceFile> back = obs::read_trace_file(first, &err);
  ASSERT_TRUE(back) << err;
  EXPECT_TRUE(obs::verify_trace_digests(*back).empty());
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(back->runs[k].records == runs[k].records) << "run " << k;
  }
  ASSERT_TRUE(obs::write_trace_file(second, back->meta, back->runs, &err))
      << err;
  EXPECT_TRUE(file_bytes(second) == want) << "rewrite of the read-back";
  if (!HasFailure()) {
    std::remove(first.c_str());
    std::remove(second.c_str());
  }
}

harness::ExperimentConfig small_config(harness::Algorithm a) {
  harness::ExperimentConfig cfg;
  cfg.sys.algorithm = a;
  cfg.sys.num_processes = 8;
  cfg.sys.seed = 7;
  cfg.rate = 0.02;
  cfg.ckpt_interval = sim::seconds(600);
  cfg.horizon = sim::seconds(3600);
  cfg.capture_trace = true;
  return cfg;
}

constexpr harness::Algorithm kAllAlgorithms[] = {
    harness::Algorithm::kCaoSinghal,    harness::Algorithm::kKooToueg,
    harness::Algorithm::kElnozahy,      harness::Algorithm::kChandyLamport,
    harness::Algorithm::kLaiYang,       harness::Algorithm::kSimpleScheme,
    harness::Algorithm::kRevisedScheme, harness::Algorithm::kUncoordinated,
};

// The load-bearing invariant: everything the trace says happened must
// match what the protocols' own counters say happened. Send counts per
// kind, checkpoint lifecycle counts, commit counts and blocking time each
// have two independent accounting paths; any drift is a bug in one of
// them.
TEST(TraceCrossCheck, DerivedMetricsMatchRunStatsForAllAlgorithms) {
  for (harness::Algorithm a : kAllAlgorithms) {
    SCOPED_TRACE(harness::to_string(a));
    harness::RunResult res = harness::run_replicated(small_config(a), 2, 1);
    ASSERT_EQ(res.traces.size(), 2u);
    obs::TraceSummary s = obs::fold_runs(res.traces).summary();

    for (int k = 0; k < rt::kMsgKindCount; ++k) {
      EXPECT_EQ(s.msgs_sent_by_kind[k], res.stats.msgs_sent[k])
          << "msg kind " << k;
    }
    EXPECT_EQ(s.by_kind[static_cast<int>(TraceKind::kMsgDeliver)],
              res.stats.deliveries);
    EXPECT_EQ(
        s.ckpt_taken_by_kind[static_cast<int>(ckpt::CkptKind::kTentative)],
        res.stats.tentative_taken);
    EXPECT_EQ(s.ckpt_taken_by_kind[static_cast<int>(ckpt::CkptKind::kMutable)],
              res.stats.mutable_taken);
    EXPECT_EQ(s.count(TraceKind::kCkptPromoted),
              res.stats.mutable_promoted);
    EXPECT_EQ(s.discarded_mutable, res.stats.mutable_discarded);
    EXPECT_EQ(s.count(TraceKind::kCkptPermanent),
              res.stats.permanent_made);
    EXPECT_EQ(s.count(TraceKind::kRoundCommit), res.committed);
    EXPECT_EQ(s.count(TraceKind::kRoundAbort), res.aborted);
    EXPECT_EQ(s.blocked_total, res.stats.blocked_time_total);
  }
}

// Round latencies reassembled from the trace must agree with the
// tracker-side commit-delay statistic, round for round.
TEST(TraceCrossCheck, RoundCommitLatencyMatchesCommitDelay) {
  harness::RunResult res = harness::run_replicated(
      small_config(harness::Algorithm::kCaoSinghal), 2, 1);
  std::vector<obs::RoundMetrics> rounds = obs::fold_runs(res.traces).rounds();

  std::uint64_t committed = 0;
  double sum_s = 0.0;
  for (const obs::RoundMetrics& r : rounds) {
    if (!r.committed()) continue;
    ++committed;
    sum_s += sim::to_seconds(r.commit_latency());
    EXPECT_GE(r.commit_latency(), 0);
    EXPECT_GE(r.first_tentative_at, r.started_at);
  }
  ASSERT_GT(committed, 0u);
  EXPECT_EQ(committed, res.committed);
  EXPECT_NEAR(sum_s / static_cast<double>(committed),
              res.commit_delay_s.mean(), 1e-9);
}

// The auditor drives the same fold in its own pass: the summary and
// rounds it exposes must equal fold_runs() record for record, and agree
// with the protocols' counters, for every algorithm.
TEST(TraceCrossCheck, AuditFoldEqualsFoldRunsForAllAlgorithms) {
  for (harness::Algorithm a : kAllAlgorithms) {
    SCOPED_TRACE(harness::to_string(a));
    harness::ExperimentConfig cfg = small_config(a);
    harness::RunResult res = harness::run_replicated(cfg, 2, 1);
    obs::AuditReport report =
        obs::audit_runs(res.traces, cfg.sys.num_processes);
    const obs::TraceFold fold = obs::fold_runs(res.traces);
    EXPECT_TRUE(report.fold.summary() == fold.summary());
    EXPECT_TRUE(report.fold.rounds() == fold.rounds());

    const obs::TraceSummary& s = report.fold.summary();
    EXPECT_EQ(s.total, report.totals.records);
    EXPECT_EQ(s.count(TraceKind::kRoundCommit), res.committed);
    EXPECT_EQ(s.count(TraceKind::kRoundAbort), res.aborted);
    EXPECT_EQ(s.count(TraceKind::kCkptPermanent),
              res.stats.permanent_made);
    EXPECT_EQ(s.blocked_total, res.stats.blocked_time_total);
    EXPECT_EQ(report.totals.rounds_committed, res.committed);
    std::uint64_t committed = 0;
    for (const obs::RoundMetrics& r : report.fold.rounds()) {
      committed += r.committed() ? 1 : 0;
    }
    EXPECT_EQ(committed, res.committed);
    if (res.committed > 0) {
      EXPECT_NEAR(obs::mean_latency_s(report.fold.rounds(),
                                      &obs::RoundMetrics::commit_latency),
                  res.commit_delay_s.mean(), 1e-9);
    }
  }
}

// Rounds are matched per run (initiation ids repeat across reps), and a
// truncation marker names the run it cut, which is what mcktrace stats
// prints under each rep.
TEST(TraceFold, MatchesRoundsPerRunAndKeepsTruncationMarks) {
  const std::uint64_t init = (std::uint64_t{2} << 32) | 1;
  const auto rec = [](TraceKind k, sim::SimTime at, std::uint64_t arg0,
                      std::uint64_t arg1) {
    return TraceRecord{at, arg0, arg1, 2, static_cast<std::uint8_t>(k), 0, 0};
  };
  std::vector<obs::TraceRun> runs(2);
  runs[0].records = {rec(TraceKind::kInitStart, 10, init, 0),
                     rec(TraceKind::kRoundCommit, 30, init, 20)};
  runs[1].records = {rec(TraceKind::kInitStart, 50, init, 0),
                     rec(TraceKind::kTruncated, 60, 7, 40)};
  const obs::TraceFold fold = obs::fold_runs(runs);

  ASSERT_EQ(fold.rounds().size(), 2u);
  EXPECT_EQ(fold.rounds()[0].commit_latency(), 20);
  EXPECT_EQ(fold.rounds()[1].started_at, 50);
  EXPECT_FALSE(fold.rounds()[1].committed());
  EXPECT_EQ(fold.summary().count(TraceKind::kRoundCommit), 1u);
  ASSERT_EQ(fold.summary().truncations.size(), 1u);
  const obs::TruncationMark& m = fold.summary().truncations[0];
  EXPECT_EQ(m.run, 1u);
  EXPECT_EQ(m.dropped, 7u);
  EXPECT_EQ(m.since, 40);
  EXPECT_EQ(m.at, 60);
}

// Mobility records only appear on the cellular transport and must match
// the transport's own counters.
TEST(TraceCrossCheck, MobilityCountersMatchTransport) {
  harness::SystemOptions opts;
  opts.num_processes = 4;
  opts.transport = harness::TransportKind::kCellular;
  obs::Tracer tracer;
  tracer.enable();
  opts.tracer = &tracer;
  harness::System sys(opts);
  mobile::CellularTransport* cell = sys.cellular();
  ASSERT_NE(cell, nullptr);

  cell->handoff(0, (cell->mss_of(0) + 1) % cell->num_mss());
  cell->disconnect(1);
  sys.send(2, 1);  // buffered at the MSS while P1 is disconnected
  sys.simulator().run_until(sim::kTimeNever);
  cell->reconnect(1, 0);
  sys.simulator().run_until(sim::kTimeNever);

  obs::TraceFold fold;
  for (const TraceRecord& r : tracer.take_records()) fold.add(r);
  const obs::TraceSummary& s = fold.summary();
  EXPECT_EQ(s.count(TraceKind::kHandoff), cell->handoffs());
  EXPECT_EQ(s.count(TraceKind::kDisconnect), 1u);
  EXPECT_EQ(s.count(TraceKind::kReconnect), 1u);
  EXPECT_EQ(s.count(TraceKind::kMsgBuffered),
            cell->messages_buffered());
  EXPECT_EQ(s.count(TraceKind::kMsgBuffered), 1u);
}

// Determinism: the per-rep trace buffers (and hence the trace file bytes)
// must not depend on the worker count.
TEST(TraceDeterminism, TracesByteIdenticalAcrossJobCounts) {
  harness::ExperimentConfig cfg = small_config(harness::Algorithm::kCaoSinghal);
  harness::RunResult serial = harness::run_replicated(cfg, 4, 1);
  harness::RunResult parallel = harness::run_replicated(cfg, 4, 4);
  ASSERT_EQ(serial.traces.size(), 4u);
  ASSERT_EQ(parallel.traces.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(serial.traces[i].rep, static_cast<int>(i));
    EXPECT_EQ(serial.traces[i].seed, parallel.traces[i].seed);
    ASSERT_EQ(serial.traces[i].records.size(),
              parallel.traces[i].records.size());
    const std::vector<TraceRecord> a = obs::to_vector(serial.traces[i].records);
    const std::vector<TraceRecord> b =
        obs::to_vector(parallel.traces[i].records);
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(TraceRecord)),
              0);
  }
}

// Tracing off must leave no trace machinery engaged: no buffers, no
// records, identical results.
TEST(TraceDeterminism, CaptureOffProducesNoTracesAndSameResults) {
  harness::ExperimentConfig cfg = small_config(harness::Algorithm::kCaoSinghal);
  cfg.capture_trace = false;
  harness::RunResult off = harness::run_replicated(cfg, 2, 1);
  EXPECT_TRUE(off.traces.empty());

  cfg.capture_trace = true;
  harness::RunResult on = harness::run_replicated(cfg, 2, 1);
  EXPECT_EQ(off.committed, on.committed);
  EXPECT_EQ(off.stats.tentative_taken, on.stats.tentative_taken);
  EXPECT_EQ(off.stats.deliveries, on.stats.deliveries);
  EXPECT_NEAR(off.commit_delay_s.mean(), on.commit_delay_s.mean(), 0.0);
}

// Satellite: rows wider than the header must widen the table instead of
// being silently truncated.
TEST(TextTable, RowsWiderThanHeaderRenderFully) {
  stats::TextTable t({"a", "b"});
  t.add_row({"1", "2", "extra-cell"});
  std::string out = t.render();
  EXPECT_NE(out.find("extra-cell"), std::string::npos);
  // Every line has the same number of column separators.
  std::size_t first_bars = 0, pos = 0;
  std::size_t line_end = out.find('\n');
  for (std::size_t i = 0; i < line_end; ++i) first_bars += out[i] == '|';
  EXPECT_EQ(first_bars, 4u);  // leading + 2 header cols + widened col
  std::size_t lines = 0;
  while ((pos = out.find('\n', pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  EXPECT_EQ(lines, 3u);  // header, rule, one row
}

}  // namespace
}  // namespace mck
