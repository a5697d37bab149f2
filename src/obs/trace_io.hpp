// Binary trace-file format for the flight recorder.
//
// Layout (little-endian, raw 32-byte TraceRecords):
//   file header:  magic "MCKTRC02" (8 B)
//                 u32 num_processes
//                 u32 algo name length, followed by that many bytes
//   per run:      magic "RUN." (4 B)   — one section per replication,
//                 u32 rep index          in rep-index order
//                 u64 seed
//                 u64 record count
//                 count * sizeof(TraceRecord) raw records
//   footer:       magic "DIG." (4 B)
//                 u32 run count (must equal the RUN. section count)
//                 per run: u32 rep, u64 run digest, u64 chunk count,
//                          chunk count * u64 chunk digests
//                          (one digest per kDigestChunkRecords records,
//                          obs/digest.hpp)
//                 u64 footer digest over every footer byte after "DIG."
//
// The writer emits runs in the order given (the harness merges per-rep
// buffers in rep-index order), so the same (config, seed, reps) always
// produces a byte-identical file regardless of --jobs. The digest footer
// is a pure function of the records, so it preserves that guarantee.
//
// The footer is mandatory, so every file read back carries the digests
// of every run. Any other magic, including the digest-less version-1
// layout's, is rejected. A malformed footer — missing, truncated,
// run-count mismatch, implausible chunk count, or a footer digest that
// does not match the footer bytes — rejects the file: a corrupt
// localization index is worse than none.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "obs/digest.hpp"
#include "obs/trace.hpp"

namespace mck::obs {

/// Records of one replication, tagged with its rep index and seed.
/// `digests` ride along when the harness (or the reader) computed them;
/// write_trace_file trusts a matching set and computes a missing one.
struct TraceRun {
  int rep = 0;
  std::uint64_t seed = 0;
  std::vector<TraceRecord> records;
  RunDigests digests;
};

struct TraceFileMeta {
  int num_processes = 0;
  std::string algo;
};

struct TraceFile {
  TraceFileMeta meta;
  std::vector<TraceRun> runs;

  std::uint64_t total_records() const {
    std::uint64_t n = 0;
    for (const TraceRun& r : runs) n += r.records.size();
    return n;
  }
};

/// The file magic, "MCKTRC02".
inline constexpr char kTraceFileMagic[8] = {'M', 'C', 'K', 'T',
                                            'R', 'C', '0', '2'};

/// Writes `runs` to `path`; returns false (and fills *error if non-null)
/// on I/O failure. The digest footer reuses each run's precomputed
/// digests when their chunk count matches the record count and computes
/// them in one pass otherwise.
bool write_trace_file(const std::string& path, const TraceFileMeta& meta,
                      const std::vector<TraceRun>& runs,
                      std::string* error = nullptr);

/// Reads a trace file back; std::nullopt (and *error) on a malformed or
/// unreadable file.
std::optional<TraceFile> read_trace_file(const std::string& path,
                                         std::string* error = nullptr);

/// One stored digest that does not match the records it covers.
struct DigestMismatch {
  int rep = 0;
  std::int64_t chunk = -1;  // -1: the whole-run digest disagrees
  std::uint64_t stored = 0;
  std::uint64_t computed = 0;
};

/// Recomputes every run's digests against its records. An empty result
/// means every stored digest checks out; a run that carries no digests
/// reports a whole-run mismatch.
std::vector<DigestMismatch> verify_trace_digests(const TraceFile& file);

}  // namespace mck::obs
