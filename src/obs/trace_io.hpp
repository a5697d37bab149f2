// Binary trace-file format for the flight recorder.
//
// Layout (little-endian; records encoded as obs/trace_records.hpp holds
// them):
//   file header:  magic "MCKTRC03" (8 B)
//                 u32 num_processes
//                 u32 algo name length, followed by that many bytes
//   per run:      magic "RUN." (4 B)   — one section per replication,
//                 u32 rep index          in rep-index order
//                 u64 seed
//                 u64 record count
//                 per chunk of kDigestChunkRecords records (the last one
//                 may be short): u32 byte count, followed by the chunk's
//                 encoded bytes (TraceRecords::chunk_bytes)
//   footer:       magic "DIG." (4 B)
//                 u32 run count (must equal the RUN. section count)
//                 per run: u32 rep, u64 run digest, u64 chunk count,
//                          chunk count * u64 chunk digests, each over the
//                          chunk's encoded bytes (obs/digest.hpp)
//                 u64 footer digest over every footer byte after "DIG."
//
// The writer emits runs in the order given (the harness merges per-rep
// buffers in rep-index order), so the same (config, seed, reps) always
// produces a byte-identical file regardless of --jobs. The encoding is
// canonical and the digest footer is a pure function of the encoded
// bytes, so both preserve that guarantee.
//
// The file stores the bytes a TraceRun holds in memory, and the digests
// hash those bytes: the writer copies each chunk out, the reader appends
// each chunk back through TraceRecords::append_chunk, and nothing in this
// layer decodes a record. The reader rejects a chunk whose byte count is
// more than kMaxRecordBytes a record, runs past the end of the file, or
// is not the canonical encoding of exactly its records; the error names
// the rep and the chunk.
//
// The footer is mandatory, so every file read back carries the digests
// of every run. Any other magic, including the 32-byte-record MCKTRC02
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
/// write_trace_file ignores them and digests the bytes it writes.
struct TraceRun {
  int rep = 0;
  std::uint64_t seed = 0;
  TraceRecords records;
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

/// The file magic, "MCKTRC03".
inline constexpr char kTraceFileMagic[8] = {'M', 'C', 'K', 'T',
                                            'R', 'C', '0', '3'};

/// Writes `runs` to `path`; returns false (and fills *error if non-null)
/// on I/O failure. The digest footer is computed from the chunks as they
/// are written.
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
