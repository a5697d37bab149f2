// Chunked trace digests: the localization layer under every byte-identity
// guarantee (DESIGN.md "Divergence forensics").
//
// Every determinism invariant in this repo — job-count independence,
// golden figure stability, Theorem-1 replay — is ultimately enforced as
// "two trace files are byte-identical". A bare cmp/memcmp says only
// *that* they differ; the digest layer says *where*, in O(chunks) 64-bit
// comparisons, before a single record is decoded: each run carries one
// digest per kDigestChunkRecords records (the Tracer's bump-pointer chunk
// granularity, so the chunking costs the writer nothing extra) plus a
// whole-run digest folded over the chunk digests.
//
// The digests are also the integrity check: the MCKTRC02 footer that
// stores them is mandatory (obs/trace_io.hpp), and mckaudit refuses to
// audit a file whose records do not match them.
//
// The digest is a fixed, non-cryptographic 64-bit hash (SplitMix64-style
// avalanche over 8-byte lanes). It is part of the MCKTRC02 on-disk format
// and must never change without a format-version bump: two builds of any
// future version must digest the same records to the same values.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.hpp"

namespace mck::obs {

/// Records per digest chunk. Matches obs::Tracer's bump-pointer chunk
/// size so a chunk boundary in the file is a chunk boundary in memory.
inline constexpr std::size_t kDigestChunkRecords = 4096;

/// 64-bit digest of `n` raw bytes. Deterministic across platforms for the
/// little-endian record images this repo writes; `seed` domain-separates
/// independent uses.
std::uint64_t digest_bytes(const void* data, std::size_t n,
                           std::uint64_t seed = 0);

/// The digests of one run: one 64-bit word per kDigestChunkRecords
/// records (the last chunk may be short) and a whole-run digest folded
/// over the chunk digests + record count. Empty (no chunks, run == 0)
/// means "not computed yet"; every run read from a file carries them.
struct RunDigests {
  std::uint64_t run = 0;
  std::vector<std::uint64_t> chunks;

  bool present() const { return run != 0 || !chunks.empty(); }
};

/// Number of chunks `records` records occupy (0 records -> 0 chunks).
inline std::uint64_t digest_chunk_count(std::uint64_t records) {
  return (records + kDigestChunkRecords - 1) / kDigestChunkRecords;
}

/// Digests `n` records: per-chunk digests plus the folded run digest.
/// One linear pass, no per-record allocation (one reserve up front).
RunDigests compute_run_digests(const TraceRecord* records, std::size_t n);

/// Recomputes the digest of chunk `chunk` of `n` records (bounds-checked
/// by the caller). Used to verify a single suspect chunk without
/// rehashing the whole run.
std::uint64_t compute_chunk_digest(const TraceRecord* records, std::size_t n,
                                   std::uint64_t chunk);

/// Folds chunk digests + the record count into the whole-run digest.
std::uint64_t fold_run_digest(const std::vector<std::uint64_t>& chunks,
                              std::uint64_t records);

}  // namespace mck::obs
