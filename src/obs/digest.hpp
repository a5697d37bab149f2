// Chunked trace digests: the localization layer under every byte-identity
// guarantee (DESIGN.md "Divergence forensics").
//
// Every determinism invariant in this repo — job-count independence,
// golden figure stability, Theorem-1 replay — is ultimately enforced as
// "two trace files are byte-identical". A bare cmp/memcmp says only
// *that* they differ; the digest layer says *where*, in O(chunks) 64-bit
// comparisons, before a single record is decoded: each run carries one
// digest per kDigestChunkRecords-record chunk plus a whole-run digest
// folded over the chunk digests.
//
// A chunk digest hashes the chunk's encoded bytes, the same bytes the
// records are held in (TraceRecords::chunk_bytes, obs/trace_records.hpp)
// and the MCKTRC03 file stores, so no pass decodes a record to digest
// it.
//
// The digests are also the integrity check: the MCKTRC03 footer that
// stores them is mandatory (obs/trace_io.hpp), and mckaudit refuses to
// audit a file whose records do not match them.
//
// The digest is a fixed, non-cryptographic 64-bit hash (SplitMix64-style
// avalanche over 8-byte lanes). It is part of the MCKTRC03 on-disk format
// and must never change without a format-version bump: two builds of any
// future version must digest the same records to the same values.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/trace_records.hpp"

namespace mck::obs {

/// 64-bit digest of `n` raw bytes. Deterministic across platforms for the
/// little-endian images this repo writes; `seed` domain-separates
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

/// The digest of chunk `chunk`, given its encoded bytes.
std::uint64_t chunk_digest(std::span<const unsigned char> bytes,
                           std::uint64_t chunk);

/// Digests a run: per-chunk digests plus the folded run digest, in one
/// pass over the encoded chunks.
RunDigests compute_run_digests(const TraceRecords& records);

/// Folds chunk digests + the record count into the whole-run digest.
std::uint64_t fold_run_digest(const std::vector<std::uint64_t>& chunks,
                              std::uint64_t records);

}  // namespace mck::obs
