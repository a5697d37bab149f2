#include "obs/digest.hpp"

#include <cstring>

namespace mck::obs {

namespace {

// SplitMix64 finalizer — the repo's standard bit mixer (see
// harness::splitmix64). Full avalanche: a single flipped input bit flips
// each output bit with probability ~1/2, so adjacent-record swaps and
// one-bit payload corruptions always move the chunk digest.
inline std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::uint64_t digest_bytes(const void* data, std::size_t n,
                           std::uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  // Length in the initial state: a chunk of k records never digests equal
  // to its own prefix.
  std::uint64_t h = mix(seed ^ (0x9e3779b97f4a7c15ull + n));
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = mix(h ^ w) * 0x2545f4914f6cdd1dull;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = mix(h ^ w) * 0x2545f4914f6cdd1dull;
  }
  return mix(h);
}

RunDigests compute_run_digests(const TraceRecords& records) {
  RunDigests out;
  out.chunks.reserve(records.chunks());
  for (std::size_t c = 0; c < records.chunks(); ++c) {
    out.chunks.push_back(chunk_digest(records.chunk_bytes(c), c));
  }
  out.run = fold_run_digest(out.chunks, records.size());
  return out;
}

std::uint64_t chunk_digest(std::span<const unsigned char> bytes,
                           std::uint64_t chunk) {
  // Seed with the chunk ordinal: identical record runs in different
  // chunks digest differently, so a chunk-sized shift cannot alias.
  return digest_bytes(bytes.data(), bytes.size(), chunk + 1);
}

std::uint64_t fold_run_digest(const std::vector<std::uint64_t>& chunks,
                              std::uint64_t records) {
  return digest_bytes(chunks.data(), chunks.size() * sizeof(std::uint64_t),
                      0x6d636b64696765ull ^ records);  // "mckdige" ^ count
}

}  // namespace mck::obs
