// Test-side conversions between a std::vector<obs::TraceRecord>, which a
// test builds or edits in place, and the obs::TraceRecords the obs library
// reads; and where a record chunk lands in a written trace file.
#pragma once

#include <cstddef>
#include <vector>

#include "obs/trace_records.hpp"

namespace mck::obs {

inline TraceRecords to_records(const std::vector<TraceRecord>& v) {
  TraceRecords out;
  for (const TraceRecord& r : v) out.push_back(r);
  return out;
}

inline std::vector<TraceRecord> to_vector(const TraceRecords& records) {
  std::vector<TraceRecord> out;
  out.reserve(records.size());
  for (const TraceRecord& r : records) out.push_back(r);
  return out;
}

/// File offset of the first encoded byte of chunk `c` of a trace file's
/// first run, which holds `records`, behind a header whose algorithm name
/// is `algo_len` bytes (the layout in obs/trace_io.hpp).
inline long chunk_file_offset(std::size_t algo_len, const TraceRecords& records,
                              std::size_t c) {
  std::size_t off = 8 + 4 + 4 + algo_len + 4 + 4 + 8 + 8;
  for (std::size_t k = 0; k < c; ++k) off += 4 + records.chunk_bytes(k).size();
  return static_cast<long>(off + 4);
}

}  // namespace mck::obs
