// Test-side conversions between a std::vector<obs::TraceRecord>, which a
// test builds or edits in place, and the obs::TraceRecords the obs library
// reads.
#pragma once

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

}  // namespace mck::obs
