// Reference causal matcher for differential tests: the original
// obs::build_graph, which kept one std::deque of undelivered send
// positions per (src, dst, class) channel and found every delivery by a
// linear search of its channel. Slow and memory-hungry, but obviously
// right; tests check that obs::GraphBuilder reports exactly what it does.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/graph.hpp"

namespace mck::obs {

/// What the reference reports: a CausalGraph's contents, with every hop
/// materialised.
struct DequeGraph {
  std::vector<MsgHop> hops;  // in delivery order
  std::vector<std::vector<std::uint32_t>> delivers_by_pid;
  std::vector<CausalIssue> issues;
  std::uint64_t sends = 0;
  std::uint64_t delivers = 0;
  std::uint64_t in_transit = 0;
};

DequeGraph build_graph_deque(const std::vector<TraceRecord>& records,
                             int num_processes);

}  // namespace mck::obs
