// Reference causal matcher for differential tests: the original
// obs::build_graph, which kept one std::deque of undelivered send
// positions per (src, dst, class) channel and found every delivery by a
// linear search of its channel. Slow and memory-hungry, but obviously
// right; tests check that obs::GraphBuilder reports exactly what it does.
#pragma once

#include <vector>

#include "obs/graph.hpp"

namespace mck::obs {

CausalGraph build_graph_deque(const std::vector<TraceRecord>& records,
                              int num_processes);

}  // namespace mck::obs
