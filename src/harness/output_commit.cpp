#include "harness/output_commit.hpp"

#include "util/assert.hpp"

namespace mck::harness {

namespace {
constexpr sim::SimTime kPollInterval = sim::milliseconds(100);
}

OutputCommitter::OutputCommitter(System& sys) : sys_(sys) {
  MCK_ASSERT(sys.options().algorithm == Algorithm::kCaoSinghal);
}

void OutputCommitter::request(ProcessId p, ReleaseFn fn) {
  Pending pend;
  pend.p = p;
  pend.produced_at = sys_.simulator().now();
  pend.produced_cursor = sys_.log().cursor(p);
  pend.fn = std::move(fn);
  bool need_poll = pending_.empty();
  pending_.push_back(std::move(pend));
  ++pending_count_;
  ensure_initiation(p);
  if (need_poll) {
    sys_.simulator().schedule_after(kPollInterval, [this]() { on_commit(); });
  }
}

void OutputCommitter::ensure_initiation(ProcessId p) {
  // "if a process needs output commit, it initiates a checkpointing
  // process" — deferred while another coordination is in flight, matching
  // the serialized-initiation assumption.
  if (sys_.any_coordination_active()) return;
  sys_.initiate(p);
  for (Pending& pend : pending_) {
    if (pend.p == p) pend.initiation_requested = true;
  }
}

void OutputCommitter::on_commit() {
  for (std::size_t i = 0; i < pending_.size();) {
    Pending& pend = pending_[i];
    if (sys_.store().permanent_cursor(pend.p) >= pend.produced_cursor) {
      sim::SimTime now = sys_.simulator().now();
      delays_s_.add(sim::to_seconds(now - pend.produced_at));
      ++released_count_;
      --pending_count_;
      ReleaseFn fn = std::move(pend.fn);
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      if (fn) fn(now);
    } else {
      if (!pend.initiation_requested) ensure_initiation(pend.p);
      ++i;
    }
  }
  if (!pending_.empty()) {
    sys_.simulator().schedule_after(kPollInterval, [this]() { on_commit(); });
  }
}

}  // namespace mck::harness
