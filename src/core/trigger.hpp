// The paper's trigger tuple (Section 3.2): (pid, inum) identifying the
// checkpointing initiator that triggered the latest checkpointing process
// and the csn at that initiator when it took its own local checkpoint.
#pragma once

#include <string>

#include "ckpt/store.hpp"
#include "obs/trace.hpp"
#include "util/types.hpp"

namespace mck::core {

struct Trigger {
  ProcessId pid = kInvalidProcess;
  Csn inum = 0;

  bool valid() const { return pid != kInvalidProcess; }

  bool operator==(const Trigger& o) const {
    return pid == o.pid && inum == o.inum;
  }
  bool operator!=(const Trigger& o) const { return !(*this == o); }

  ckpt::InitiationId initiation() const {
    return valid() ? ckpt::make_initiation_id(pid, inum) : 0;
  }

  std::string to_string() const {
    return valid() ? obs::initiation_label(initiation()) : "(null)";
  }
};

inline constexpr Trigger kNullTrigger{};

}  // namespace mck::core
