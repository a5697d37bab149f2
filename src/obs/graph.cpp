#include "obs/graph.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <unordered_map>

namespace mck::obs {

namespace {

struct SendInfo {
  std::int32_t src = -1;
  std::uint16_t dst = 0;  // kBroadcastDst for broadcasts
  std::uint8_t kind = 0;
  sim::SimTime at = 0;
  std::uint64_t stamp = 0;
  std::uint32_t pos = 0;
};

/// Channel key: ordered (src, dst) pair plus the message class. The LAN
/// sequencer orders all kinds per pair; the cellular transport runs
/// separate computation/system sequencers — so the invariant safe to
/// audit on both is FIFO per (src, dst, class).
std::uint64_t channel_key(std::int32_t src, std::int32_t dst, bool comp) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 33) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 1) |
         (comp ? 1u : 0u);
}

std::string fmt_issue(const char* f, unsigned long long a,
                      unsigned long long b, unsigned long long c) {
  char buf[192];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

}  // namespace

CausalGraph build_graph(const std::vector<TraceRecord>& records,
                        int num_processes) {
  CausalGraph g;
  g.delivers_by_pid.resize(static_cast<std::size_t>(num_processes));

  std::unordered_map<std::uint64_t, SendInfo> sends;
  std::unordered_map<std::uint64_t, sim::SimTime> buffered_at;
  std::unordered_map<std::uint64_t, sim::SimTime> retry_extra;
  std::unordered_map<std::uint64_t, char> forwarded;
  // Per channel: the positions of sends not yet delivered, in send order.
  std::unordered_map<std::uint64_t, std::deque<std::uint32_t>> channels;

  auto issue = [&](sim::SimTime at, std::uint64_t id, std::string detail) {
    g.issues.push_back(CausalIssue{at, id, std::move(detail)});
  };

  std::uint32_t pos = 0;
  for (const TraceRecord& r : records) {
    switch (static_cast<TraceKind>(r.kind)) {
      case TraceKind::kMsgSend: {
        SendInfo si;
        si.src = r.pid;
        si.dst = r.aux;
        si.kind = r.sub;
        si.at = r.at;
        si.stamp = msg_stamp_of(r.arg1);
        si.pos = pos;
        if (!sends.emplace(r.arg0, si).second) {
          issue(r.at, r.arg0, "duplicate send record for one message id");
        } else {
          ++g.sends;
          const bool comp = r.sub == kRawMsgComputation;
          if (r.aux == kBroadcastDst) {
            for (std::int32_t p = 0; p < num_processes; ++p) {
              if (p == r.pid) continue;
              channels[channel_key(r.pid, p, comp)].push_back(pos);
            }
          } else {
            channels[channel_key(r.pid, static_cast<std::int32_t>(r.aux),
                                 comp)]
                .push_back(pos);
          }
        }
        ++pos;
        break;
      }
      case TraceKind::kMsgRetry:
        retry_extra[r.arg0] += retry_extra_of(r.arg1);
        break;
      case TraceKind::kMsgBuffered:
        buffered_at[r.arg0] = r.at;
        break;
      case TraceKind::kMsgForwarded:
        forwarded[r.arg0] = 1;
        break;
      case TraceKind::kMsgDeliver: {
        ++g.delivers;
        auto it = sends.find(r.arg0);
        if (it == sends.end()) {
          issue(r.at, r.arg0, "delivery with no matching send record");
          break;
        }
        const SendInfo& si = it->second;
        if (si.at > r.at) {
          issue(r.at, r.arg0, "message delivered before it was sent");
        }
        if (static_cast<std::int32_t>(r.aux) != si.src) {
          issue(r.at, r.arg0,
                fmt_issue("delivery names sender P%llu, send was by P%llu",
                          static_cast<unsigned long long>(r.aux),
                          static_cast<unsigned long long>(
                              static_cast<std::uint32_t>(si.src)),
                          0));
        }
        if (si.dst != kBroadcastDst &&
            static_cast<std::int32_t>(si.dst) != r.pid) {
          issue(r.at, r.arg0, "unicast message delivered to a third party");
        }

        const bool comp = r.sub == kRawMsgComputation;
        auto ch = channels.find(channel_key(si.src, r.pid, comp));
        bool on_channel = false;
        if (ch != channels.end()) {
          auto& pending = ch->second;
          auto f = std::find(pending.begin(), pending.end(), si.pos);
          if (f != pending.end()) {
            on_channel = true;
            if (f != pending.begin()) {
              issue(r.at, r.arg0,
                    fmt_issue("FIFO violation: message overtook %llu earlier "
                              "send(s) on channel P%llu -> P%llu",
                              static_cast<unsigned long long>(
                                  f - pending.begin()),
                              static_cast<unsigned long long>(
                                  static_cast<std::uint32_t>(si.src)),
                              static_cast<unsigned long long>(
                                  static_cast<std::uint32_t>(r.pid))));
            }
            pending.erase(f);
          }
        }
        if (!on_channel) {
          issue(r.at, r.arg0, "message delivered twice to one process");
        }

        MsgHop h;
        h.id = r.arg0;
        h.src = si.src;
        h.dst = r.pid;
        h.kind = r.sub;
        h.computation = comp;
        h.sent_at = si.at;
        h.delivered_at = r.at;
        h.send_stamp = si.stamp;
        h.recv_stamp = msg_stamp_of(r.arg1);
        auto b = buffered_at.find(r.arg0);
        if (b != buffered_at.end()) h.buffered_at = b->second;
        auto re = retry_extra.find(r.arg0);
        if (re != retry_extra.end()) h.retry_extra = re->second;
        h.forwarded = forwarded.count(r.arg0) != 0;
        h.send_pos = si.pos;
        if (comp && (h.send_stamp == 0 || h.recv_stamp == 0)) {
          issue(r.at, r.arg0,
                "computation message is missing an event-log stamp");
        }
        if (r.pid >= 0 && r.pid < num_processes) {
          g.delivers_by_pid[static_cast<std::size_t>(r.pid)].push_back(
              static_cast<std::uint32_t>(g.hops.size()));
        }
        g.hops.push_back(h);
        break;
      }
      default:
        break;
    }
  }

  for (const auto& [key, pending] : channels) {
    (void)key;
    g.in_transit += pending.size();
  }
  return g;
}

}  // namespace mck::obs
