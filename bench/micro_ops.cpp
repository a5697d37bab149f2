// Microbenchmarks (google-benchmark) backing the paper's claim that "the
// overhead of taking mutable checkpoints is negligible": the protocol's
// hot data-structure operations — weight splitting/summing, csn
// piggybacking, dependency-vector bookkeeping, event-queue throughput —
// all run in nanoseconds-to-microseconds, orders of magnitude below the
// 2.5 ms memory copy the paper budgets for a mutable checkpoint, let
// alone the 2 s stable-storage transfer.
#include <benchmark/benchmark.h>

#include <functional>

#include "baselines/payloads.hpp"
#include "ckpt/checker.hpp"
#include "ckpt/event_log.hpp"
#include "ckpt/store.hpp"
#include "ckpt/tracker.hpp"
#include "core/codec.hpp"
#include "core/payloads.hpp"
#include "sim/simulator.hpp"
#include "util/interval_set.hpp"
#include "util/pool.hpp"
#include "util/sparse_csn.hpp"
#include "util/weight.hpp"

namespace {

using namespace mck;

void BM_WeightSplitHalf(benchmark::State& state) {
  for (auto _ : state) {
    util::Weight w = util::Weight::one();
    for (int i = 0; i < 16; ++i) {
      util::Weight half = w.split_half();
      benchmark::DoNotOptimize(half);
    }
  }
}
BENCHMARK(BM_WeightSplitHalf);

void BM_WeightTreeSumToOne(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::vector<util::Weight> parts;
    parts.push_back(util::Weight::one());
    for (int i = 1; i < n; ++i) {
      parts.push_back(parts[static_cast<std::size_t>(i / 2)].split_half());
    }
    util::Weight total;
    for (util::Weight& p : parts) total.add(p);
    benchmark::DoNotOptimize(total.is_one());
  }
}
BENCHMARK(BM_WeightTreeSumToOne)->Arg(16)->Arg(64)->Arg(256);

void BM_IntervalSetMergeAndScan(benchmark::State& state) {
  util::IntervalSet a(64), b(64);
  for (std::size_t i = 0; i < 64; i += 3) a.set(i);
  for (std::size_t i = 0; i < 64; i += 5) b.set(i);
  for (auto _ : state) {
    util::IntervalSet r = a;
    r.merge(b);
    benchmark::DoNotOptimize(r.count());
  }
}
BENCHMARK(BM_IntervalSetMergeAndScan);

// The receive-side csn check of every computation message: a get and a
// raise on the same pid. Arg(64, 64) is a LAN map holding every pid
// (dense); Arg(100000, 200) a scale-run map holding 200 (sparse).
void BM_CsnMapGetRaise(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto entries = static_cast<std::size_t>(state.range(1));
  const std::size_t stride = n / entries;
  util::SparseCsnMap m(n);
  for (std::size_t i = 0; i < entries; ++i) m.raise(i * stride, 1);
  std::uint64_t lcg = 1;
  for (auto _ : state) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::size_t p = (lcg >> 33) % entries * stride;
    const Csn c = m.get(p);
    benchmark::DoNotOptimize(c);
    m.raise(p, c + 1);
    benchmark::ClobberMemory();
  }
  state.SetLabel(m.dense() ? "dense" : "sparse");
}
BENCHMARK(BM_CsnMapGetRaise)->Args({64, 64})->Args({100000, 200});

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    long long sink = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(sim::microseconds((i * 7919) % 100000),
                      [&sink, i] { sink += i; });
    }
    sim.run_until();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

void BM_EventQueueSteadyStateRing(benchmark::State& state) {
  // Steady-state event loop: a fixed set of self-rescheduling events, the
  // pattern every long simulation settles into. This is the number the
  // slot-pool/inline-event redesign targets (see bench/perf_report.cpp
  // for the tracked before/after comparison).
  const int pending = static_cast<int>(state.range(0));
  sim::Simulator sim;
  std::uint64_t fired = 0;
  struct Ring {
    sim::Simulator* sim;
    std::uint64_t* fired;
    std::uint64_t seed;
    void operator()() {
      ++*fired;
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      sim->schedule_after(static_cast<sim::SimTime>((seed >> 33) % 1000 + 1),
                          Ring{sim, fired, seed});
    }
  };
  for (int i = 0; i < pending; ++i) {
    sim.schedule_after(i + 1, Ring{&sim, &fired, static_cast<std::uint64_t>(i)});
  }
  for (auto _ : state) {
    sim.step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
// 16k and 64k pending: the queue depth of a cellular request wave (simbench
// cell-coord peaks near 41k pending events).
BENCHMARK(BM_EventQueueSteadyStateRing)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(16384)
    ->Arg(65536);

void BM_EventQueueScheduleCancel(benchmark::State& state) {
  // Retry-timer churn: arm a timeout, then cancel it before it fires —
  // the pattern that used to cost a shared_ptr<bool> per arm and now
  // recycles a generation-counted slot.
  sim::Simulator sim;
  sim.schedule_at(sim::kTimeNever - 1, [] {});  // keep the queue non-empty
  for (auto _ : state) {
    sim::EventHandle h = sim.schedule_after(1000, [] {});
    h.cancel();
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueScheduleCancel);

void BM_InlineEventVsBoxedCallable(benchmark::State& state) {
  // Construct + invoke + destroy a Message-sized closure: InlineEvent
  // (slot storage, no heap) vs std::function (heap-boxed capture).
  struct Capture {
    unsigned char pad[80] = {};
    std::uint64_t n = 0;
    void operator()() { benchmark::DoNotOptimize(n += pad[0]); }
  };
  const bool boxed = state.range(0) != 0;
  if (boxed) {
    for (auto _ : state) {
      std::function<void()> f{Capture{}};
      f();
    }
  } else {
    for (auto _ : state) {
      sim::InlineEvent f{Capture{}};
      f();
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(boxed ? "std::function" : "InlineEvent");
}
BENCHMARK(BM_InlineEventVsBoxedCallable)->Arg(0)->Arg(1);

void BM_PayloadPooledVsFresh(benchmark::State& state) {
  // One payload per message, acquired and dropped: pooled freelist reuse
  // vs a fresh make_shared per message (the pre-change behaviour).
  const bool fresh = state.range(0) != 0;
  if (fresh) {
    for (auto _ : state) {
      auto p = std::make_shared<core::CompPayload>();
      p->csn = 7;
      benchmark::DoNotOptimize(p);
    }
  } else {
    for (auto _ : state) {
      auto p = util::make_pooled<core::CompPayload>();
      p->csn = 7;
      benchmark::DoNotOptimize(p);
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(fresh ? "make_shared" : "make_pooled");
}
BENCHMARK(BM_PayloadPooledVsFresh)->Arg(0)->Arg(1);

void BM_EventLogSendRecv(benchmark::State& state) {
  for (auto _ : state) {
    ckpt::EventLog log(16);
    for (int i = 0; i < 1000; ++i) {
      MessageId id = log.record_send(i % 16, (i + 1) % 16);
      log.record_recv(id, (i + 1) % 16);
    }
    benchmark::DoNotOptimize(log.cursor(0));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLogSendRecv);

void BM_MutableCheckpointRecord(benchmark::State& state) {
  // The bookkeeping part of taking a mutable checkpoint (the state copy
  // itself is modelled as the paper's 2.5 ms memory transfer).
  for (auto _ : state) {
    ckpt::CheckpointStore store(16);
    for (int i = 0; i < 256; ++i) {
      ckpt::CkptRef ref = store.take(i % 16, ckpt::CkptKind::kMutable,
                                     static_cast<Csn>(i), 7, i, i * 100);
      benchmark::DoNotOptimize(ref);
    }
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_MutableCheckpointRecord);

void BM_CheckAll(benchmark::State& state) {
  // The end-of-run Theorem 1 check over a fixed 100k-record log with K
  // committed lines, evenly spaced through the history. One sweep of the
  // log serves every line, so the time should be flat in K.
  constexpr int kProcs = 16;
  constexpr int kRecords = 100000;
  const int lines = static_cast<int>(state.range(0));
  ckpt::EventLog log(kProcs);
  ckpt::CoordinationTracker tracker;
  for (int i = 0; i < kRecords; ++i) {
    MessageId id = log.record_send(i % kProcs, (i + 5) % kProcs);
    log.record_recv(id, (i + 5) % kProcs);
    if ((i + 1) % (kRecords / lines) == 0) {
      int k = (i + 1) / (kRecords / lines);
      ckpt::InitiationStats& s = tracker.open(
          ckpt::make_initiation_id(k % kProcs, static_cast<Csn>(k)),
          k % kProcs, i);
      for (ProcessId p = 0; p < kProcs; ++p) {
        s.line_updates.emplace_back(p, log.cursor(p));
      }
      s.committed_at = i;
    }
  }
  ckpt::ConsistencyChecker checker(log, tracker);
  for (auto _ : state) {
    ckpt::CheckResult res = checker.check_all();
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
}
BENCHMARK(BM_CheckAll)->Arg(1)->Arg(16)->Arg(128);

// --- wire codec hot path ------------------------------------------------
// The codec runs per message in --wire-sizes mode (sizing) and twice per
// message in --wire-fidelity mode (encode + decode), so regressions here
// show up directly in simulation wall-clock.

core::RequestPayload make_request(int n) {
  core::RequestPayload p;
  core::SparseMr mr;
  for (int i = 0; i < n; ++i) {
    mr.put(static_cast<std::size_t>(i),
           core::MrEntry{static_cast<Csn>(i * 3 + 1),
                         static_cast<std::uint8_t>((i % 2) ? 1 : 0)});
  }
  p.mr = std::make_shared<const core::SparseMr>(std::move(mr));
  p.sender_csn = 41;
  p.trigger = core::Trigger{2, 7};
  p.req_csn = 40;
  p.weight = util::Weight::one();
  for (int d = 0; d < 8; ++d) {
    util::Weight half = p.weight.split_half();
    benchmark::DoNotOptimize(half);
  }
  return p;
}

void BM_CodecEncodeRequest(benchmark::State& state) {
  const core::RequestPayload p =
      make_request(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<std::uint8_t> bytes = core::encode(p);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecEncodeRequest)->Arg(16)->Arg(64)->Arg(256);

void BM_CodecDecodeRequest(benchmark::State& state) {
  const std::vector<std::uint8_t> bytes =
      core::encode(make_request(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    std::shared_ptr<rt::Payload> p = core::decode(bytes);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecDecodeRequest)->Arg(16)->Arg(64)->Arg(256);

void BM_CodecRoundtripBaselines(benchmark::State& state) {
  // One payload of every baseline family, round-tripped back to back —
  // the wire-fidelity per-hop cost for the six comparison algorithms.
  std::vector<std::shared_ptr<rt::Payload>> payloads;
  {
    auto kt = std::make_shared<baselines::KtRequest>();
    kt->initiation = ckpt::make_initiation_id(3, 9);
    kt->req_csn = 12;
    payloads.push_back(kt);
    auto ej = std::make_shared<baselines::EjRequest>();
    ej->csn = 5;
    ej->initiation = ckpt::make_initiation_id(1, 5);
    payloads.push_back(ej);
    auto cl = std::make_shared<baselines::ClMarker>();
    cl->initiation = ckpt::make_initiation_id(0, 77);
    payloads.push_back(cl);
    auto ly = std::make_shared<baselines::LyAnnounce>();
    ly->round = 4;
    ly->initiation = ckpt::make_initiation_id(2, 4);
    payloads.push_back(ly);
    auto cs = std::make_shared<baselines::CsRequest>();
    cs->initiation = ckpt::make_initiation_id(6, 2);
    cs->req_csn = 8;
    payloads.push_back(cs);
  }
  for (auto _ : state) {
    for (const auto& p : payloads) {
      std::shared_ptr<rt::Payload> back = core::decode(core::encode(*p));
      benchmark::DoNotOptimize(back);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(payloads.size()));
}
BENCHMARK(BM_CodecRoundtripBaselines);

void BM_PayloadTagDispatch(benchmark::State& state) {
  // The delivery-path downcast: tag compare + static_cast (replacing the
  // seed's per-message dynamic_cast chain).
  std::vector<rt::Message> msgs;
  for (int i = 0; i < 64; ++i) {
    rt::Message m;
    switch (i % 3) {
      case 0: {
        auto p = std::make_shared<core::CompPayload>();
        p->csn = static_cast<Csn>(i);
        m.payload = p;
        break;
      }
      case 1: {
        auto p = std::make_shared<baselines::KtComp>();
        p->csn = static_cast<Csn>(i);
        m.payload = p;
        break;
      }
      default: {
        auto p = std::make_shared<baselines::CsComp>();
        p->csn = static_cast<Csn>(i);
        m.payload = p;
        break;
      }
    }
    msgs.push_back(std::move(m));
  }
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const rt::Message& m : msgs) {
      if (const auto* p = m.payload_as<core::CompPayload>()) sum += p->csn;
      if (const auto* p = m.payload_as<baselines::KtComp>()) sum += p->csn;
      if (const auto* p = m.payload_as<baselines::CsComp>()) sum += p->csn;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(msgs.size()));
}
BENCHMARK(BM_PayloadTagDispatch);

}  // namespace

BENCHMARK_MAIN();
