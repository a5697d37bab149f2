// Unit tests for the checkpoint substrate: event log, store, consistency
// checker and rollback recovery — the executable oracle for Theorem 1 —
// and the line-sweep kernel it shares with the trace auditor.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "ckpt/checker.hpp"
#include "ckpt/event_log.hpp"
#include "ckpt/recovery.hpp"
#include "ckpt/store.hpp"
#include "ckpt/tracker.hpp"
#include "full_history.hpp"
#include "util/line_steps.hpp"

namespace mck::ckpt {
namespace {

TEST(EventLog, CursorsAdvancePerEvent) {
  EventLog log(3);
  EXPECT_EQ(log.cursor(0), 0u);
  MessageId m = log.record_send(0, 1);
  EXPECT_EQ(log.cursor(0), 1u);
  EXPECT_EQ(log.cursor(1), 0u);
  log.record_recv(m, 1);
  EXPECT_EQ(log.cursor(1), 1u);
}

TEST(EventLog, OrphanDetection) {
  EventLog log(2);
  // P0 sends m after its checkpoint; P1 receives it before its checkpoint.
  MessageId m = log.record_send(0, 1);  // send_event 0 at P0
  log.record_recv(m, 1);                // recv_event 0 at P1
  Line line(2);
  line[0] = 0;  // P0's checkpoint excludes the send
  line[1] = 1;  // P1's checkpoint includes the receive
  auto orphans = log.find_orphans(line);
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0].src, 0);
  EXPECT_EQ(orphans[0].dst, 1);

  // A line that also includes the send is consistent.
  line[0] = 1;
  EXPECT_TRUE(log.find_orphans(line).empty());
  // A line that includes neither is consistent (message in transit).
  line[0] = 0;
  line[1] = 0;
  EXPECT_TRUE(log.find_orphans(line).empty());
}

TEST(EventLog, InTransitCount) {
  EventLog log(2);
  MessageId m1 = log.record_send(0, 1);
  log.record_send(0, 1);  // m2 never received
  log.record_recv(m1, 1);
  Line line(2);
  line[0] = 2;  // both sends recorded
  line[1] = 0;  // no receive recorded
  EXPECT_EQ(log.count_in_transit(line), 2u);
  line[1] = 1;  // m1's receive recorded
  EXPECT_EQ(log.count_in_transit(line), 1u);
}

TEST(EventLog, ZeroAndFullLines) {
  EventLog log(2);
  MessageId m1 = log.record_send(0, 1);
  log.record_recv(m1, 1);
  log.record_send(1, 0);  // still in flight (recv_event == kNoEvent)

  // The zero line covers no events: nothing can be orphaned and neither
  // send is inside it, so nothing is in transit across it either.
  Line zero(2);
  EXPECT_TRUE(log.find_orphans(zero).empty());
  EXPECT_EQ(log.count_in_transit(zero), 0u);

  // The full line covers everything: every receive has its send, and only
  // the never-received message crosses the cut.
  Line full(2);
  full[0] = log.cursor(0);
  full[1] = log.cursor(1);
  EXPECT_TRUE(log.find_orphans(full).empty());
  EXPECT_EQ(log.count_in_transit(full), 1u);
}

TEST(EventLog, IdLookupSurvivesSystemIdAllocation) {
  EventLog log(3);
  // System messages draw MessageIds from the same sequence but create no
  // log record; the id->slot index must keep finding the computation
  // records in between.
  log.next_msg_id();
  log.next_msg_id();
  MessageId a = log.record_send(0, 1);
  log.next_msg_id();
  MessageId b = log.record_send(2, 1);
  EXPECT_LT(a, b);
  log.record_recv(b, 1);
  log.record_recv(a, 1);

  ASSERT_EQ(log.messages().size(), 2u);
  const MsgRecord& ra = log.messages()[0];
  EXPECT_EQ(ra.id, a);
  EXPECT_EQ(ra.src, 0);
  EXPECT_EQ(ra.recv_event, 1u);  // processed second at P1
  const MsgRecord& rb = log.messages()[1];
  EXPECT_EQ(rb.id, b);
  EXPECT_EQ(rb.src, 2);
  EXPECT_EQ(rb.recv_event, 0u);  // processed first at P1
}

TEST(EventLog, RetirementKeepsInTransitMessagesReceivable) {
  EventLog log(2);
  MessageId a = log.record_send(0, 1);
  MessageId b = log.record_send(0, 1);  // in transit across the line
  MessageId c = log.record_send(1, 0);
  log.record_recv(a, 1);
  log.record_recv(c, 0);
  Line line(2);
  line[0] = 3;
  line[1] = 2;
  std::vector<MessageId> gone;
  log.retire_below([&line](ProcessId p) { return line[p]; },
                   [&gone](const MsgRecord& m) { gone.push_back(m.id); });
  EXPECT_EQ(gone, (std::vector<MessageId>{a, c}));
  EXPECT_EQ(log.retired(), 2u);
  ASSERT_EQ(log.messages().size(), 1u);
  log.record_recv(b, 1);
  EXPECT_EQ(log.messages()[0].recv_event, 2u);
  EXPECT_EQ(log.count_in_transit(line), 1u);  // b's receive is past P1's entry
}

TEST(EventLogDeathTest, ScansBelowTheRetirementFrontierAbort) {
  EventLog log(2);
  MessageId m = log.record_send(0, 1);
  log.record_recv(m, 1);
  Line line(2);
  line[0] = 1;
  line[1] = 1;
  log.retire_below([&line](ProcessId p) { return line[p]; },
                   [](const MsgRecord&) {});
  EXPECT_TRUE(log.find_orphans(line).empty());  // at the frontier: exact
  Line below(2);
  below[0] = 1;  // P1's entry is below the frontier
  EXPECT_DEATH(log.find_orphans(below), "below the retirement frontier");
  EXPECT_DEATH(log.count_in_transit(below), "below the retirement frontier");
}

TEST(Store, LifecyclePermanent) {
  CheckpointStore store(2);
  CkptRef ref = store.take(0, CkptKind::kTentative, 1, 42, 7, 100);
  EXPECT_EQ(store.get(ref).kind, CkptKind::kTentative);
  EXPECT_EQ(ref, 2u);  // refs count up from the initial checkpoints
  store.make_permanent(ref, 200);
  EXPECT_EQ(store.get(ref).kind, CkptKind::kPermanent);
  EXPECT_EQ(store.last_permanent_at(), 200);
  EXPECT_EQ(store.permanent_cursor(0), 7u);
  EXPECT_EQ(store.permanent_cursor(1), 0u);
}

TEST(Store, MutablePromotion) {
  CheckpointStore store(2);
  CkptRef ref = store.take(1, CkptKind::kMutable, 1, 0, 3, 50);
  store.promote_to_tentative(ref, 99, 80);
  EXPECT_EQ(store.get(ref).kind, CkptKind::kTentative);
  EXPECT_EQ(store.get(ref).initiation, 99u);
  // The promoted checkpoint's state is the one captured at take time.
  EXPECT_EQ(store.get(ref).event_cursor, 3u);
  EXPECT_EQ(store.get(ref).taken_at, 50);
}

TEST(Store, DiscardedExcludedFromLine) {
  CheckpointStore store(1);
  CkptRef ref = store.take(0, CkptKind::kTentative, 1, 0, 9, 10);
  store.discard(ref);
  EXPECT_EQ(store.permanent_cursor(0), 0u);
  EXPECT_EQ(store.count(CkptKind::kTentative), 0u);
  EXPECT_EQ(store.stable_live(0), 0u);
}

TEST(StoreDeathTest, DiscardedCheckpointLeavesTheStore) {
  CheckpointStore store(1);
  CkptRef ref = store.take(0, CkptKind::kMutable, 1, 0, 9, 10);
  store.discard(ref);
  EXPECT_DEATH(store.get(ref), "not live");
  EXPECT_DEATH(store.discard(ref), "not live");
}

TEST(Store, CensusFollowsTheLifecycle) {
  CheckpointStore store(2);
  store.set_auto_gc(true);
  EXPECT_EQ(store.count(CkptKind::kInitial), 2u);
  CkptRef m = store.take(0, CkptKind::kMutable, 1, 0, 1, 10);
  CkptRef t = store.take(1, CkptKind::kTentative, 1, 5, 2, 10);
  EXPECT_EQ(store.count(CkptKind::kMutable), 1u);
  EXPECT_EQ(store.count(CkptKind::kTentative), 1u);
  store.promote_to_tentative(m, 5, 20);
  EXPECT_EQ(store.count(CkptKind::kMutable), 0u);
  EXPECT_EQ(store.count(CkptKind::kTentative), 2u);
  store.make_permanent(m, 30);
  store.make_permanent(t, 30);
  EXPECT_EQ(store.count(CkptKind::kPermanent), 2u);
  // A newer permanent reclaims the older one: the census drops it.
  CkptRef t2 = store.take(0, CkptKind::kTentative, 2, 6, 4, 40);
  store.make_permanent(t2, 50);
  EXPECT_EQ(store.count(CkptKind::kPermanent), 2u);
  EXPECT_EQ(store.count(CkptKind::kTentative), 0u);
  EXPECT_EQ(store.stable_live(0), 1u);
  EXPECT_EQ(store.permanent_cursor(0), 4u);
  EXPECT_EQ(store.count(CkptKind::kInitial), 2u);
}

TEST(Store, LastStableTakenAt) {
  CheckpointStore store(1);
  EXPECT_EQ(store.last_stable_taken_at(0), 0);
  store.take(0, CkptKind::kMutable, 1, 0, 1, 30);
  EXPECT_EQ(store.last_stable_taken_at(0), 0);  // mutable does not count
  CkptRef t = store.take(0, CkptKind::kTentative, 2, 0, 2, 70);
  EXPECT_EQ(store.last_stable_taken_at(0), 70);
  store.discard(t);
  EXPECT_EQ(store.last_stable_taken_at(0), 0);
  // A permanent counts after a newer tentative is discarded.
  CkptRef p = store.take(0, CkptKind::kTentative, 3, 0, 3, 90);
  store.make_permanent(p, 95);
  CkptRef t2 = store.take(0, CkptKind::kTentative, 4, 0, 4, 120);
  EXPECT_EQ(store.last_stable_taken_at(0), 120);
  store.discard(t2);
  EXPECT_EQ(store.last_stable_taken_at(0), 90);
}

TEST(InitiationId, PacksAndUnpacks) {
  InitiationId id = make_initiation_id(13, 0xBEEF);
  EXPECT_EQ(initiation_pid(id), 13);
  EXPECT_EQ(initiation_inum(id), 0xBEEFu);
}

TEST(Checker, CommitOrderLinesChecked) {
  EventLog log(2);
  CoordinationTracker tracker;

  // Initiation A: both processes checkpoint at cursor 0 (before traffic).
  InitiationStats& a = tracker.open(make_initiation_id(0, 1), 0, 0);
  a.line_updates = {{0, 0}, {1, 0}};
  a.committed_at = 10;

  // Traffic: P0 -> P1 delivered.
  MessageId m = log.record_send(0, 1);
  log.record_recv(m, 1);

  // Initiation B: only P1 checkpoints, *including* the receive — P0's
  // line entry stays at 0, the send is outside: orphan.
  InitiationStats& b = tracker.open(make_initiation_id(1, 1), 1, 40);
  b.line_updates = {{1, 1}};
  b.committed_at = 50;

  ConsistencyChecker checker(log, tracker);
  CheckResult res = checker.check_all();
  EXPECT_FALSE(res.consistent);
  ASSERT_EQ(res.orphans.size(), 1u);
  EXPECT_EQ(res.lines_checked, 2u);

  // Fixing B to also include P0's send restores consistency.
  b.line_updates.push_back({0, 1});
  CheckResult res2 = ConsistencyChecker(log, tracker).check_all();
  EXPECT_TRUE(res2.consistent);
}

TEST(Checker, OrphanOnConsecutiveLinesReportedPerLine) {
  EventLog log(2);
  CoordinationTracker tracker;
  MessageId m = log.record_send(0, 1);
  log.record_recv(m, 1);

  // A takes P1 past the receive; B moves nothing; C finally covers the
  // send. The orphan stands on A's and B's lines, so it is reported twice.
  InitiationStats& a = tracker.open(make_initiation_id(1, 1), 1, 2);
  a.line_updates = {{1, 1}};
  a.committed_at = 10;
  InitiationStats& b = tracker.open(make_initiation_id(0, 1), 0, 12);
  b.committed_at = 20;
  InitiationStats& c = tracker.open(make_initiation_id(0, 2), 0, 22);
  c.line_updates = {{0, 1}};
  c.committed_at = 30;

  CheckResult res = ConsistencyChecker(log, tracker).check_all();
  EXPECT_FALSE(res.consistent);
  EXPECT_EQ(res.lines_checked, 3u);
  ASSERT_EQ(res.orphans.size(), 2u);
  EXPECT_EQ(res.orphans[0].msg, m);
  EXPECT_EQ(res.orphans[1].msg, m);
  EXPECT_EQ(res.in_transit_total, 0u);
}

TEST(Checker, SweepMatchesPerLineScans) {
  std::mt19937_64 rng(20260416);
  auto uniform = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::size_t inconsistent_cases = 0;
  std::uint64_t retired = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const int n = uniform(2, 8);
    // `log` is settled and retires at random points; `full` sees the same
    // events and never retires, and is what the reference scans.
    EventLog log(n);
    EventLog full(n);
    CoordinationTracker tracker;
    ConsistencyChecker checker(log, tracker);

    // One random action per step, in time order: a send, a receive of a
    // pending message (in any order), an initiation start, a commit or a
    // settle. Time advances by 0 or 1 per step, so commits tie. Whatever
    // is pending at the end is never received; whatever is open never
    // commits.
    std::vector<std::pair<MessageId, ProcessId>> pending;
    std::vector<InitiationStats*> open;
    sim::SimTime now = 0;
    int inits = 0;
    const int steps = uniform(0, 80);
    for (int s = 0; s < steps; ++s) {
      now += uniform(0, 1);
      const int action = uniform(0, 9);
      if (action < 5) {
        if (!pending.empty() && uniform(0, 2) == 0) {
          std::size_t j = static_cast<std::size_t>(
              uniform(0, static_cast<int>(pending.size()) - 1));
          log.record_recv(pending[j].first, pending[j].second);
          full.record_recv(pending[j].first, pending[j].second);
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(j));
        } else {
          ProcessId src = uniform(0, n - 1);
          ProcessId dst = (src + uniform(1, n - 1)) % n;
          MessageId id = log.record_send(src, dst);
          ASSERT_EQ(full.record_send(src, dst), id);
          pending.emplace_back(id, dst);
        }
      } else if (action < 7) {
        ++inits;
        open.push_back(&tracker.open(
            make_initiation_id(inits % n, static_cast<Csn>(inits)),
            inits % n, now));
      } else if (action < 9) {
        if (open.empty()) continue;
        // Random line: cursors anywhere in a process's history (so later
        // lines may point backwards), processes left out, empty lines.
        std::size_t j = static_cast<std::size_t>(
            uniform(0, static_cast<int>(open.size()) - 1));
        InitiationStats& st = *open[j];
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(j));
        const int updates = uniform(0, 2 * n);
        for (int u = 0; u < updates; ++u) {
          ProcessId pid = uniform(0, n - 1);
          st.line_updates.emplace_back(
              pid, static_cast<std::uint64_t>(
                       uniform(0, static_cast<int>(log.cursor(pid)))));
        }
        tracker.mark_committed(st, now);
      } else {
        checker.settle(now);
      }
    }

    SCOPED_TRACE(testing::Message() << "iteration " << iter);
    CheckResult want = check_per_line(full, tracker);
    EXPECT_EQ(check_result_mismatch(checker.check_all(), want), "");
    EXPECT_EQ(live_log_mismatch(full, log), "");
    retired += log.retired();
    if (!want.consistent) ++inconsistent_cases;
  }
  // The generator must exercise both verdicts, and retirement.
  EXPECT_GT(inconsistent_cases, 40u);
  EXPECT_LT(inconsistent_cases, 360u);
  EXPECT_GT(retired, 300u);
}

// The kernel against a linear scan of the lines: cursors anywhere (so
// later lines may point backwards), processes no line raises, and a rise
// at 2^64-1, the closing sentinel's cursor. Queries come in random order,
// so the hinted search moves both backwards and forwards.
TEST(LineSteps, MatchesLinearScanOnRandomLines) {
  constexpr std::uint64_t kMax = util::LineSteps::kNoEvent;
  std::mt19937_64 rng(20261017);
  auto uniform = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::size_t queries = 0, top_rises = 0;
  for (int iter = 0; iter < 500; ++iter) {
    const int n = uniform(1, 6);
    const std::size_t num_lines = static_cast<std::size_t>(uniform(0, 30));
    util::LineSteps steps(n);
    // lines[k][p]: p's cursor on line k, the running maximum of updates.
    std::vector<std::vector<std::uint64_t>> lines;
    std::vector<std::uint64_t> line(static_cast<std::size_t>(n), 0);
    for (std::size_t k = 0; k < num_lines; ++k) {
      std::vector<util::LineSteps::Update> updates;
      const int count = uniform(0, 2 * n);
      for (int u = 0; u < count; ++u) {
        const std::int32_t p = uniform(0, n - 1);
        const std::uint64_t cursor =
            uniform(0, 40) == 0 ? kMax : static_cast<std::uint64_t>(
                                             uniform(0, 40));
        updates.emplace_back(p, cursor);
        if (cursor > line[static_cast<std::size_t>(p)]) {
          top_rises += cursor == kMax;
          line[static_cast<std::size_t>(p)] = cursor;
        }
      }
      steps.add_line(updates, k);
      lines.push_back(line);
      for (std::int32_t p = 0; p < n; ++p) {
        ASSERT_EQ(steps.cursor(p), line[static_cast<std::size_t>(p)]);
      }
    }
    steps.close(num_lines);

    std::vector<std::pair<std::int32_t, std::uint64_t>> events;
    for (std::int32_t p = 0; p < n; ++p) {
      for (std::uint64_t e = 0; e <= 42; ++e) events.emplace_back(p, e);
      events.emplace_back(p, kMax - 1);  // the largest real event
    }
    std::shuffle(events.begin(), events.end(), rng);
    for (const auto& [p, e] : events) {
      std::size_t want = num_lines;
      for (std::size_t k = 0; k < num_lines; ++k) {
        if (lines[k][static_cast<std::size_t>(p)] > e) {
          want = k;
          break;
        }
      }
      ASSERT_EQ(steps.first_line_covering(p, e), want)
          << "iteration " << iter << ", P" << p << ", event " << e;
      ++queries;
    }
  }
  EXPECT_GT(queries, 50000u);
  EXPECT_GT(top_rises, 100u);
}

TEST(Tracker, CommittedInCommitOrder) {
  CoordinationTracker tracker;
  InitiationStats& a = tracker.open(make_initiation_id(0, 1), 0, 0);
  InitiationStats& b = tracker.open(make_initiation_id(1, 1), 1, 1);
  InitiationStats& c = tracker.open(make_initiation_id(2, 1), 2, 2);
  InitiationStats& d = tracker.open(make_initiation_id(3, 1), 3, 3);
  a.committed_at = 50;
  c.committed_at = 20;  // commits before a although it started later
  d.committed_at = 50;  // tie with a: start order decides
  tracker.mark_aborted(b, 30);

  std::vector<const InitiationStats*> order =
      tracker.committed_in_commit_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], &c);
  EXPECT_EQ(order[1], &a);
  EXPECT_EQ(order[2], &d);
}

TEST(Recovery, CoordinatedUsesLatestCommittedLine) {
  EventLog log(2);
  CheckpointStore store(2);
  store.set_auto_gc(true);
  CoordinationTracker tracker;
  RecoveryManager rm(log, store);

  MessageId m = log.record_send(0, 1);
  log.record_recv(m, 1);

  InitiationStats& a = tracker.open(make_initiation_id(0, 1), 0, 8);
  CkptRef c0 = store.take(0, CkptKind::kTentative, 1, a.id, 1, 8);
  CkptRef c1 = store.take(1, CkptKind::kTentative, 1, a.id, 1, 8);

  log.record_send(0, 1);  // lost work after the line

  // Before the commit the store holds the initial line, which is what the
  // replay of the committed initiations gives at t = 5.
  RecoveryOutcome now5 = rm.recover_coordinated(5);
  EXPECT_EQ(now5.line[0], 0u);  // nothing committed yet
  EXPECT_EQ(now5.lost_events, 3u);

  a.line_updates = {{0, 1}, {1, 1}};
  a.committed_at = 10;
  store.make_permanent(c0, 10);
  store.make_permanent(c1, 10);

  // The replay answers at any time, before the commit too.
  RecoveryOutcome at5 = recover_coordinated_at(log, tracker, 5);
  EXPECT_EQ(at5.line[0], 0u);  // nothing committed yet
  EXPECT_EQ(at5.lost_events, 3u);

  RecoveryOutcome at15 = rm.recover_coordinated(15);
  EXPECT_EQ(at15.line[0], 1u);
  EXPECT_EQ(at15.line[1], 1u);
  EXPECT_EQ(at15.lost_events, 1u);  // only the post-line send
  RecoveryOutcome replay15 = recover_coordinated_at(log, tracker, 15);
  EXPECT_EQ(replay15.line.cursors, at15.line.cursors);
  EXPECT_EQ(replay15.lost_events, at15.lost_events);
}

TEST(RecoveryDeathTest, CoordinatedRecoversOnlyAtTheStoreState) {
  EventLog log(1);
  CheckpointStore store(1);
  RecoveryManager rm(log, store);
  EXPECT_DEATH(rm.recover_coordinated(0), "keeps no committed line");
  store.set_auto_gc(true);
  store.make_permanent(store.take(0, CkptKind::kTentative, 1, 1, 0, 5), 10);
  EXPECT_DEATH(rm.recover_coordinated(9), "before the latest permanent");
  EXPECT_EQ(rm.recover_coordinated(10).line[0], 0u);
}

TEST(Recovery, UncoordinatedRollbackPropagation) {
  EventLog log(2);
  CheckpointStore store(2);

  // P1 checkpoints after receiving m; P0 never checkpoints after sending.
  MessageId m = log.record_send(0, 1);   // P0 event 0
  log.record_recv(m, 1);                 // P1 event 0
  store.take(1, CkptKind::kTentative, 1, 0, 1, 7);  // includes receive

  RecoveryManager rm(log, store);
  RecoveryOutcome out = rm.recover_uncoordinated(100);
  // P1 must roll past its checkpoint to the initial state.
  EXPECT_EQ(out.line[1], 0u);
  EXPECT_TRUE(out.domino_to_start);
  EXPECT_GE(out.rollback_steps, 1u);
}

TEST(RecoveryDeathTest, UncoordinatedRefusesARetiredLog) {
  EventLog log(2);
  CheckpointStore store(2);
  MessageId m = log.record_send(0, 1);
  log.record_recv(m, 1);
  Line line(2);
  line[0] = 1;
  line[1] = 1;
  log.retire_below([&line](ProcessId p) { return line[p]; },
                   [](const MsgRecord&) {});
  RecoveryManager rm(log, store);
  EXPECT_DEATH(rm.recover_uncoordinated(100), "retired records");
}

TEST(RecoveryDeathTest, UncoordinatedRefusesAReclaimingStore) {
  EventLog log(2);
  CheckpointStore store(2);
  store.set_auto_gc(true);
  EXPECT_DEATH(RecoveryManager(log, store).recover_uncoordinated(100),
               "reclaims checkpoints");
}

TEST(Recovery, UncoordinatedKeepsConsistentCheckpoints) {
  EventLog log(2);
  CheckpointStore store(2);

  MessageId m = log.record_send(0, 1);
  store.take(0, CkptKind::kTentative, 1, 0, 1, 6);  // send included
  log.record_recv(m, 1);
  store.take(1, CkptKind::kTentative, 1, 0, 1, 8);  // receive included

  RecoveryOutcome out =
      RecoveryManager(log, store).recover_uncoordinated(100);
  EXPECT_EQ(out.line[0], 1u);
  EXPECT_EQ(out.line[1], 1u);
  EXPECT_EQ(out.lost_events, 0u);
  EXPECT_FALSE(out.domino_to_start);
}

}  // namespace
}  // namespace mck::ckpt
