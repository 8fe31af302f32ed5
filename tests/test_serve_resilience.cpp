// Serving resilience (DESIGN §13): the crash-recovery journal (write-ahead
// contract, torn-tail tolerance, kill-and-recover bit-identity), the
// admission gate (shedding, backoff growth/decay, deadlines), the
// max-staleness DEGRADE guard, the serve-chaos grammar, and the watchdog's
// forced from-scratch rebuild. The kill-and-recover test SIGKILLs a forked
// child mid-schedule and asserts the recovered snapshot is bit-identical
// (epoch and plane contents) to an uninterrupted oracle run.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/fault_schedule.hpp"
#include "fault/fault_set.hpp"
#include "route/query.hpp"
#include "serve/builder.hpp"
#include "serve/journal.hpp"
#include "serve/resilience.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"

namespace meshroute {
namespace {

std::string temp_path(const char* leaf) {
  std::string p = ::testing::TempDir();
  if (!p.empty() && p.back() != '/') p += '/';
  p += leaf;
  p += '.';
  p += std::to_string(::getpid());
  std::remove(p.c_str());
  return p;
}

/// Block rects as a sorted list — construction paths may discover blocks in
/// different orders.
std::vector<Rect> sorted_rects(const fault::BlockSet& blocks) {
  std::vector<Rect> rects;
  for (const fault::FaultyBlock& b : blocks.blocks()) rects.push_back(b.rect);
  std::sort(rects.begin(), rects.end(), [](const Rect& a, const Rect& b) {
    return a.ymin != b.ymin ? a.ymin < b.ymin : a.xmin < b.xmin;
  });
  return rects;
}

std::vector<route::QuerySpec> corner_specs(const Mesh2D& mesh) {
  const Dist w = mesh.width() - 1;
  const Dist h = mesh.height() - 1;
  return {{{0, 0}, {w, h}}, {{w, 0}, {0, h}}, {{0, h}, {w, 0}},
          {{w / 2, 0}, {w / 2, h}}, {{0, h / 2}, {w, h / 2}}};
}

/// Bit-identity between two published snapshots: same epoch, same block
/// planes, same batch answers field-for-field.
void expect_snapshots_identical(serve::SnapshotStore& a, serve::SnapshotStore& b,
                                const Mesh2D& mesh) {
  serve::SnapshotStore::Reader ra(a);
  serve::SnapshotStore::Reader rb(b);
  const serve::SnapshotStore::Ref sa = ra.acquire();
  const serve::SnapshotStore::Ref sb = rb.acquire();
  EXPECT_EQ(sa->epoch(), sb->epoch());
  EXPECT_EQ(sorted_rects(sa->blocks()), sorted_rects(sb->blocks()));
  EXPECT_TRUE(sa->blocks() == sb->blocks());

  const std::vector<route::QuerySpec> specs = corner_specs(mesh);
  std::vector<route::RouteAnswer> ans_a;
  std::vector<route::RouteAnswer> ans_b;
  route::route_batch(sa->query_view(), specs, {}, ans_a);
  route::route_batch(sb->query_view(), specs, {}, ans_b);
  ASSERT_EQ(ans_a.size(), ans_b.size());
  for (std::size_t i = 0; i < ans_a.size(); ++i) {
    EXPECT_EQ(ans_a[i].status, ans_b[i].status) << "query " << i;
    EXPECT_EQ(ans_a[i].rung, ans_b[i].rung) << "query " << i;
    EXPECT_EQ(ans_a[i].stats, ans_b[i].stats) << "query " << i;
    EXPECT_EQ(ans_a[i].attribution, ans_b[i].attribution) << "query " << i;
  }
}

// ---- Journal: append/replay round-trip and torn-tail tolerance ------------

TEST(InjectionJournal, AppendReplayRoundTrip) {
  const std::string path = temp_path("journal_roundtrip");
  EXPECT_TRUE(serve::InjectionJournal::replay(path).empty());  // absent = fresh

  const std::vector<serve::JournalRecord> records = {
      {1, {3, 4}}, {2, {10, 11}}, {4, {0, 23}}};
  {
    serve::InjectionJournal journal(path);
    for (const serve::JournalRecord& r : records) journal.append(r);
    EXPECT_EQ(journal.appended(), 3u);
  }
  EXPECT_EQ(serve::InjectionJournal::replay(path), records);

  // Reopening appends — recovery re-attaches the same file.
  {
    serve::InjectionJournal journal(path);
    journal.append({5, {7, 7}});
  }
  EXPECT_EQ(serve::InjectionJournal::replay(path).size(), 4u);
  std::remove(path.c_str());
}

TEST(InjectionJournal, TornParsableTailIsKept) {
  const std::string path = temp_path("journal_torn_parsable");
  {
    std::ofstream os(path, std::ios::binary);
    os << "inject=1:3,4\n";
    os << "inject=2:5,6";  // no trailing newline, but complete — durably written
  }
  const std::vector<serve::JournalRecord> records = serve::InjectionJournal::replay(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], (serve::JournalRecord{2, {5, 6}}));
  std::remove(path.c_str());
}

TEST(InjectionJournal, TornUnparsableTailIsSkipped) {
  const std::string path = temp_path("journal_torn_garbage");
  {
    std::ofstream os(path, std::ios::binary);
    os << "inject=1:3,4\n";
    os << "inject=2:5";  // crash mid-write: no comma, no newline
  }
  const std::vector<serve::JournalRecord> records = serve::InjectionJournal::replay(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (serve::JournalRecord{1, {3, 4}}));
  std::remove(path.c_str());
}

TEST(InjectionJournal, RepairMendsTornTailForReappending) {
  // Parsable torn tail: repair completes the line, so a post-recovery append
  // starts a fresh record instead of concatenating onto the old one.
  const std::string path = temp_path("journal_repair");
  {
    std::ofstream os(path, std::ios::binary);
    os << "inject=1:3,4\n";
    os << "inject=2:5,6";  // whole record, lost terminator
  }
  serve::InjectionJournal::repair(path);
  {
    serve::InjectionJournal journal(path);
    journal.append({3, {8, 9}});
  }
  std::vector<serve::JournalRecord> records = serve::InjectionJournal::replay(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1], (serve::JournalRecord{2, {5, 6}}));
  EXPECT_EQ(records[2], (serve::JournalRecord{3, {8, 9}}));
  std::remove(path.c_str());

  // Unparsable fragment: repair truncates it away.
  {
    std::ofstream os(path, std::ios::binary);
    os << "inject=1:3,4\n";
    os << "inject=2:";  // crash mid-write
  }
  serve::InjectionJournal::repair(path);
  {
    serve::InjectionJournal journal(path);
    journal.append({2, {5, 6}});
  }
  records = serve::InjectionJournal::replay(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], (serve::JournalRecord{2, {5, 6}}));
  std::remove(path.c_str());
}

TEST(InjectionJournal, MalformedInteriorLineThrows) {
  const std::string path = temp_path("journal_corrupt");
  {
    std::ofstream os(path, std::ios::binary);
    os << "inject=1:3,4\n";
    os << "inject=bogus\n";  // interior (newline-terminated): corruption
    os << "inject=3:5,6\n";
  }
  EXPECT_THROW((void)serve::InjectionJournal::replay(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---- Kill-and-recover: SIGKILL mid-schedule, bit-identical republish ------

TEST(Recovery, KillAndRecoverBitIdentical) {
  const Mesh2D mesh = Mesh2D::square(24);
  const std::vector<Coord> initial = {{2, 2}, {20, 3}, {7, 18}};
  const std::vector<Coord> schedule = {{5, 5},  {6, 5},   {15, 15},
                                       {16, 15}, {10, 10}, {3, 12}};
  const std::string path = temp_path("kill_recover");

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: journal every injection, then die without warning mid-schedule
    // (after the append+apply of the last site, before any orderly teardown),
    // leaving a torn partial record behind as a crash-mid-write artifact.
    serve::SnapshotBuilder builder(mesh, initial);
    builder.attach_journal(path);
    for (const Coord c : schedule) {
      builder.inject(c);
      builder.publish();
    }
    {
      std::ofstream os(path, std::ios::binary | std::ios::app);
      os << "inject=9";  // torn: the crash landed mid-append
    }
    ::raise(SIGKILL);
    ::_exit(127);  // unreachable
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Restart from the journal.
  serve::SnapshotBuilder recovered(mesh, initial, path,
                                   serve::SnapshotBuilder::RecoverFromJournal{});
  EXPECT_EQ(recovered.stats().recovered_records, schedule.size());
  EXPECT_TRUE(recovered.journaling());
  EXPECT_EQ(recovered.world_epoch(), schedule.size());
  EXPECT_EQ(recovered.epoch_lag(), 0u);

  // The oracle: the same schedule, never interrupted.
  serve::SnapshotBuilder oracle(mesh, initial);
  for (const Coord c : schedule) {
    oracle.inject(c);
    oracle.publish();
  }
  ASSERT_EQ(oracle.store().current_epoch(), recovered.store().current_epoch());
  expect_snapshots_identical(recovered.store(), oracle.store(), mesh);

  // The journal stays attached: post-recovery writes keep the WAL contract.
  recovered.inject({21, 21});
  recovered.publish();
  oracle.inject({21, 21});
  oracle.publish();
  expect_snapshots_identical(recovered.store(), oracle.store(), mesh);
  const std::vector<serve::JournalRecord> after = serve::InjectionJournal::replay(path);
  ASSERT_EQ(after.size(), schedule.size() + 1);
  EXPECT_EQ(after.back(), (serve::JournalRecord{schedule.size() + 1, {21, 21}}));
  std::remove(path.c_str());
}

// ---- Serve-chaos grammar --------------------------------------------------

TEST(ServeChaos, GrammarParsesAndRoundTrips) {
  const chaos::FaultSchedule sched =
      chaos::FaultSchedule::parse("bdelay=2:500;bstall=3;pubdrop=1;shed=4;tear=2");
  const std::vector<chaos::ServeChaosEvent>& events = sched.serve_events();
  ASSERT_EQ(events.size(), 5u);
  using Kind = chaos::ServeChaosEvent::Kind;
  EXPECT_EQ(events[0], (chaos::ServeChaosEvent{1, Kind::DropPublish, 0}));
  EXPECT_EQ(events[1], (chaos::ServeChaosEvent{2, Kind::BuilderDelay, 500}));
  EXPECT_EQ(events[2], (chaos::ServeChaosEvent{2, Kind::Tear, 0}));
  EXPECT_EQ(events[3], (chaos::ServeChaosEvent{3, Kind::BuilderStall, 0}));
  EXPECT_EQ(events[4], (chaos::ServeChaosEvent{4, Kind::Shed, 0}));

  EXPECT_EQ(chaos::FaultSchedule::parse(sched.to_spec()), sched);
}

TEST(ServeChaos, RejectsZeroOrdinalsAndMalformedDelay) {
  EXPECT_THROW((void)chaos::FaultSchedule::parse("shed=0"), std::invalid_argument);
  EXPECT_THROW((void)chaos::FaultSchedule::parse("bdelay=0:5"), std::invalid_argument);
  EXPECT_THROW((void)chaos::FaultSchedule::parse("bdelay=3"), std::invalid_argument);
  chaos::FaultSchedule sched;
  EXPECT_THROW(sched.add_serve_event({0, chaos::ServeChaosEvent::Kind::Shed, 0}),
               std::invalid_argument);
}

// ---- Admission: shedding, backoff growth and decay, deadlines -------------

TEST(Admission, ShedsOverCapacityWithExponentialBackoff) {
  serve::ResilienceConfig cfg;
  cfg.queue_capacity = 2;
  cfg.busy_base_ms = 1;
  cfg.busy_max_exponent = 3;
  serve::Admission gate(cfg);

  std::int64_t hint = -1;
  serve::Admission::Ticket t1 = gate.try_admit(hint);
  serve::Admission::Ticket t2 = gate.try_admit(hint);
  ASSERT_TRUE(t1.admitted());
  ASSERT_TRUE(t2.admitted());
  EXPECT_EQ(gate.depth(), 2);
  EXPECT_EQ(hint, -1);  // untouched on admit

  // Backoff grows with the shed streak: 1, 2, 4, 8, then capped at 8.
  const std::vector<std::int64_t> expected = {1, 2, 4, 8, 8};
  for (const std::int64_t want : expected) {
    const serve::Admission::Ticket shed = gate.try_admit(hint);
    EXPECT_FALSE(shed.admitted());
    EXPECT_EQ(hint, want);
  }
  EXPECT_EQ(gate.shed_total(), expected.size());

  // A successful admit resets the streak to the base hint.
  t1.release();
  EXPECT_EQ(gate.depth(), 1);
  serve::Admission::Ticket t3 = gate.try_admit(hint);
  ASSERT_TRUE(t3.admitted());
  serve::Admission::Ticket shed_again = gate.try_admit(hint);
  EXPECT_FALSE(shed_again.admitted());
  EXPECT_EQ(hint, 1);
}

TEST(Admission, ForceShedIgnoresCapacityAndTicketRaii) {
  serve::Admission gate(serve::ResilienceConfig{});  // unbounded
  std::int64_t hint = 0;
  {
    const serve::Admission::Ticket t = gate.try_admit(hint);
    ASSERT_TRUE(t.admitted());
    EXPECT_EQ(gate.depth(), 1);
  }
  EXPECT_EQ(gate.depth(), 0);  // RAII release

  const serve::Admission::Ticket forced = gate.try_admit(hint, /*force_shed=*/true);
  EXPECT_FALSE(forced.admitted());
  EXPECT_EQ(gate.shed_total(), 1u);
}

TEST(Admission, DeadlineMissesAreCountedNotAborted) {
  serve::ResilienceConfig cfg;
  cfg.deadline_us = 10;
  serve::Admission gate(cfg);
  gate.note_service(5);
  EXPECT_EQ(gate.deadline_misses(), 0u);
  gate.note_service(50);
  gate.note_service(11);
  EXPECT_EQ(gate.deadline_misses(), 2u);
}

// ---- Staleness guard: DEGRADED beyond the bound, InfoStale attribution ----

TEST(StalenessGuard, DegradesBeyondBoundAndRecoversOnPublish) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(11);
  const fault::FaultSet initial = fault::uniform_random_faults(mesh, 40, rng);
  serve::SnapshotBuilder builder(mesh, initial.faults());

  serve::ServeConfig cfg;
  cfg.resilience.max_staleness_epochs = 1;
  serve::QueryServer server(builder, std::move(cfg));
  // The first two publications never land; the third is healthy.
  server.set_serve_chaos(chaos::FaultSchedule::parse("pubdrop=1;pubdrop=2"));

  serve::QueryServer::Session session(server);
  const std::vector<route::QuerySpec> specs = corner_specs(mesh);
  std::vector<route::RouteAnswer> answers;

  serve::QueryServer::Session::Guard g = session.route_batch_guarded(specs, answers);
  EXPECT_TRUE(g.admitted);
  EXPECT_FALSE(g.degraded);
  EXPECT_EQ(g.lag, 0u);

  // Lag 1 == bound: still full fidelity.
  server.inject_and_publish({5, 5});
  g = session.route_batch_guarded(specs, answers);
  EXPECT_FALSE(g.degraded);
  EXPECT_EQ(builder.epoch_lag(), 1u);

  // Lag 2 > bound: DEGRADED, and any rung abandonment under the stale view
  // is attributed InfoStale (never a bare Stuck).
  server.inject_and_publish({6, 5});
  g = session.route_batch_guarded(specs, answers);
  EXPECT_TRUE(g.admitted);
  EXPECT_TRUE(g.degraded);
  EXPECT_EQ(g.lag, 2u);
  EXPECT_GE(server.degraded_total(), 1u);
  ASSERT_EQ(answers.size(), specs.size());
  for (const route::RouteAnswer& a : answers) {
    if (a.stats.escalations > 0) {
      EXPECT_EQ(a.attribution, route::RouteStatus::InfoStale);
    }
  }

  // A successful publish catches the snapshot back up: full fidelity again.
  server.inject_and_publish({7, 5});
  g = session.route_batch_guarded(specs, answers);
  EXPECT_FALSE(g.degraded);
  EXPECT_EQ(g.lag, 0u);
  EXPECT_EQ(builder.epoch_lag(), 0u);

  // Guarded decide path shares the gate but never degrades answers silently:
  // same Guard surface.
  std::vector<cond::Decision> decisions;
  const serve::QueryServer::Session::Guard dg = session.decide_batch_guarded(specs, decisions);
  EXPECT_TRUE(dg.admitted);
  EXPECT_EQ(decisions.size(), specs.size());
}

TEST(StalenessGuard, ForceShedLeavesOutputUntouched) {
  serve::SnapshotBuilder builder(Mesh2D::square(8));
  serve::QueryServer server(builder);
  serve::QueryServer::Session session(server);
  std::vector<route::RouteAnswer> answers;
  const serve::QueryServer::Session::Guard g = session.route_batch_guarded(
      {{{{0, 0}, {7, 7}}}}, answers, /*force_shed=*/true);
  EXPECT_FALSE(g.admitted);
  EXPECT_GE(g.retry_after_ms, 1);
  EXPECT_TRUE(answers.empty());
}

// ---- Watchdog: forced from-scratch rebuild is invisible to readers --------

TEST(Watchdog, ForcedRebuildMatchesIncrementalPath) {
  const Mesh2D mesh = Mesh2D::square(24);
  const std::vector<Coord> initial = {{4, 4}, {5, 4}, {18, 18}};

  serve::SnapshotBuilder wedged(mesh, initial);
  wedged.set_serve_chaos(chaos::FaultSchedule::parse("bstall=2"));
  serve::SnapshotBuilder healthy(mesh, initial);

  for (const Coord c : {Coord{10, 10}, Coord{11, 10}, Coord{4, 5}}) {
    wedged.inject(c);
    wedged.publish();
    healthy.inject(c);
    healthy.publish();
  }
  EXPECT_EQ(wedged.stats().forced_rebuilds, 1u);
  EXPECT_EQ(healthy.stats().forced_rebuilds, 0u);
  expect_snapshots_identical(wedged.store(), healthy.store(), mesh);
}

// ---- Shutdown flag --------------------------------------------------------

TEST(QueryServer, ShutdownFlagIsSticky) {
  serve::SnapshotBuilder builder(Mesh2D::square(8));
  serve::QueryServer server(builder);
  EXPECT_FALSE(server.shutdown_requested());
  server.request_shutdown();
  EXPECT_TRUE(server.shutdown_requested());
}

}  // namespace
}  // namespace meshroute
