// Mid-query fault tolerance for distributed execution (paper II.E made an
// exercised code path): a node killed at any shard index, transient shard
// errors, injected stalls (straggler speculation, timeout re-execution) —
// every MPP query must still return results byte-identical to the
// fault-free run, and the whole schedule must replay from its seed.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "mpp/mpp.h"

namespace dashdb {
namespace {

constexpr const char* kShardExec = "mpp.shard_exec";
constexpr const char* kShardStall = "mpp.shard_stall";

/// Canonical string form of a result (columns + every row, in order).
std::string ResultKey(const MppQueryResult& r) {
  std::ostringstream os;
  for (const auto& c : r.result.columns) os << c.name << '|';
  os << '\n';
  const RowBatch& rows = r.result.rows;
  for (size_t i = 0; i < rows.num_rows(); ++i) {
    for (size_t c = 0; c < rows.columns.size(); ++c) {
      os << rows.columns[c].GetValue(i).ToString() << '|';
    }
    os << '\n';
  }
  return os.str();
}

std::unique_ptr<MppDatabase> MakeLoadedDb() {
  auto db = std::make_unique<MppDatabase>(4, 2, 8, size_t{8} << 30);
  TableSchema schema("PUBLIC", "T",
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"GRP", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kInt64, true, 0, false}});
  schema.set_distribution_key(0);
  EXPECT_TRUE(db->CreateTable(schema).ok());
  RowBatch rows;
  rows.columns.emplace_back(TypeId::kInt64);
  rows.columns.emplace_back(TypeId::kInt64);
  rows.columns.emplace_back(TypeId::kInt64);
  for (int i = 0; i < 400; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i % 7);
    rows.columns[2].AppendInt(i * 31 % 101);
  }
  EXPECT_TRUE(db->Load("PUBLIC", "T", rows).ok());
  return db;
}

const char* kQueries[] = {
    "SELECT COUNT(*), SUM(V), MIN(V), MAX(V) FROM T",
    "SELECT GRP, COUNT(*), SUM(V) FROM T GROUP BY GRP ORDER BY GRP",
    "SELECT ID, V FROM T ORDER BY ID LIMIT 25",
};

class MppFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().ResetForTest();
    MetricRegistry::Global().ResetForTest();
  }
  void TearDown() override { FaultInjector::Global().ResetForTest(); }
};

TEST_F(MppFaultTest, NodeKillAtEveryShardIndexPreservesResults) {
  // Fault-free baselines first.
  std::vector<std::string> baseline;
  {
    auto db = MakeLoadedDb();
    for (const char* q : kQueries) {
      auto r = db->Execute(q);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      baseline.push_back(ResultKey(*r));
    }
  }
  // Kill the owner node exactly when shard k's first attempt starts, for
  // every k and every query shape.
  const int num_shards = MakeLoadedDb()->num_shards();
  for (size_t qi = 0; qi < 3; ++qi) {
    for (int k = 0; k < num_shards; ++k) {
      auto fresh = MakeLoadedDb();
      FaultInjector::Global().Reset(1000 + k);
      FaultSpec kill;
      kill.code = StatusCode::kUnavailable;
      kill.message = "node lost";
      kill.skip_hits = static_cast<uint64_t>(k);
      kill.max_fires = 1;
      FaultInjector::Global().Arm(kShardExec, kill);
      auto r = fresh->Execute(kQueries[qi]);
      ASSERT_TRUE(r.ok()) << "shard " << k << ": " << r.status().ToString();
      EXPECT_EQ(ResultKey(*r), baseline[qi])
          << "query " << qi << " changed after node kill at shard " << k
          << " (seed " << FaultInjector::Global().seed() << ")";
      EXPECT_EQ(r->exec.shard_retries, 1u);
      EXPECT_EQ(r->exec.failovers, 1u) << "owner reassociated mid-query";
      EXPECT_EQ(fresh->topology()->num_alive_nodes(), 3);
    }
  }
}

TEST_F(MppFaultTest, TransientErrorsRetryWithoutFailover) {
  auto db = MakeLoadedDb();
  auto clean = db->Execute(kQueries[0]);
  ASSERT_TRUE(clean.ok());
  FaultSpec flaky;
  flaky.code = StatusCode::kAborted;  // transient, not a node death
  flaky.max_fires = 2;
  FaultInjector::Global().Arm(kShardExec, flaky);
  auto r = db->Execute(kQueries[0]);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ResultKey(*r), ResultKey(*clean));
  EXPECT_EQ(r->exec.shard_retries, 2u);
  EXPECT_EQ(r->exec.failovers, 0u) << "kAborted must not kill nodes";
  EXPECT_EQ(db->topology()->num_alive_nodes(), 4);
}

TEST_F(MppFaultTest, FatalErrorsSurfaceWithShardContext) {
  auto db = MakeLoadedDb();
  FaultSpec fatal;
  fatal.code = StatusCode::kInternal;
  fatal.max_fires = 1;
  FaultInjector::Global().Arm(kShardExec, fatal);
  auto r = db->Execute(kQueries[0]);
  ASSERT_FALSE(r.ok()) << "non-transient faults must not be retried";
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("shard 0"), std::string::npos)
      << r.status().ToString();
}

TEST_F(MppFaultTest, RetryBudgetExhaustionFailsCleanly) {
  auto db = MakeLoadedDb();
  db->failover_policy().max_attempts_per_shard = 3;
  FaultSpec always;
  always.code = StatusCode::kUnavailable;  // fires on every attempt
  FaultInjector::Global().Arm(kShardExec, always);
  auto r = db->Execute(kQueries[0]);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  // Two retries' worth of failovers, never the last node.
  EXPECT_GE(db->topology()->num_alive_nodes(), 1);
}

TEST_F(MppFaultTest, StragglerSpeculationFirstResultWins) {
  auto db = MakeLoadedDb();
  auto clean = db->Execute(kQueries[1]);
  ASSERT_TRUE(clean.ok());
  db->failover_policy().straggler_after_seconds = 0.1;
  FaultSpec stall;
  stall.code = StatusCode::kOk;  // stall-only: the shard is slow, not dead
  stall.stall_seconds = 0.8;
  stall.max_fires = 1;
  FaultInjector::Global().Arm(kShardStall, stall);
  auto r = db->Execute(kQueries[1]);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ResultKey(*r), ResultKey(*clean));
  EXPECT_EQ(r->exec.speculative_launches, 1u);
  EXPECT_EQ(r->exec.speculative_wins, 1u)
      << "clean re-execution beats a 0.5s straggler";
  EXPECT_EQ(r->exec.shard_retries, 0u) << "speculation is not a retry";
}

TEST_F(MppFaultTest, TimeoutBudgetReexecutesSlowAttempt) {
  auto db = MakeLoadedDb();
  auto clean = db->Execute(kQueries[2]);
  ASSERT_TRUE(clean.ok());
  db->failover_policy().shard_timeout_seconds = 0.15;
  FaultSpec stall;
  stall.code = StatusCode::kOk;
  stall.stall_seconds = 0.5;
  stall.max_fires = 1;
  FaultInjector::Global().Arm(kShardStall, stall);
  auto r = db->Execute(kQueries[2]);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(ResultKey(*r), ResultKey(*clean));
  EXPECT_EQ(r->exec.timeouts, 1u);
  EXPECT_EQ(r->exec.shard_retries, 1u) << "late result discarded, re-run";
}

TEST_F(MppFaultTest, BroadcastDdlRetriesGateFailures) {
  auto db = std::make_unique<MppDatabase>(2, 2, 4, size_t{4} << 30);
  FaultSpec flaky;
  flaky.code = StatusCode::kUnavailable;
  flaky.max_fires = 1;
  FaultInjector::Global().Arm(kShardExec, flaky);
  auto r = db->Execute(
      "CREATE TABLE PUBLIC.D (ID BIGINT NOT NULL, V BIGINT)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->exec.shard_retries, 1u);
  FaultInjector::Global().Reset(0);
  // The gate fired BEFORE the shard executed, so no shard saw the DDL
  // twice: inserts and scans behave normally on every shard.
  ASSERT_TRUE(db->Execute("INSERT INTO PUBLIC.D VALUES (1, 10), (2, 20)")
                  .ok());
  auto count = db->Execute("SELECT COUNT(*) FROM PUBLIC.D");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->result.rows.columns[0].GetValue(0).AsInt(), 2);
}

TEST_F(MppFaultTest, ProbabilisticScheduleReplaysFromSeed) {
  auto run = [&](uint64_t seed) {
    auto db = MakeLoadedDb();
    FaultInjector::Global().Reset(seed);
    FaultSpec flaky;
    flaky.code = StatusCode::kAborted;
    flaky.probability = 0.3;
    FaultInjector::Global().Arm(kShardExec, flaky);
    auto r = db->Execute(kQueries[1]);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    auto log = FaultInjector::Global().FireLog();
    std::ostringstream sched;
    for (const auto& e : log) sched << e.point << '#' << e.hit_index << ';';
    return std::make_tuple(ResultKey(*r), r->exec.shard_retries,
                           sched.str());
  };
  auto a = run(777);
  auto b = run(777);
  EXPECT_EQ(a, b) << "same seed => same schedule, retries, and bytes";
  FaultInjector::Global().Reset(0);
  auto clean = MakeLoadedDb()->Execute(kQueries[1]);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(std::get<0>(a), ResultKey(*clean))
      << "faulted run matches the fault-free answer";
}

// --- concurrent shard dispatch ----------------------------------------------

TEST_F(MppFaultTest, ShardAttemptsRunConcurrently) {
  auto db = MakeLoadedDb();
  ASSERT_EQ(db->num_shards(), 8);
  std::vector<std::string> clean;
  for (const char* q : kQueries) {
    auto r = db->Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    clean.push_back(ResultKey(*r));
  }
  // Every shard attempt stalls 0.2s: one at a time that is >= 1.6s per
  // query, side by side (8 cores per node) it is one stall plus overhead.
  FaultSpec stall;
  stall.code = StatusCode::kOk;
  stall.stall_seconds = 0.2;
  ScopedFault armed(kShardStall, stall);
  for (size_t qi = 0; qi < 3; ++qi) {
    Stopwatch sw;
    auto r = db->Execute(kQueries[qi]);
    const double wall = sw.ElapsedSeconds();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_LT(wall, 0.8) << "query " << qi << " shards ran serially";
    EXPECT_EQ(ResultKey(*r), clean[qi]) << "query " << qi;
    EXPECT_EQ(r->exec.shard_retries, 0u);
    for (double s : r->shard_seconds) EXPECT_GE(s, 0.2);
  }
}

TEST_F(MppFaultTest, FatalFaultJoinsSiblingsAndReportsItsOwnShard) {
  auto db = MakeLoadedDb();
  auto clean = db->Execute(kQueries[1]);
  ASSERT_TRUE(clean.ok());
  FaultSpec stall;  // siblings that got to run would sit in this stall
  stall.code = StatusCode::kOk;
  stall.stall_seconds = 0.3;
  FaultSpec fatal;
  fatal.code = StatusCode::kInternal;
  fatal.message = "disk on fire";
  fatal.skip_hits = 5;
  fatal.max_fires = 1;
  {
    ScopedFault stalled(kShardStall, stall);
    ScopedFault armed(kShardExec, fatal);
    MetricDeltaScope delta;
    auto r = db->Execute(kQueries[1]);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal)
        << "a sibling's kCancelled must not mask the real error: "
        << r.status().ToString();
    EXPECT_NE(r.status().message().find("shard 5"), std::string::npos)
        << r.status().ToString();
    // The fatal gate ends the round before anything is dispatched: no
    // sibling ran (so none hit the stall), an internal error is not
    // counted as a user cancellation, and nothing is still running to hit
    // the stall point afterwards.
    EXPECT_EQ(delta.Delta("exec.cancelled"), 0);
    const uint64_t hits = FaultInjector::Global().PointStats(kShardStall).hits;
    EXPECT_EQ(hits, 0u);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(FaultInjector::Global().PointStats(kShardStall).hits, hits);
  }
  auto after = db->Execute(kQueries[1]);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(ResultKey(*after), ResultKey(*clean));
}

TEST_F(MppFaultTest, DeadlineMidRoundReportsTimeoutNotSiblingCancel) {
  auto db = MakeLoadedDb();
  FaultSpec stall;
  stall.code = StatusCode::kOk;
  stall.stall_seconds = 0.1;
  ScopedFault armed(kShardStall, stall);
  // The deadline passes while all 8 attempts stall; the first shard to
  // probe its governor afterwards sees kTimeout, the rest the sticky
  // cancel. The query must still report the timeout.
  auto qctx = std::make_shared<QueryContext>();
  qctx->SetTimeout(0.05);
  auto r = db->Execute(kQueries[0], qctx);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  EXPECT_EQ(db->topology()->num_alive_nodes(), 4) << "no failover on abort";
}

TEST_F(MppFaultTest, TwoNodeKillsInOneRoundFailOverBoth) {
  auto db = MakeLoadedDb();
  std::vector<std::string> clean;
  for (const char* q : kQueries) {
    auto r = db->Execute(q);
    ASSERT_TRUE(r.ok());
    clean.push_back(ResultKey(*r));
  }
  for (size_t qi = 0; qi < 3; ++qi) {
    auto fresh = MakeLoadedDb();
    // Shards 1 and 2 live on nodes 0 and 1; both gates fire in round 1.
    ASSERT_NE(fresh->topology()->OwnerOf(1), fresh->topology()->OwnerOf(2));
    FaultSpec kill;
    kill.code = StatusCode::kUnavailable;
    kill.message = "node lost";
    kill.skip_hits = 1;
    kill.max_fires = 2;
    ScopedFault armed(4242, kShardExec, kill);
    auto r = fresh->Execute(kQueries[qi]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(ResultKey(*r), clean[qi]) << "query " << qi;
    EXPECT_EQ(r->exec.shard_retries, 2u);
    EXPECT_EQ(r->exec.failovers, 2u);
    ASSERT_EQ(r->shard_exec.size(), 8u);
    EXPECT_EQ(r->shard_exec[1].failovers, 1u);
    EXPECT_EQ(r->shard_exec[2].failovers, 1u);
    // Consistent topology: two survivors own all 8 shards, 4 each.
    const ClusterTopology& topo = *fresh->topology();
    EXPECT_EQ(topo.num_alive_nodes(), 2);
    EXPECT_FALSE(topo.IsAlive(0));
    EXPECT_FALSE(topo.IsAlive(1));
    for (int s = 0; s < topo.num_shards(); ++s) {
      EXPECT_TRUE(topo.IsAlive(topo.OwnerOf(s))) << "shard " << s;
    }
    EXPECT_EQ(topo.ShardsOnNode(2).size(), 4u);
    EXPECT_EQ(topo.ShardsOnNode(3).size(), 4u);
  }
}

}  // namespace
}  // namespace dashdb
