// Query lifecycle governance (DESIGN.md "Query governance"): cooperative
// cancellation at every morsel/batch boundary, statement deadlines, memory
// budgets with clean kResourceExhausted aborts, and admission control —
// exercised at DOP 1 and 4, through the MPP coordinator, and over fluid
// remote scans. The cancellation storm sweeps a deterministic trip point
// across every governor check of a query, so each abort site is hit without
// racing a second thread; a real cross-thread CANCEL is drilled separately.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/query_context.h"
#include "common/threadpool.h"
#include "exec/admission.h"
#include "fluid/nickname.h"
#include "fluid/remote_store.h"
#include "mpp/mpp.h"
#include "sql/engine.h"

namespace dashdb {
namespace {

uint64_t CounterValue(const char* name) {
  return MetricRegistry::Global().GetCounter(name)->value();
}

/// Canonical string form of a single-node result.
std::string RowsKey(const QueryResult& r) {
  std::ostringstream os;
  for (const auto& c : r.columns) os << c.name << '|';
  os << '\n';
  for (size_t i = 0; i < r.rows.num_rows(); ++i) {
    for (size_t c = 0; c < r.rows.columns.size(); ++c) {
      os << r.rows.columns[c].GetValue(i).ToString() << '|';
    }
    os << '\n';
  }
  return os.str();
}

std::string MppKey(const MppQueryResult& r) { return RowsKey(r.result); }

EngineConfig ParallelConfig() {
  EngineConfig cfg;
  cfg.query_parallelism = 8;
  return cfg;
}

/// Loads an ID/GRP/V column table with `n` rows.
void LoadRows(Engine* engine, const std::string& name, int64_t n) {
  TableSchema schema("PUBLIC", name,
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"GRP", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kInt64, true, 0, false}});
  auto t = engine->CreateColumnTable(schema);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  RowBatch rows;
  for (int c = 0; c < 3; ++c) rows.columns.emplace_back(TypeId::kInt64);
  for (int64_t i = 0; i < n; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i % 97);
    rows.columns[2].AppendInt(i * 31 % 101);
  }
  ASSERT_TRUE(t.value()->Append(rows).ok());
}

Result<QueryResult> Exec(Engine& e, Session* s, const std::string& sql) {
  return e.Execute(s, sql);
}

void SetDop(Engine& e, Session* s, int dop) {
  auto r = e.Execute(s, "SET DOP = " + std::to_string(dop));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

/// Runs `sql` under an injected governor and returns the checks it made.
uint64_t GovernedChecks(Engine& e, Session* s, const std::string& sql,
                        std::string* key = nullptr) {
  auto qc = std::make_shared<QueryContext>();
  s->InjectNextQueryContext(qc);
  auto r = e.Execute(s, sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok() && key != nullptr) *key = RowsKey(*r);
  return qc->checks();
}

class GovernorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().ResetForTest();
    MetricRegistry::Global().ResetForTest();
  }
  void TearDown() override { FaultInjector::Global().ResetForTest(); }
};

// ---------------------------------------------------------------------------
// Governed ParallelFor

TEST_F(GovernorTest, ParallelForAbandonsTailOnCancel) {
  ThreadPool pool(4);
  QueryContext qc;
  qc.CancelAfterChecks(8);
  std::atomic<size_t> ran{0};
  // Returns normally with the tail abandoned — callers re-probe their own
  // governor to observe the abort.
  pool.ParallelFor(100000, [&](size_t) { ran.fetch_add(1); }, 4, &qc);
  EXPECT_LT(ran.load(), 100000u);
  EXPECT_TRUE(qc.cancelled());
}

TEST_F(GovernorTest, ParallelForInlinePathChecksPerItem) {
  ThreadPool pool(4);
  QueryContext qc;
  qc.CancelAfterChecks(5);
  std::atomic<size_t> ran{0};
  // max_workers=1 runs inline: exactly the items before the tripping check.
  pool.ParallelFor(100, [&](size_t) { ran.fetch_add(1); }, 1, &qc);
  EXPECT_EQ(ran.load(), 4u);
}

// ---------------------------------------------------------------------------
// Cancellation storm: trip at EVERY governor check of a scan, a join, and
// an aggregation, at DOP 1 and DOP 4. Every run must either fail kCancelled
// or (when the trip lands past the query's last check) return the baseline
// result; the engine must stay healthy throughout.

TEST_F(GovernorTest, CancellationStormAtEveryCheck) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "S", 30000);
  const std::string queries[] = {
      "SELECT COUNT(*) FROM S WHERE V > 50",
      "SELECT COUNT(*) FROM S A, S B WHERE A.ID = B.ID",
      "SELECT GRP, COUNT(*), SUM(V) FROM S GROUP BY GRP ORDER BY GRP",
  };
  for (const std::string& sql : queries) {
    for (int dop : {1, 4}) {
      SetDop(engine, session.get(), dop);
      auto baseline = Exec(engine, session.get(), sql);
      ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
      const std::string want = RowsKey(*baseline);
      const uint64_t total = GovernedChecks(engine, session.get(), sql);
      ASSERT_GT(total, 0u);
      uint64_t cancelled_runs = 0;
      for (uint64_t n = 1; n <= total; ++n) {
        auto qc = std::make_shared<QueryContext>();
        qc->CancelAfterChecks(n);
        session->InjectNextQueryContext(qc);
        auto r = engine.Execute(session.get(), sql);
        if (r.ok()) {
          // DOP 4 check counts vary run to run; a late trip can miss.
          EXPECT_EQ(RowsKey(*r), want) << sql << " n=" << n;
        } else {
          EXPECT_TRUE(r.status().IsCancelled())
              << sql << " n=" << n << ": " << r.status().ToString();
          ++cancelled_runs;
        }
      }
      EXPECT_GT(cancelled_runs, 0u) << sql << " dop=" << dop;
      // Engine healthy after the storm: ungoverned rerun is byte-identical.
      auto after = Exec(engine, session.get(), sql);
      ASSERT_TRUE(after.ok()) << after.status().ToString();
      EXPECT_EQ(RowsKey(*after), want);
    }
  }
  EXPECT_GT(CounterValue("exec.cancelled"), 0u);
}

// ---------------------------------------------------------------------------
// 1M-row promptness: a cancel tripping on an early check must stop the
// query after a bounded number of further checks (the in-flight morsels),
// not run it to completion — at DOP 1 and 4, for scan/join/agg shapes.

TEST_F(GovernorTest, MillionRowQueriesCancelWithinOneMorsel) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "BIG", 1000000);
  const std::string queries[] = {
      "SELECT COUNT(*) FROM BIG WHERE V > 50",
      "SELECT COUNT(*) FROM BIG A, BIG B WHERE A.ID = B.ID",
      "SELECT GRP, COUNT(*), SUM(V) FROM BIG GROUP BY GRP",
  };
  for (const std::string& sql : queries) {
    for (int dop : {1, 4}) {
      SetDop(engine, session.get(), dop);
      auto qc = std::make_shared<QueryContext>();
      qc->CancelAfterChecks(3);
      session->InjectNextQueryContext(qc);
      auto r = engine.Execute(session.get(), sql);
      ASSERT_FALSE(r.ok()) << sql << " dop=" << dop;
      EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
      // Stragglers may each consume a few more checks before observing the
      // flag, but the query must not have kept grinding morsels.
      EXPECT_LE(qc->checks(), 3u + 160u) << sql << " dop=" << dop;
    }
  }
}

TEST_F(GovernorTest, CrossThreadCancelDrainsCleanly) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "BIG", 1000000);
  SetDop(engine, session.get(), 4);
  const std::string sql = "SELECT COUNT(*) FROM BIG A, BIG B WHERE A.ID = B.ID";
  for (int round = 0; round < 3; ++round) {
    std::thread killer([&] {
      for (;;) {
        auto qc = session->current_query();
        if (qc != nullptr && qc->checks() > 4) {
          EXPECT_TRUE(session->CancelCurrentQuery());
          return;
        }
        std::this_thread::yield();
      }
    });
    auto r = engine.Execute(session.get(), sql);
    killer.join();
    ASSERT_FALSE(r.ok()) << "round " << round;
    EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  }
  // All worker threads drained: the next statement runs normally.
  auto ok = Exec(engine, session.get(), "SELECT COUNT(*) FROM BIG");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->rows.columns[0].GetValue(0).AsInt(), 1000000);
}

// ---------------------------------------------------------------------------
// Deadlines

TEST_F(GovernorTest, StatementTimeoutTripsAndClears) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "BIG", 1000000);
  SetDop(engine, session.get(), 4);
  const std::string sql = "SELECT GRP, COUNT(*), SUM(V) FROM BIG GROUP BY GRP";
  auto baseline = Exec(engine, session.get(), sql);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(Exec(engine, session.get(),
                   "SET STATEMENT_TIMEOUT = 0.000001").ok());
  auto r = engine.Execute(session.get(), sql);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  EXPECT_GE(CounterValue("exec.statement_timeouts"), 1u);
  // Disarm; the session recovers byte-identically.
  ASSERT_TRUE(Exec(engine, session.get(), "SET STATEMENT_TIMEOUT NONE").ok());
  auto after = Exec(engine, session.get(), sql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(RowsKey(*after), RowsKey(*baseline));
}

// ---------------------------------------------------------------------------
// Memory budgets

TEST_F(GovernorTest, MemBudgetExceededFailsCleanlyAndRecovers) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "BIG", 1000000);
  SetDop(engine, session.get(), 4);
  const std::string sql = "SELECT GRP, COUNT(*), SUM(V) FROM BIG GROUP BY GRP";
  auto baseline = Exec(engine, session.get(), sql);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(Exec(engine, session.get(), "SET MEM_BUDGET = 10000").ok());
  auto r = engine.Execute(session.get(), sql);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("budget"), std::string::npos);
  EXPECT_GE(CounterValue("exec.mem_budget_exceeded"), 1u);
  // The engine stays healthy and the next (ungoverned) run is identical.
  ASSERT_TRUE(Exec(engine, session.get(), "SET MEM_BUDGET NONE").ok());
  auto after = Exec(engine, session.get(), sql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(RowsKey(*after), RowsKey(*baseline));
}

TEST_F(GovernorTest, AllocPressureFaultPointDrills) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "S", 30000);
  const std::string sql = "SELECT GRP, SUM(V) FROM S GROUP BY GRP";
  auto baseline = Exec(engine, session.get(), sql);
  ASSERT_TRUE(baseline.ok());
  FaultSpec pressure;
  pressure.code = StatusCode::kResourceExhausted;
  pressure.message = "simulated allocation pressure";
  pressure.max_fires = 1;
  FaultInjector::Global().Arm("exec.alloc_pressure", pressure);
  auto r = engine.Execute(session.get(), sql);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("allocation pressure"),
            std::string::npos);
  // One fire only: the next run succeeds, byte-identical.
  auto after = Exec(engine, session.get(), sql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(RowsKey(*after), RowsKey(*baseline));
}

TEST_F(GovernorTest, ExplainAnalyzeReportsOperatorPeakBytes) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  LoadRows(&engine, "S", 30000);
  auto r = Exec(engine, session.get(),
                "EXPLAIN ANALYZE SELECT COUNT(*) FROM S A, S B "
                "WHERE A.ID = B.ID");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->message.find(" mem="), std::string::npos) << r->message;
}

// ---------------------------------------------------------------------------
// Admission control

TEST_F(GovernorTest, AdmissionShedsOnTimeoutAndQueueFull) {
  EngineConfig cfg = ParallelConfig();
  cfg.admission.cheap_slots = 0;
  cfg.admission.expensive_slots = 0;
  cfg.admission.queue_timeout_seconds = 0.02;
  Engine engine(cfg);
  auto session = engine.CreateSession();
  LoadRows(&engine, "S", 1000);
  // No slots at all: the wait times out and the query is shed.
  auto r = engine.Execute(session.get(), "SELECT COUNT(*) FROM S");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_GE(CounterValue("exec.admission_shed"), 1u);
  // Full queue: shed immediately instead of waiting.
  AdmissionConfig full = cfg.admission;
  full.max_queued = 0;
  engine.admission().Configure(full);
  auto r2 = engine.Execute(session.get(), "SELECT COUNT(*) FROM S");
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().ToString().find("queue full"), std::string::npos);
  // SET ADMISSION OFF bypasses the controller for this session.
  ASSERT_TRUE(Exec(engine, session.get(), "SET ADMISSION OFF").ok());
  auto r3 = engine.Execute(session.get(), "SELECT COUNT(*) FROM S");
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(r3->rows.columns[0].GetValue(0).AsInt(), 1000);
}

TEST_F(GovernorTest, AdmissionSlotsReleaseToWaiters) {
  AdmissionConfig cfg;
  cfg.cheap_slots = 1;
  cfg.queue_timeout_seconds = 5.0;
  AdmissionController ac(cfg);
  auto held = ac.Admit(QueryClass::kCheap);
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(ac.running(QueryClass::kCheap), 1);
  std::thread holder([tk = std::move(held).value()]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });  // ticket destroyed when the thread exits -> slot released
  auto waited = ac.Admit(QueryClass::kCheap);
  EXPECT_TRUE(waited.ok());
  holder.join();
  EXPECT_GE(CounterValue("exec.admission_queued"), 1u);
}

TEST_F(GovernorTest, AdmissionClassifiesByRootEstimate) {
  AdmissionController ac;
  EXPECT_EQ(ac.Classify(10.0), QueryClass::kCheap);
  EXPECT_EQ(ac.Classify(-1.0), QueryClass::kCheap);  // no estimate
  EXPECT_EQ(ac.Classify(1e6), QueryClass::kExpensive);
}

// ---------------------------------------------------------------------------
// SET knob parsing

TEST_F(GovernorTest, SessionKnobParsing) {
  Engine engine;
  auto session = engine.CreateSession();
  ASSERT_TRUE(Exec(engine, session.get(), "SET STATEMENT_TIMEOUT = 5").ok());
  EXPECT_DOUBLE_EQ(session->statement_timeout_seconds(), 5.0);
  ASSERT_TRUE(Exec(engine, session.get(), "SET STATEMENT_TIMEOUT NONE").ok());
  EXPECT_DOUBLE_EQ(session->statement_timeout_seconds(), 0.0);
  EXPECT_FALSE(Exec(engine, session.get(), "SET STATEMENT_TIMEOUT = -1").ok());
  ASSERT_TRUE(Exec(engine, session.get(), "SET MEM_BUDGET = 1048576").ok());
  EXPECT_EQ(session->mem_budget_bytes(), 1048576);
  ASSERT_TRUE(Exec(engine, session.get(), "SET MEM_BUDGET NONE").ok());
  EXPECT_EQ(session->mem_budget_bytes(), 0);
  EXPECT_FALSE(Exec(engine, session.get(), "SET MEM_BUDGET = -4").ok());
  ASSERT_TRUE(Exec(engine, session.get(), "SET ADMISSION OFF").ok());
  EXPECT_FALSE(session->admission_enabled());
  ASSERT_TRUE(Exec(engine, session.get(), "SET ADMISSION ON").ok());
  EXPECT_TRUE(session->admission_enabled());
  EXPECT_FALSE(Exec(engine, session.get(), "SET ADMISSION = MAYBE").ok());
}

// ---------------------------------------------------------------------------
// MPP: governed cluster execution

std::unique_ptr<MppDatabase> MakeMppDb() {
  auto db = std::make_unique<MppDatabase>(4, 2, 8, size_t{8} << 30);
  TableSchema schema("PUBLIC", "T",
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"GRP", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kInt64, true, 0, false}});
  schema.set_distribution_key(0);
  EXPECT_TRUE(db->CreateTable(schema).ok());
  RowBatch rows;
  for (int c = 0; c < 3; ++c) rows.columns.emplace_back(TypeId::kInt64);
  for (int i = 0; i < 4000; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i % 7);
    rows.columns[2].AppendInt(i * 31 % 101);
  }
  EXPECT_TRUE(db->Load("PUBLIC", "T", rows).ok());
  return db;
}

TEST_F(GovernorTest, MppCancellationStormAcrossShards) {
  auto db = MakeMppDb();
  const std::string queries[] = {
      "SELECT GRP, COUNT(*), SUM(V) FROM T GROUP BY GRP ORDER BY GRP",
      "SELECT ID, V FROM T ORDER BY ID LIMIT 25",
  };
  for (const std::string& sql : queries) {
    auto baseline = db->Execute(sql);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    const std::string want = MppKey(*baseline);
    auto probe = std::make_shared<QueryContext>();
    auto counted = db->Execute(sql, probe);
    ASSERT_TRUE(counted.ok());
    const uint64_t total = probe->checks();
    ASSERT_GT(total, 0u);
    uint64_t cancelled_runs = 0;
    for (uint64_t n = 1; n <= total; ++n) {
      auto qc = std::make_shared<QueryContext>();
      qc->CancelAfterChecks(n);
      auto r = db->Execute(sql, qc);
      if (r.ok()) {
        EXPECT_EQ(MppKey(*r), want) << sql << " n=" << n;
      } else {
        EXPECT_TRUE(r.status().IsCancelled())
            << sql << " n=" << n << ": " << r.status().ToString();
        ++cancelled_runs;
      }
    }
    EXPECT_GT(cancelled_runs, 0u) << sql;
    // Cluster healthy: the next ungoverned run is byte-identical.
    auto after = db->Execute(sql);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(MppKey(*after), want);
  }
}

TEST_F(GovernorTest, MppDeadlineAndBudget) {
  auto db = MakeMppDb();
  const std::string sql = "SELECT GRP, COUNT(*), SUM(V) FROM T GROUP BY GRP";
  auto baseline = db->Execute(sql);
  ASSERT_TRUE(baseline.ok());
  auto timed = std::make_shared<QueryContext>();
  timed->SetTimeout(1e-6);
  auto r = db->Execute(sql, timed);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  auto tight = std::make_shared<QueryContext>();
  tight->SetMemBudget(64);
  auto r2 = db->Execute(sql, tight);
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsResourceExhausted()) << r2.status().ToString();
  auto after = db->Execute(sql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(MppKey(*after), MppKey(*baseline));
}

TEST_F(GovernorTest, MppBudgetBreachedOnlyBySumOfShardResults) {
  auto db = MakeMppDb();
  // A plain scan: the coordinator's charges are the shard results it
  // assembles, each about 1/8 of the total.
  const std::string sql = "SELECT ID, V FROM T";
  auto probe = std::make_shared<QueryContext>();
  auto baseline = db->Execute(sql, probe);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const int64_t total = probe->mem_peak();
  ASSERT_GT(total, 0);
  // Every shard result fits on its own; together they do not. Each is
  // charged as its attempt finishes, so the breach fails the query.
  auto half = std::make_shared<QueryContext>();
  half->SetMemBudget(total / 2);
  auto r = db->Execute(sql, half);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("MPP result assembly"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(half->mem_used(), 0) << "every charge released";
  EXPECT_LE(half->mem_peak(), total / 2);
  // The exact total fits, and the answer is unchanged.
  auto exact = std::make_shared<QueryContext>();
  exact->SetMemBudget(total);
  auto fits = db->Execute(sql, exact);
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(MppKey(*fits), MppKey(*baseline));
}

TEST_F(GovernorTest, MppBroadcastIsAllOrNothingUnderCancel) {
  auto db = MakeMppDb();
  const int shards = db->num_shards();
  // Cancel on every governor check a broadcast could make: the statement
  // either stops before shard 0 or reaches every shard, never some.
  for (int n = 1; n <= 2 * shards + 1; ++n) {
    auto before = db->ShardRowCounts("PUBLIC", "T");
    ASSERT_TRUE(before.ok());
    auto qctx = std::make_shared<QueryContext>();
    qctx->CancelAfterChecks(static_cast<uint64_t>(n));
    auto r = db->Execute("DELETE FROM T WHERE V = " + std::to_string(n),
                         qctx);
    auto after = db->ShardRowCounts("PUBLIC", "T");
    ASSERT_TRUE(after.ok());
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
      EXPECT_EQ(*after, *before) << "cancel at check " << n;
    } else {
      for (int s = 0; s < shards; ++s) {
        EXPECT_LT((*after)[s], (*before)[s])
            << "cancel at check " << n << ", shard " << s;
      }
    }
    auto ddl = std::make_shared<QueryContext>();
    ddl->CancelAfterChecks(static_cast<uint64_t>(n));
    const std::string table = "U" + std::to_string(n);
    auto created = db->Execute("CREATE TABLE " + table + " (A BIGINT)", ddl);
    int have = 0;
    for (int s = 0; s < shards; ++s) {
      have += db->shard_engine(s)->GetTable("PUBLIC", table).ok() ? 1 : 0;
    }
    EXPECT_EQ(have, created.ok() ? shards : 0) << "cancel at check " << n;
  }
  // A wire CANCEL from another thread while the broadcast is between
  // shards (each shard stalls 50ms): the statement still reaches them all.
  FaultSpec stall;
  stall.code = StatusCode::kOk;
  stall.stall_seconds = 0.05;
  FaultInjector::Global().Arm("mpp.shard_stall", stall);
  auto before = db->ShardRowCounts("PUBLIC", "T");
  ASSERT_TRUE(before.ok());
  auto qctx = std::make_shared<QueryContext>();
  std::thread canceller([qctx] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    qctx->Cancel();
  });
  auto r = db->Execute("DELETE FROM T WHERE V = 0", qctx);
  canceller.join();
  auto after = db->ShardRowCounts("PUBLIC", "T");
  ASSERT_TRUE(after.ok());
  int changed = 0;
  for (int s = 0; s < shards; ++s) changed += (*after)[s] < (*before)[s];
  EXPECT_EQ(changed, r.ok() ? shards : 0) << r.status().ToString();
}

TEST_F(GovernorTest, SpeculationActivelyCancelsLosingAttempt) {
  auto db = MakeMppDb();
  const std::string sql = "SELECT COUNT(*), SUM(V), MIN(V), MAX(V) FROM T";
  auto clean = db->Execute(sql);
  ASSERT_TRUE(clean.ok());
  db->failover_policy().straggler_after_seconds = 0.05;
  FaultInjector::Global().Reset(77);
  FaultSpec stall;
  stall.code = StatusCode::kOk;  // stall only
  stall.stall_seconds = 0.4;
  stall.max_fires = 1;
  FaultInjector::Global().Arm("mpp.shard_stall", stall);
  auto r = db->Execute(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(MppKey(*r), MppKey(*clean));
  EXPECT_EQ(r->exec.speculative_launches, 1u);
  EXPECT_EQ(r->exec.speculative_wins, 1u);
  EXPECT_EQ(r->exec.shard_retries, 0u);
  // The losing primary was actively cancelled (and joined), not abandoned.
  EXPECT_GE(CounterValue("exec.cancelled"), 1u);
}

// ---------------------------------------------------------------------------
// Fluid: governed remote scans

TEST_F(GovernorTest, RemoteScanCancelsAndChargesBudget) {
  Engine engine(ParallelConfig());
  auto session = engine.CreateSession();
  TableSchema rschema("PUBLIC", "RWEB",
                      {{"ID", TypeId::kInt64, false, 0, false},
                       {"V", TypeId::kInt64, true, 0, false}});
  auto store = std::make_shared<fluid::SimHadoopStore>(rschema);
  RowBatch rows;
  rows.columns.emplace_back(TypeId::kInt64);
  rows.columns.emplace_back(TypeId::kInt64);
  for (int i = 0; i < 20000; ++i) {
    rows.columns[0].AppendInt(i);
    rows.columns[1].AppendInt(i % 13);
  }
  ASSERT_TRUE(store->Load(rows).ok());
  ASSERT_TRUE(fluid::CreateNickname(&engine, "PUBLIC", "RWEB", store).ok());
  const std::string sql = "SELECT COUNT(*) FROM RWEB";
  auto baseline = Exec(engine, session.get(), sql);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->rows.columns[0].GetValue(0).AsInt(), 20000);
  // Cancel before the transfer starts: the retry loop must not run.
  auto qc = std::make_shared<QueryContext>();
  qc->CancelAfterChecks(1);
  session->InjectNextQueryContext(qc);
  auto r = engine.Execute(session.get(), sql);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  EXPECT_EQ(store->stats().failed_requests, 0u);
  // The materialized transfer charges the query budget.
  ASSERT_TRUE(Exec(engine, session.get(), "SET MEM_BUDGET = 1000").ok());
  auto r2 = engine.Execute(session.get(), sql);
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsResourceExhausted()) << r2.status().ToString();
  ASSERT_TRUE(Exec(engine, session.get(), "SET MEM_BUDGET NONE").ok());
  auto after = Exec(engine, session.get(), sql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(RowsKey(*after), RowsKey(*baseline));
}

}  // namespace
}  // namespace dashdb
