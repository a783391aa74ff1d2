#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <regex>
#include <thread>
#include <unordered_set>

#include "common/datetime.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/dashdb.h"
#include "mpp/mpp.h"
#include "server/backend.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/parser.h"
#include "synopsis/synopsis.h"
#include "tracer.h"
#include "workloads/customer_workload.h"
#include "workloads/tpcds_mini.h"

namespace perfbench {

using dashdb::DashDbLocal;
using dashdb::Engine;
using dashdb::MppDatabase;
using dashdb::Rng;
using dashdb::Status;

namespace {

// ---------------------------------------------------------------- sizes --

/// store_sales rows for the three mini-TPC-DS workloads. 1M rather than 2M
/// so a 15 s run holds ~15+ passes of the stream even when the host is
/// slow, and the 3 setups + reference load of a run stay a few seconds.
constexpr size_t kFactRows = 1000000;
/// Setups per run; setup_s is their median.
constexpr int kSetups = 3;
/// MPP topology: 2 nodes x 4 shards; 4 cores per node lets the topology
/// keep all 4 shards per node (it clamps shards to cores).
constexpr int kMppNodes = 2, kMppShardsPerNode = 4, kMppCoresPerNode = 4;
/// etl_mixed: statements generated (~100x the generator's 3000-statement
/// Test 1 default) and statements replayed before timing.
constexpr size_t kEtlStatements = 300000, kEtlWarmup = 2000;
/// bi_concurrent: interactive connections (+1 report connection) and the
/// per-template hot-set size.
constexpr int kInteractive = 3, kHotSet = 64;

const int32_t kStartDay = dashdb::DaysFromCivil(2012, 1, 1);
constexpr int32_t kNumDays = 5 * 365;  // TpcdsScale::years = 5

dashdb::bench::TpcdsScale TpcdsScaleFor(const Options& o) {
  dashdb::bench::TpcdsScale s;
  s.store_sales_rows = o.tiny ? 20000 : kFactRows;
  if (o.tiny) {
    s.items = 200;
    s.customers = 2000;
  }
  s.seed = o.seed;
  return s;
}

dashdb::bench::CustomerScale EtlScaleFor(const Options& o) {
  dashdb::bench::CustomerScale s;  // 3 schemas x 6 tables
  s.rows_per_table = o.tiny ? 2000 : 30000;
  s.num_statements = o.tiny ? 30000 : kEtlStatements;
  s.seed = o.seed;
  return s;
}

std::string N(int64_t v) { return std::to_string(v); }
std::string F2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Fails the run without printing a result. _Exit skips static
/// destructors, which other client or server threads may still be using.
[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::fflush(nullptr);
  std::_Exit(2);
}
#define PB_CHECK(what, expr)                 \
  do {                                       \
    const Status _s = (expr);                \
    if (!_s.ok()) Die((what), _s);           \
  } while (0)

// ------------------------------------------------------------ instances --

/// A booted instance fronted by the wire server, plus its connections.
struct Node {
  std::unique_ptr<DashDbLocal> db;       ///< single-node workloads
  std::unique_ptr<DashDbLocal> staging;  ///< mpp: single-node copy
  std::unique_ptr<MppDatabase> mpp;
  std::unique_ptr<dashdb::SqlBackend> backend;
  std::unique_ptr<dashdb::Server> server;
  std::vector<std::unique_ptr<dashdb::WireClient>> clients;
  double deploy_s = 0;

  Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  ~Node() {
    clients.clear();
    if (server) server->Stop();
  }

  Engine* engine() { return db->engine(); }
};

std::unique_ptr<DashDbLocal> DeployAt(int dop, double* seconds = nullptr) {
  dashdb::DashDbOptions o;
  o.parallelism_override = dop;
  const double t0 = NowSeconds();
  auto db = DashDbLocal::Deploy(o);
  if (!db.ok()) Die("Deploy", db.status());
  if (seconds) *seconds = NowSeconds() - t0;
  return std::move(*db);
}

void Serve(Node* n, int connections) {
  n->server = std::make_unique<dashdb::Server>(n->backend.get());
  PB_CHECK("Server::Start", n->server->Start());
  for (int i = 0; i < connections; ++i) {
    auto c = std::make_unique<dashdb::WireClient>();
    PB_CHECK("WireClient::Connect", c->Connect(n->server->port()));
    n->clients.push_back(std::move(c));
  }
}

std::shared_ptr<dashdb::ColumnTable> TableOf(Engine* e, const std::string& schema,
                                             const std::string& table) {
  auto entry = e->GetTable(schema, table);
  if (!entry.ok()) Die("GetTable " + table, entry.status());
  auto t = std::dynamic_pointer_cast<dashdb::ColumnTable>((*entry)->storage);
  if (!t) Die(table, Status::Internal("not a column table"));
  return t;
}

/// All rows of a column table (the storage layer's own scan).
dashdb::RowBatch ScanAll(Engine* e, const dashdb::ColumnTable& t) {
  std::vector<int> proj;
  dashdb::RowBatch all;
  for (int c = 0; c < t.schema().num_columns(); ++c) {
    proj.push_back(c);
    all.columns.emplace_back(t.schema().column(c).type);
  }
  PB_CHECK("Scan " + t.schema().QualifiedName(),
           t.Scan({}, proj, e->MakeScanOptions(),
                  [&](dashdb::RowBatch& b, const std::vector<uint64_t>&) {
                    for (size_t c = 0; c < b.columns.size(); ++c) {
                      for (size_t i = 0; i < b.num_rows(); ++i) {
                        all.columns[c].AppendFrom(b.columns[c], i);
                      }
                    }
                  }));
  return all;
}

// ---------------------------------------------------------- statements --

/// Issues one statement over the wire and records what the client saw.
void Issue(dashdb::WireClient* c, Exec* e) {
  const double t0 = NowSeconds();
  auto r = e->prepared.empty() ? c->Query(e->sql)
                               : c->ExecutePrepared(e->prepared, e->params);
  e->ms = (NowSeconds() - t0) * 1e3;
  e->ok = r.ok();
  if (r.ok()) {
    e->digest = ResultDigest(*r);
  } else {
    static std::atomic<int> shown{0};
    if (shown++ < 3) {
      std::fprintf(stderr, "perfbench: statement failed: %s: %.200s\n",
                   r.status().ToString().c_str(), e->sql.c_str());
    }
  }
}

/// Samples statement texts from `make` until one is new (never issued in
/// this run). Thread-safe.
class UniqueTexts {
 public:
  bool Claim(const std::string& s) {
    std::lock_guard<std::mutex> lk(mu_);
    return seen_.insert(s).second;
  }

 private:
  std::mutex mu_;
  std::unordered_set<std::string> seen_;
};

template <typename Make>
std::string Fresh(UniqueTexts* seen, Make&& make) {
  for (int i = 0; i < 100000; ++i) {
    std::string s = make();
    if (seen->Claim(s)) return s;
  }
  Die("parameter domain exhausted", Status::Internal("no fresh text"));
}

// ------------------------------------------------- mini TPC-DS streams --

/// The 12 mini TPC-DS templates (shaped after bench/workloads/tpcds_mini's
/// fixed queries) with seeded parameters (the two slowest, 4 and 7, keep
/// their selectivity within a few percent, since they set the tail), plus ORDER BY ... LIMIT arms for
/// the MPP coordinator's merge. Each stream runs 13 templates: an odd count
/// puts its median latency inside one template's cluster instead of on the
/// gap between two. Every ORDER BY is a total order on the output, so the
/// single-node, DOP-1 and MPP results compare row for row.
struct Template {
  bool report;  ///< full-fact rollup (report class)
  bool single;  ///< part of tpcds_power
  bool mpp;     ///< part of mpp_tpcds (supported by the coordinator)
  std::function<std::string(Rng&)> make;
};

const std::vector<Template>& TpcdsTemplates() {
  static const std::vector<Template> kT = [] {
    auto day = [](Rng& r, int span) {
      return kStartDay + static_cast<int32_t>(r.Uniform(kNumDays - span));
    };
    auto year = [](Rng& r) { return 2012 + static_cast<int>(r.Uniform(5)); };
    const char* kStates[] = {"TN", "CA", "TX", "NY", "GA",
                             "OH", "IL", "WA", "MI", "FL"};
    const std::string ss_item = " JOIN item i ON ss.ss_item_sk = i.i_item_sk";
    const std::string ss_date =
        " JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk";
    std::vector<Template> t;
    // 0: Q3-like brand revenue for one month.
    t.push_back({false, true, true, [=](Rng& r) {
      return "SELECT i.i_brand_id, SUM(ss.ss_sales_price) rev FROM "
             "store_sales ss" + ss_item + ss_date + " WHERE d.d_moy = " +
             N(1 + r.Uniform(12)) + " AND d.d_year = " + N(year(r)) +
             " GROUP BY i.i_brand_id ORDER BY rev DESC, i.i_brand_id LIMIT " +
             N(5 + r.Uniform(16));
    }});
    // 1: Q42-like category profit for one quarter.
    t.push_back({false, true, true, [=](Rng& r) {
      return "SELECT i.i_category, SUM(ss.ss_net_profit) p FROM store_sales "
             "ss" + ss_item + ss_date + " WHERE d.d_year = " + N(year(r)) +
             " AND d.d_qoy = " + N(1 + r.Uniform(4)) +
             " AND ss.ss_quantity <= " + N(50 + r.Uniform(51)) +
             " GROUP BY i.i_category ORDER BY p DESC, i.i_category";
    }});
    // 2: Q52-like daily brand revenue over a one-month band.
    t.push_back({false, true, true, [=](Rng& r) {
      const int32_t d0 = day(r, 32);
      return "SELECT d.d_date, i.i_brand_id, SUM(ss.ss_sales_price) s FROM "
             "store_sales ss" + ss_item + ss_date +
             " WHERE ss.ss_sold_date_sk BETWEEN " + N(d0) + " AND " +
             N(d0 + 31) +
             " GROUP BY d.d_date, i.i_brand_id ORDER BY s DESC, d.d_date, "
             "i.i_brand_id LIMIT 20";
    }});
    // 3: Q55-like one brand over one year.
    t.push_back({false, true, true, [=](Rng& r) {
      const int y = year(r);
      return "SELECT SUM(ss.ss_sales_price) FROM store_sales ss" + ss_item +
             " WHERE i.i_brand_id = " + N(r.Uniform(50)) +
             " AND ss.ss_quantity > " + N(r.Uniform(10)) +
             " AND ss.ss_sold_date_sk >= " +
             N(dashdb::DaysFromCivil(y, 1, 1)) +
             " AND ss.ss_sold_date_sk < " +
             N(dashdb::DaysFromCivil(y + 1, 1, 1));
    }});
    // 4: Q7-like averages over one promotion channel (full fact).
    t.push_back({true, true, true, [=](Rng& r) {
      return "SELECT i.i_category, AVG(ss.ss_quantity) q, "
             "AVG(ss.ss_sales_price) p FROM store_sales ss" + ss_item +
             " JOIN promotion pr ON ss.ss_promo_sk = pr.p_promo_sk WHERE "
             "pr.p_channel_email = '" + (r.Uniform(2) ? "Y" : "N") +
             "' AND ss.ss_quantity > " + N(r.Uniform(5)) +
             " AND ss.ss_sales_price < " + F2(190 + r.Uniform(1000) / 100.0) +
             " GROUP BY i.i_category ORDER BY i.i_category";
    }});
    // 5: Q96-like selective count (full fact).
    t.push_back({true, true, true, [=](Rng& r) {
      const int64_t a = 50 + r.Uniform(41);
      return std::string("SELECT COUNT(*) FROM store_sales ss JOIN store s "
                         "ON ss.ss_store_sk = s.s_store_sk WHERE s.s_state "
                         "= '") + kStates[r.Uniform(10)] +
             "' AND ss.ss_quantity BETWEEN " + N(a) + " AND " + N(a + 10);
    }});
    // 6: 90-day window scan (data skipping).
    t.push_back({false, true, true, [=](Rng& r) {
      const int32_t d0 = day(r, 90);
      return "SELECT COUNT(*), SUM(ss_sales_price) FROM store_sales WHERE "
             "ss_sold_date_sk BETWEEN " + N(d0) + " AND " + N(d0 + 89);
    }});
    // 7: store-state rollup (full fact).
    t.push_back({true, true, true, [=](Rng& r) {
      return "SELECT s.s_state, COUNT(*) n, SUM(ss.ss_net_profit) profit "
             "FROM store_sales ss JOIN store s ON ss.ss_store_sk = "
             "s.s_store_sk WHERE ss.ss_quantity <= " + N(98 + r.Uniform(3)) +
             " AND ss.ss_sales_price < " + F2(195 + r.Uniform(600) / 100.0) +
             " GROUP BY s.s_state ORDER BY profit DESC, s.s_state";
    }});
    // 8: preferred-customer revenue by year (full fact).
    t.push_back({true, true, true, [=](Rng& r) {
      return "SELECT d.d_year, SUM(ss.ss_sales_price) rev FROM store_sales "
             "ss JOIN customer c ON ss.ss_customer_sk = c.c_customer_sk" +
             ss_date + " WHERE c.c_preferred_cust_flag = '" +
             (r.Uniform(2) ? "Y" : "N") + "' AND c.c_birth_year >= " +
             N(1940 + r.Uniform(10)) + " AND ss.ss_quantity > " +
             N(r.Uniform(20)) + " GROUP BY d.d_year ORDER BY d.d_year";
    }});
    // 9: high-value transactions, top-N.
    t.push_back({false, true, true, [=](Rng& r) {
      return "SELECT ss_item_sk, ss_sales_price FROM store_sales WHERE "
             "ss_sales_price > " + F2(190 + r.Uniform(800) / 100.0) +
             " ORDER BY ss_sales_price DESC, ss_item_sk LIMIT 25";
    }});
    // 10: day-of-week quantity for one year.
    t.push_back({false, true, true, [=](Rng& r) {
      return "SELECT d.d_day_name, AVG(ss.ss_quantity) FROM store_sales ss" +
             ss_date + " WHERE d.d_year = " + N(year(r)) +
             " AND ss.ss_quantity > " + N(r.Uniform(50)) +
             " AND ss.ss_sales_price > " + N(r.Uniform(21)) +
             " GROUP BY d.d_day_name ORDER BY d.d_day_name";
    }});
    // 11: category price statistics over the first half-year (STDDEV_POP
    // and MEDIAN do not decompose into the coordinator's two-phase
    // aggregation, so the MPP workload leaves it out).
    t.push_back({false, true, false, [=](Rng& r) {
      return "SELECT i.i_category, STDDEV_POP(ss.ss_sales_price), "
             "MEDIAN(ss.ss_sales_price) FROM store_sales ss" + ss_item +
             " WHERE ss.ss_sold_date_sk < " +
             N(dashdb::DaysFromCivil(2012, 6, 1) + r.Uniform(62)) +
             " AND i.i_brand_id <> " + N(r.Uniform(50)) +
             " GROUP BY i.i_category ORDER BY i.i_category";
    }});
    // 12: ORDER BY ... LIMIT over a 30-day window (MPP: shard-side
    // top-N, coordinator k-way merge).
    t.push_back({false, true, true, [=](Rng& r) {
      const int32_t d0 = day(r, 30);
      return "SELECT ss_customer_sk, ss_item_sk, ss_net_profit FROM "
             "store_sales WHERE ss_sold_date_sk BETWEEN " + N(d0) + " AND " +
             N(d0 + 29) +
             " ORDER BY ss_net_profit DESC, ss_customer_sk, ss_item_sk LIMIT "
             "50";
    }});
    // 13: grouped ORDER BY ... LIMIT (MPP: two-phase aggregation, then
    // the coordinator's top-N over the merged groups).
    t.push_back({false, false, true, [=](Rng& r) {
      const int32_t d0 = day(r, 30);
      return "SELECT ss_item_sk, SUM(ss_net_profit) p FROM store_sales "
             "WHERE ss_sold_date_sk BETWEEN " + N(d0) + " AND " + N(d0 + 29) +
             " GROUP BY ss_item_sk ORDER BY p DESC, ss_item_sk LIMIT 10";
    }});
    return t;
  }();
  return kT;
}

// ------------------------------------------------------ per-layer probe --

/// Samples gathered by the traced run, by layer metric name.
struct Layers {
  std::map<std::string, std::vector<double>> s;
  double mem_peak_bytes = 0;
  void Add(const std::string& k, double v) { s[k].push_back(v); }
  void Merge(const Layers& o) {
    for (const auto& [k, v] : o.s) s[k].insert(s[k].end(), v.begin(), v.end());
    mem_peak_bytes = std::max(mem_peak_bytes, o.mem_peak_bytes);
  }
  double Med(const std::string& k) const {
    auto it = s.find(k);
    return it == s.end() ? 0 : Median(it->second);
  }
  double Sum(const std::string& k) const {
    auto it = s.find(k);
    double t = 0;
    if (it != s.end()) {
      for (double v : it->second) t += v;
    }
    return t;
  }
};

bool IsSelectText(const std::string& sql) { return sql.rfind("SELECT", 0) == 0; }

/// Lays the engine's EXPLAIN ANALYZE span tree out inside `parent`
/// (children start at their parent's start, siblings back to back) so the
/// trace file shows the operators under the statement that ran them, and
/// adds the statement's per-operator-kind self times (wall minus the
/// children's wall, the engine's own rule) and the tree's root wall.
void GraftEngineTrace(const dashdb::Trace& t, Tracer* tr, uint32_t parent,
                      uint64_t stmt, double start, Layers* L) {
  std::map<uint32_t, std::pair<uint32_t, double>> placed;  // id -> (span, cursor)
  std::map<uint32_t, double> child_wall;
  for (const dashdb::TraceSpan& s : t.spans()) child_wall[s.parent] += s.wall_seconds;
  // A root without its own wall time (the MPP coordinator's) spans its
  // children.
  const double root_wall =
      std::max(t.spans().front().wall_seconds, child_wall[t.spans().front().id]);
  double scan = 0, join = 0, agg = 0, sort = 0;
  for (const dashdb::TraceSpan& s : t.spans()) {
    uint32_t p = parent;
    double at = start;
    auto it = placed.find(s.parent);
    const bool root = it == placed.end();
    if (!root) {
      p = it->second.first;
      at = it->second.second;
      it->second.second += s.wall_seconds;
    }
    const uint32_t id =
        tr->Add(root ? "exec.execute" : "op." + s.name, p, stmt, at,
                at + (root ? root_wall : s.wall_seconds));
    placed[s.id] = {id, at};
    if (root) continue;
    const double self = std::max(0.0, s.wall_seconds - child_wall[s.id]) * 1e3;
    if (s.name.find("Scan") != std::string::npos) scan += self;
    else if (s.name.find("Join") != std::string::npos) join += self;
    else if (s.name.find("Agg") != std::string::npos) agg += self;
    else if (s.name.find("Sort") != std::string::npos ||
             s.name.find("TopN") != std::string::npos) sort += self;
  }
  L->Add("exec.scan_self_ms", scan);
  L->Add("exec.join_self_ms", join);
  L->Add("exec.agg_self_ms", agg);
  L->Add("exec.sort_self_ms", sort);
  L->Add("exec.root_ms", root_wall * 1e3);
}

double MaxMemBytes(const std::string& analyzed) {
  static const std::regex kMem(" mem=([0-9]+)");
  double best = 0;
  for (auto it = std::sregex_iterator(analyzed.begin(), analyzed.end(), kMem);
       it != std::sregex_iterator(); ++it) {
    best = std::max(best, std::stod((*it)[1].str()));
  }
  return best;
}

/// In-process decomposition of one statement on a single-node engine:
/// parse, plan (EXPLAIN), execute (EXPLAIN ANALYZE, with the engine's
/// operator spans grafted in) and a plain in-process Execute of the same
/// text under the same session settings. `wire_ms` is the traced wire call.
/// Times ParseStatement(sql) as a sql.parse span; returns its ms.
double TimedParse(const std::string& sql, Tracer* tr, uint32_t root,
                  uint64_t id) {
  const uint32_t ps = tr->Begin("sql.parse", root, id);
  (void)dashdb::ParseStatement(sql);
  tr->End(ps);
  return tr->Ms(ps);
}

void DecomposeEngine(Engine* eng, dashdb::Session* s, const Exec& e,
                     double wire_ms, Tracer* tr, uint32_t root, uint64_t id,
                     Layers* L, int etl_class) {
  const double parse_ms = TimedParse(e.sql, tr, root, id);
  L->Add("sql.parse_ms", parse_ms);
  if (IsSelectText(e.sql)) {
    const uint32_t pl = tr->Begin("sql.plan", root, id);
    (void)eng->Execute(s, "EXPLAIN " + e.sql);
    tr->End(pl);
    L->Add("sql.plan_ms", std::max(0.0, tr->Ms(pl) - parse_ms));
    const uint32_t an = tr->Begin("exec.analyze", root, id);
    auto r = eng->Execute(s, "EXPLAIN ANALYZE " + e.sql);
    tr->End(an);
    if (r.ok() && s->last_trace() && !s->last_trace()->empty()) {
      const dashdb::Trace& t = *s->last_trace();
      L->Add("exec.execute_ms", t.spans().front().wall_seconds * 1e3);
      GraftEngineTrace(t, tr, an, id, tr->spans()[an - 1].start, L);
      L->mem_peak_bytes = std::max(L->mem_peak_bytes, MaxMemBytes(r->message));
    }
  }
  const uint32_t ex = tr->Begin("engine.execute", root, id);
  (void)eng->Execute(s, e.sql);
  tr->End(ex);
  const double run_ms = tr->Ms(ex);
  L->Add("server.overhead_ms", wire_ms - run_ms);
  if (etl_class == static_cast<int>(dashdb::bench::StmtClass::kInsert)) {
    L->Add("storage.insert_ms", run_ms - parse_ms);
  } else if (etl_class == static_cast<int>(dashdb::bench::StmtClass::kUpdate)) {
    L->Add("storage.update_ms", run_ms - parse_ms);
  } else if (etl_class == static_cast<int>(dashdb::bench::StmtClass::kCreate) ||
             etl_class == static_cast<int>(dashdb::bench::StmtClass::kDrop)) {
    L->Add("catalog.ddl_ms", run_ms - parse_ms);
  }
}

/// In-process decomposition of one statement on the MPP database: parse,
/// EXPLAIN ANALYZE (coordinator + grafted shard operator spans) and a plain
/// MppDatabase::Execute whose shard times give the shard-level numbers.
void DecomposeMpp(MppDatabase* db, const Exec& e, double wire_ms, Tracer* tr,
                  uint32_t root, uint64_t id, Layers* L) {
  const double parse_ms = TimedParse(e.sql, tr, root, id);
  L->Add("sql.parse_ms", parse_ms);
  const uint32_t pl = tr->Begin("sql.plan", root, id);
  (void)db->Execute("EXPLAIN " + e.sql);  // broadcast: every shard plans
  tr->End(pl);
  L->Add("sql.plan_ms", std::max(0.0, tr->Ms(pl) - parse_ms));
  const uint32_t an = tr->Begin("exec.analyze", root, id);
  auto a = db->Execute("EXPLAIN ANALYZE " + e.sql);
  tr->End(an);
  if (a.ok() && a->trace && !a->trace->empty()) {
    // The coordinator's root span carries no wall time; the analyzed call
    // as a whole is the execution.
    L->Add("exec.execute_ms", tr->Ms(an));
    GraftEngineTrace(*a->trace, tr, an, id, tr->spans()[an - 1].start, L);
    L->mem_peak_bytes =
        std::max(L->mem_peak_bytes, MaxMemBytes(a->result.message));
  }
  const uint32_t ex = tr->Begin("mpp.execute", root, id);
  auto r = db->Execute(e.sql);
  tr->End(ex);
  const double wall_ms = tr->Ms(ex);
  L->Add("server.overhead_ms", wire_ms - wall_ms);
  if (!r.ok() || r->shard_seconds.empty()) return;
  double sum = 0, mx = 0;
  for (double s : r->shard_seconds) {
    sum += s;
    mx = std::max(mx, s);
  }
  const double mean = sum / static_cast<double>(r->shard_seconds.size());
  if (wall_ms > 0) L->Add("mpp.shard_concurrency", sum * 1e3 / wall_ms);
  if (mean > 0) L->Add("mpp.shard_skew", mx / mean);
  const double makespan = r->MakespanOn(*db->topology());
  if (makespan > 0) L->Add("mpp.wall_over_makespan", wall_ms * 1e-3 / makespan);
}

/// Reference digests: every distinct text executed in-process on a
/// reference engine by 4 threads, one session each (read-only workloads).
std::map<std::string, Digest> ReferenceDigests(
    Engine* ref, const std::vector<Exec>& execs) {
  std::vector<std::string> texts;
  {
    std::unordered_set<std::string> seen;
    for (const Exec& e : execs) {
      if (seen.insert(e.sql).second) texts.push_back(e.sql);
    }
  }
  std::vector<Digest> digests(texts.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      auto session = ref->CreateSession();
      for (size_t i; (i = next++) < texts.size();) {
        auto r = ref->Execute(session.get(), texts[i]);
        if (r.ok()) digests[i] = ResultDigest(*r);
        else digests[i].exact = "error: " + r.status().ToString();
      }
    });
  }
  for (auto& t : workers) t.join();
  std::map<std::string, Digest> out;
  for (size_t i = 0; i < texts.size(); ++i) out[texts[i]] = digests[i];
  return out;
}

/// Creates a scratch table, then times INSERT / UPDATE / CREATE / DROP
/// through `exec` (parse time subtracted): the write path of workloads
/// whose own statements never write.
void ProbeWrites(const std::function<bool(const std::string&)>& exec,
                 Tracer* tr, Layers* L) {
  auto timed = [&](const std::string& name, const std::string& sql) {
    const double parse_ms = TimedParse(sql, tr, 0, 0);
    const uint32_t ex = tr->Begin(name, 0, 0);
    if (!exec(sql)) Die(sql, Status::Internal("probe statement failed"));
    tr->End(ex);
    return tr->Ms(ex) - parse_ms;
  };
  for (int round = 0; round < 5; ++round) {
    const std::string t = "PERFBENCH_PROBE" + N(round);
    L->Add("catalog.ddl_ms",
           timed("catalog.create", "CREATE TABLE " + t +
                                       " (K BIGINT, V DOUBLE, NOTE VARCHAR(20))"));
    for (int i = 0; i < 8; ++i) {
      L->Add("storage.insert_ms",
             timed("storage.insert", "INSERT INTO " + t + " VALUES (" +
                                         N(i) + ", " + N(i * 3) + ".5, 'n" +
                                         N(i) + "')"));
    }
    for (int i = 0; i < 8; ++i) {
      L->Add("storage.update_ms",
             timed("storage.update", "UPDATE " + t + " SET V = V + 1 WHERE K = " +
                                         N(i)));
    }
    L->Add("catalog.ddl_ms", timed("catalog.drop", "DROP TABLE " + t));
  }
}

/// Date-window data skipping measured at the storage layer: 64 seeded
/// windows of `window` days counted with ColumnTable::CountRows.
void ProbeSkipping(const dashdb::ColumnTable& t, int date_col, int32_t first,
                   int32_t days, int32_t window, Rng* rng, Tracer* tr,
                   Layers* L) {
  size_t skipped = 0;
  const size_t strides =
      (t.row_count() + dashdb::kStrideRows - 1) / dashdb::kStrideRows;
  constexpr int kWindows = 64;
  for (int i = 0; i < kWindows; ++i) {
    const int32_t lo =
        first + static_cast<int32_t>(rng->Uniform(std::max(1, days - window)));
    dashdb::ColumnPredicate p;
    p.column = date_col;
    p.int_range.lo = lo;
    p.int_range.hi = lo + window - 1;
    dashdb::ScanStats st;
    dashdb::ScanOptions opts;
    const uint32_t sp = tr->Begin("storage.count_rows", 0, 0);
    auto n = t.CountRows({p}, opts, &st);
    tr->End(sp);
    if (!n.ok()) Die("CountRows", n.status());
    skipped += st.strides_skipped;
  }
  if (strides > 0) {
    L->Add("storage.strides_skipped_ratio",
           static_cast<double>(skipped) / (kWindows * static_cast<double>(strides)));
  }
}

/// Times ColumnTable::Load of a table's rows into a fresh, uncataloged
/// table: bulk-load rate and compressed bytes per row.
void ProbeLoad(Engine* e, const dashdb::ColumnTable& src, Tracer* tr,
               Layers* L) {
  const dashdb::RowBatch rows = ScanAll(e, src);
  dashdb::ColumnTable fresh(src.schema(), e->NextTableId());
  const uint32_t sp = tr->Begin("storage.load", 0, 0);
  PB_CHECK("Load", fresh.Load(rows));
  tr->End(sp);
  const double ms = tr->Ms(sp);
  const double n = static_cast<double>(rows.num_rows());
  if (ms > 0) L->Add("storage.load_mrows_s", n / ms / 1e3);
  if (n > 0) L->Add("storage.bytes_per_row", fresh.CompressedBytes() / n);
}

// ------------------------------------------------------------ workloads --

class Workload {
 public:
  explicit Workload(const Options& o) : opt_(o) {}
  virtual ~Workload() = default;
  virtual int connections() const { return 1; }
  /// A single-connection template stream (see AddEndToEnd).
  virtual bool stream() const { return false; }
  /// Deploy + load + serve + warm-up, up to the first timed statement.
  virtual std::unique_ptr<Node> Boot() = 0;
  /// Next statement for connection `conn`, or nullopt when that closed
  /// loop is over (`elapsed` of `budget` seconds spent).
  virtual std::optional<Exec> Next(int conn, double elapsed, double budget) = 0;
  /// Traced run only: in-process decomposition of one executed statement.
  virtual void Decompose(Node* n, int conn, const Exec& e, Tracer* tr,
                         uint32_t root, uint64_t id, Layers* L) = 0;
  /// Traced run only: called between the untraced and the traced phase.
  virtual void BeforeTraced(Node*) {}
  /// Traced run only: storage / write / load probes after the phases.
  virtual void Probes(Node* n, Tracer* tr, Layers* L) = 0;
  /// Reference digests for the executed statements (outside timing).
  virtual std::map<std::string, Digest> Reference(
      Node* n, const std::vector<Exec>& execs) = 0;
  virtual void Describe(std::map<std::string, std::string>* meta) const = 0;

 protected:
  Options opt_;
};

/// tpcds_power and mpp_tpcds: one connection runs the templates in
/// sequence, complete passes only, fresh parameters every time.
class TpcdsStream : public Workload {
 public:
  TpcdsStream(const Options& o, bool mpp) : Workload(o), mpp_(mpp), rng_(o.seed * 7919 + 13) {
    for (const Template& t : TpcdsTemplates()) {
      if (mpp ? t.mpp : t.single) templates_.push_back(t);
    }
  }

  bool stream() const override { return true; }

  std::unique_ptr<Node> Boot() override {
    auto n = std::make_unique<Node>();
    const auto scale = TpcdsScaleFor(opt_);
    if (!mpp_) {
      n->db = DeployAt(kDop, &n->deploy_s);
      PB_CHECK("LoadTpcds", dashdb::bench::LoadTpcds(n->engine(), scale, false));
      n->backend = std::make_unique<dashdb::EngineBackend>(n->engine());
    } else {
      // The generator loads a single-node engine; its tables are copied
      // into the cluster and it stays as the single-node reference.
      n->staging = DeployAt(1);
      Engine* st = n->staging->engine();
      PB_CHECK("LoadTpcds", dashdb::bench::LoadTpcds(st, scale, false));
      const double t0 = NowSeconds();
      n->mpp = std::make_unique<MppDatabase>(kMppNodes, kMppShardsPerNode,
                                             kMppCoresPerNode, size_t{8} << 30);
      n->deploy_s = NowSeconds() - t0;
      for (const char* name : {"DATE_DIM", "ITEM", "CUSTOMER", "STORE",
                               "PROMOTION", "STORE_SALES"}) {
        auto table = TableOf(st, "PUBLIC", name);
        const dashdb::RowBatch rows = ScanAll(st, *table);
        dashdb::TableSchema schema = table->schema();
        const bool fact = std::string(name) == "STORE_SALES";
        if (fact) schema.set_distribution_key(2);  // ss_customer_sk
        PB_CHECK("CreateTable", n->mpp->CreateTable(schema, !fact));
        PB_CHECK("Load", n->mpp->Load("PUBLIC", name, rows));
      }
      n->backend = std::make_unique<dashdb::MppBackend>(n->mpp.get());
    }
    Serve(n.get(), 1);
    idx_ = 0;
    for (size_t t = 0; t < templates_.size(); ++t) {  // warm-up pass
      Exec e = Make(static_cast<int>(t));
      Issue(n->clients[0].get(), &e);
      if (!e.ok) Die("warm-up", Status::Internal(e.sql));
    }
    return n;
  }

  std::optional<Exec> Next(int, double elapsed, double budget) override {
    if (idx_ % templates_.size() == 0 && elapsed >= budget) return std::nullopt;
    return Make(static_cast<int>(idx_++ % templates_.size()));
  }

  void Decompose(Node* n, int, const Exec& e, Tracer* tr, uint32_t root,
                 uint64_t id, Layers* L) override {
    if (mpp_) {
      DecomposeMpp(n->mpp.get(), e, e.ms, tr, root, id, L);
      return;
    }
    if (!session_) session_ = n->engine()->CreateSession();
    DecomposeEngine(n->engine(), session_.get(), e, e.ms, tr, root, id, L, -1);
  }

  void Probes(Node* n, Tracer* tr, Layers* L) override {
    Engine* e = mpp_ ? n->mpp->shard_engine(0) : n->engine();
    auto t = TableOf(e, "PUBLIC", "STORE_SALES");
    Rng rng(opt_.seed + 5);
    ProbeSkipping(*t, 0, kStartDay, kNumDays, 30, &rng, tr, L);
    ProbeLoad(e, *t, tr, L);
    if (mpp_) {
      ProbeWrites([&](const std::string& sql) { return n->mpp->Execute(sql).ok(); },
                  tr, L);
    } else {
      auto s = n->engine()->CreateSession();
      ProbeWrites([&](const std::string& sql) {
        return n->engine()->Execute(s.get(), sql).ok();
      }, tr, L);
    }
  }

  std::map<std::string, Digest> Reference(
      Node* n, const std::vector<Exec>& execs) override {
    if (mpp_) return ReferenceDigests(n->staging->engine(), execs);
    auto ref = DeployAt(1);
    PB_CHECK("LoadTpcds",
             dashdb::bench::LoadTpcds(ref->engine(), TpcdsScaleFor(opt_), false));
    return ReferenceDigests(ref->engine(), execs);
  }

  void Describe(std::map<std::string, std::string>* meta) const override {
    (*meta)["scale"] = "store_sales_rows=" + N(TpcdsScaleFor(opt_).store_sales_rows);
    (*meta)["templates"] = N(templates_.size());
    (*meta)["connections"] = "1";
    (*meta)["dop"] = mpp_ ? "1 per shard" : N(kDop);
    if (mpp_) {
      (*meta)["mpp_topology"] = N(kMppNodes) + " nodes x " + N(kMppShardsPerNode) +
                                " shards, " + N(kMppCoresPerNode) +
                                " cores/node; store_sales hashed on "
                                "ss_customer_sk, dimensions replicated";
    }
  }

 private:
  Exec Make(int t) {
    Exec e;
    e.tmpl = t;
    e.report = templates_[t].report;
    e.sql = Fresh(&seen_, [&] { return templates_[t].make(rng_); });
    return e;
  }

  bool mpp_;
  Rng rng_;
  std::vector<Template> templates_;
  UniqueTexts seen_;
  size_t idx_ = 0;
  std::shared_ptr<dashdb::Session> session_;
};

/// bi_concurrent: 3 interactive dashboard connections + 1 report
/// connection; result cache on; half the interactive parameters come from a
/// warmed 64-value hot set, half never repeat.
///
/// Interactive templates: 0 date-window fact aggregate (data skipping),
/// 1 customer range lookup, 2 top-10 of one day and store, 3 the customer
/// lookup through PREPARE/EXECUTE. Each connection cycles through a fixed
/// 10-slot mix (20/40/20/20) and alternates hot and cold parameters per
/// template, so a run's mix is exact rather than sampled. Prepared
/// executions bypass the result cache, so hits are 40% of the statements
/// and the median lands in the middle of the next cluster, the cold
/// literal lookups, instead of on the hit/miss edge.
class BiConcurrent : public Workload {
 public:
  static constexpr int kTemplates = 4;
  static constexpr int kMix[10] = {0, 0, 1, 1, 1, 1, 2, 2, 3, 3};
  static constexpr const char* kPrepared = "CUST_RANGE";
  static constexpr const char* kPreparedSql =
      "SELECT c_customer_sk, c_birth_year, c_preferred_cust_flag FROM "
      "customer WHERE c_customer_sk BETWEEN ? AND ? ORDER BY c_customer_sk";

  explicit BiConcurrent(const Options& o) : Workload(o) {
    Rng rng(o.seed * 104729 + 3);
    for (int t = 0; t < kTemplates; ++t) {
      std::unordered_set<std::string> uniq;
      while (static_cast<int>(hot_[t].size()) < kHotSet) {
        auto p = Params(t, &rng);
        if (uniq.insert(Text(t, p)).second) hot_[t].push_back(p);
      }
    }
    for (int t = 0; t < kTemplates; ++t) {
      for (const auto& p : hot_[t]) hot_text_.insert(Text(t, p));
    }
    for (int c = 0; c <= kInteractive; ++c) rngs_.emplace_back(o.seed * 31 + c);
    sessions_.resize(kInteractive + 1);
  }

  int connections() const override { return kInteractive + 1; }

  std::unique_ptr<Node> Boot() override {
    auto n = std::make_unique<Node>();
    n->db = DeployAt(kDop, &n->deploy_s);
    PB_CHECK("LoadTpcds",
             dashdb::bench::LoadTpcds(n->engine(), TpcdsScaleFor(opt_), false));
    n->backend = std::make_unique<dashdb::EngineBackend>(n->engine());
    Serve(n.get(), connections());
    for (auto& c : n->clients) {
      auto r = c->Query("SET RESULT_CACHE ON");
      if (!r.ok()) Die("SET RESULT_CACHE", r.status());
      if (c == n->clients.back()) {
        // The report session runs at CURRENT DEGREE 1, as a workload
        // manager would cap a background report. It still keeps one core
        // busy, but the run no longer saturates all four: with the report
        // at DOP 4 a competing one-core process cost interactive qps 18%
        // and p99 28%, at DOP 1 9% and 15%, for the same report rate.
        r = c->Query("SET DOP 1");
        if (!r.ok()) Die("SET DOP", r.status());
      }
      auto p = c->Prepare(kPrepared, kPreparedSql);
      if (!p.ok()) Die("PREPARE", p.status());
    }
    // Warm the hot set into the result cache. EXECUTE of a prepared
    // statement bypasses that cache, so its template runs once only.
    for (int t = 0; t < kTemplates; ++t) {
      for (const auto& p : hot_[t]) {
        Exec e = Make(t, p, true);
        Issue(n->clients[0].get(), &e);
        if (!e.ok) Die("warm-up", Status::Internal(e.sql));
        if (!e.prepared.empty()) break;
      }
    }
    Exec r = MakeReport(&rngs_[kInteractive]);
    Issue(n->clients[kInteractive].get(), &r);
    return n;
  }

  std::optional<Exec> Next(int conn, double elapsed, double budget) override {
    if (elapsed >= budget) return std::nullopt;
    Rng& rng = rngs_[conn];
    if (conn == kInteractive) return MakeReport(&rng);
    const int t = kMix[(cycle_[conn]++ + 3 * conn) % 10];
    if (flip_[conn][t]++ % 2 == 0) {
      return Make(t, hot_[t][rng.Uniform(kHotSet)], true);
    }
    for (;;) {
      auto p = Params(t, &rng);
      Exec e = Make(t, p, false);
      if (hot_text_.count(e.sql) == 0 && seen_.Claim(e.sql)) return e;
    }
  }

  void Decompose(Node* n, int conn, const Exec& e, Tracer* tr, uint32_t root,
                 uint64_t id, Layers* L) override {
    auto& s = sessions_[conn];
    if (!s) {
      s = n->engine()->CreateSession();
      (void)n->engine()->Execute(s.get(), "SET RESULT_CACHE ON");
    }
    DecomposeEngine(n->engine(), s.get(), e, e.ms, tr, root, id, L, -1);
  }

  void Probes(Node* n, Tracer* tr, Layers* L) override {
    auto t = TableOf(n->engine(), "PUBLIC", "STORE_SALES");
    Rng rng(opt_.seed + 5);
    ProbeSkipping(*t, 0, kStartDay, kNumDays, 30, &rng, tr, L);
    ProbeLoad(n->engine(), *t, tr, L);
    auto s = n->engine()->CreateSession();
    ProbeWrites([&](const std::string& sql) {
      return n->engine()->Execute(s.get(), sql).ok();
    }, tr, L);
  }

  std::map<std::string, Digest> Reference(
      Node*, const std::vector<Exec>& execs) override {
    auto ref = DeployAt(1);
    PB_CHECK("LoadTpcds",
             dashdb::bench::LoadTpcds(ref->engine(), TpcdsScaleFor(opt_), false));
    return ReferenceDigests(ref->engine(), execs);
  }

  void Describe(std::map<std::string, std::string>* meta) const override {
    (*meta)["scale"] = "store_sales_rows=" + N(TpcdsScaleFor(opt_).store_sales_rows);
    (*meta)["connections"] = N(kInteractive) + " interactive + 1 report";
    (*meta)["dop"] = N(kDop);
    (*meta)["hot_set"] = N(kHotSet) + " per template, 50% of interactive";
  }

 private:
  struct P {
    int64_t a, b;
  };
  P Params(int t, Rng* r) const {
    const int64_t day = kStartDay + static_cast<int64_t>(r->Uniform(kNumDays));
    switch (t) {
      case 0: return {kStartDay + static_cast<int64_t>(r->Uniform(kNumDays - 64)),
                      1 + static_cast<int64_t>(r->Uniform(60))};
      case 2: return {day, static_cast<int64_t>(r->Uniform(20))};
      default: return {static_cast<int64_t>(r->Uniform(TpcdsScaleFor(opt_).customers - 8)),
                       static_cast<int64_t>(r->Uniform(8))};
    }
  }
  static std::string Text(int t, const P& p) {
    switch (t) {
      case 0:
        return "SELECT COUNT(*), SUM(ss_sales_price), AVG(ss_quantity) FROM "
               "store_sales WHERE ss_sold_date_sk BETWEEN " + N(p.a) + " AND " +
               N(p.a + p.b);
      case 2:
        return "SELECT ss_item_sk, ss_customer_sk, ss_sales_price FROM "
               "store_sales WHERE ss_sold_date_sk = " + N(p.a) +
               " AND ss_store_sk = " + N(p.b) +
               " ORDER BY ss_sales_price DESC, ss_item_sk, ss_customer_sk "
               "LIMIT 10";
      default:  // 1, and 3 with literals substituted
        return "SELECT c_customer_sk, c_birth_year, c_preferred_cust_flag FROM "
               "customer WHERE c_customer_sk BETWEEN " + N(p.a) + " AND " +
               N(p.a + p.b) + " ORDER BY c_customer_sk";
    }
  }
  /// Hot and cold executions of one template are separate shapes for the
  /// per-shape median (a result-cache hit and a miss differ ~10x).
  Exec Make(int t, const P& p, bool hot) {
    Exec e;
    e.tmpl = 2 * t + (hot ? 0 : 1);
    e.sql = Text(t, p);
    if (t == 3) {
      e.prepared = kPrepared;
      e.params = {dashdb::Value::Int64(p.a), dashdb::Value::Int64(p.a + p.b)};
    }
    return e;
  }
  Exec MakeReport(Rng* rng) {
    Exec e;
    e.tmpl = 2 * kTemplates;
    e.report = true;
    e.primary = false;
    e.sql = Fresh(&seen_, [&] {
      return "SELECT s.s_state, COUNT(*) n, SUM(ss.ss_net_profit) profit, "
             "AVG(ss.ss_quantity) q FROM store_sales ss JOIN store s ON "
             "ss.ss_store_sk = s.s_store_sk WHERE ss.ss_sales_price < " +
             F2(150 + rng->Uniform(5000) / 100.0) +
             " GROUP BY s.s_state ORDER BY s.s_state";
    });
    return e;
  }

  std::vector<P> hot_[kTemplates];
  std::unordered_set<std::string> hot_text_;  ///< excluded from cold draws
  std::vector<Rng> rngs_;
  size_t cycle_[kInteractive] = {};
  size_t flip_[kInteractive][kTemplates] = {};
  UniqueTexts seen_;
  std::vector<std::shared_ptr<dashdb::Session>> sessions_;
};

/// etl_mixed: one connection replays the CustomerWorkload statement stream
/// (the paper's Test 1 mix) in order.
class EtlMixed : public Workload {
 public:
  explicit EtlMixed(const Options& o)
      : Workload(o), gen_(EtlScaleFor(o)), stream_(gen_.MakeStatements()) {}

  std::unique_ptr<Node> Boot() override {
    auto n = std::make_unique<Node>();
    n->db = DeployAt(kDop, &n->deploy_s);
    PB_CHECK("CustomerWorkload::Setup", gen_.Setup(n->engine()));
    n->backend = std::make_unique<dashdb::EngineBackend>(n->engine());
    Serve(n.get(), 1);
    pos_ = 0;
    const size_t warm = opt_.tiny ? 200 : kEtlWarmup;
    while (pos_ < warm) {
      Exec e = Make(pos_++);
      Issue(n->clients[0].get(), &e);
      if (!e.ok) Die("warm-up", Status::Internal(e.sql));
    }
    return n;
  }

  std::optional<Exec> Next(int, double elapsed, double budget) override {
    if (elapsed >= budget) return std::nullopt;
    if (pos_ == stream_.size()) {
      std::fprintf(stderr, "perfbench: etl_mixed stream exhausted\n");
      return std::nullopt;
    }
    return Make(pos_++);
  }

  void BeforeTraced(Node*) override {
    // The in-process shadow: same DOP, same data, replayed to the served
    // instance's position, then kept in lockstep by Decompose.
    shadow_ = DeployAt(kDop);
    PB_CHECK("CustomerWorkload::Setup", gen_.Setup(shadow_->engine()));
    shadow_session_ = shadow_->engine()->CreateSession();
    for (size_t i = 0; i < pos_; ++i) {
      (void)shadow_->engine()->Execute(shadow_session_.get(), stream_[i].sql);
    }
  }

  void Decompose(Node*, int, const Exec& e, Tracer* tr, uint32_t root,
                 uint64_t id, Layers* L) override {
    // Exec::tmpl is the statement class (-1 for the rare ones).
    DecomposeEngine(shadow_->engine(), shadow_session_.get(), e, e.ms, tr, root,
                    id, L, e.tmpl);
  }

  void Probes(Node* n, Tracer* tr, Layers* L) override {
    auto t = TableOf(n->engine(), "FIN0", "POSITIONS0");
    Rng rng(opt_.seed + 5);
    const int32_t start = dashdb::DaysFromCivil(2010, 1, 1);
    ProbeSkipping(*t, 1, start, 7 * 365, 120, &rng, tr, L);
    ProbeLoad(n->engine(), *t, tr, L);
  }

  std::map<std::string, Digest> Reference(
      Node*, const std::vector<Exec>&) override {
    auto ref = DeployAt(1);
    PB_CHECK("CustomerWorkload::Setup", gen_.Setup(ref->engine()));
    auto s = ref->engine()->CreateSession();
    std::map<std::string, Digest> out;
    for (size_t i = 0; i < pos_; ++i) {
      auto r = ref->engine()->Execute(s.get(), stream_[i].sql);
      if (r.ok()) out["#" + N(i)] = ResultDigest(*r);
      else out["#" + N(i)].exact = "error: " + r.status().ToString();
    }
    return out;
  }

  void Describe(std::map<std::string, std::string>* meta) const override {
    const auto s = EtlScaleFor(opt_);
    (*meta)["scale"] = N(s.schemas) + " schemas x " + N(s.tables_per_schema) +
                       " tables x " + N(s.rows_per_table) + " rows; " +
                       N(s.num_statements) + " statements generated";
    (*meta)["connections"] = "1";
    (*meta)["dop"] = N(kDop);
  }

 private:
  Exec Make(size_t i) {
    using dashdb::bench::StmtClass;
    const auto& w = stream_[i];
    Exec e;
    e.sql = w.sql;
    e.key = "#" + N(i);
    const StmtClass c = w.cls;
    const bool main_class = c == StmtClass::kInsert || c == StmtClass::kUpdate ||
                            c == StmtClass::kDrop || c == StmtClass::kSelect ||
                            c == StmtClass::kCreate || c == StmtClass::kDelete;
    e.tmpl = main_class ? static_cast<int>(c) : -1;
    e.select = c == StmtClass::kSelect || c == StmtClass::kWith ||
               c == StmtClass::kExplain;
    e.report = w.sql.rfind("SELECT STATUS, COUNT(*)", 0) == 0;
    return e;
  }

  dashdb::bench::CustomerWorkload gen_;
  std::vector<dashdb::bench::WorkloadStatement> stream_;
  size_t pos_ = 0;
  std::unique_ptr<DashDbLocal> shadow_;
  std::shared_ptr<dashdb::Session> shadow_session_;
};

std::unique_ptr<Workload> MakeWorkload(const Options& o) {
  if (o.workload == "tpcds_power") return std::make_unique<TpcdsStream>(o, false);
  if (o.workload == "mpp_tpcds") return std::make_unique<TpcdsStream>(o, true);
  if (o.workload == "etl_mixed") return std::make_unique<EtlMixed>(o);
  if (o.workload == "bi_concurrent") return std::make_unique<BiConcurrent>(o);
  return nullptr;
}

// --------------------------------------------------------------- phases --

struct Phase {
  std::vector<Exec> execs;
  double wall_s = 0;         ///< primary connections
  double report_wall_s = 0;  ///< all connections
  double cpu_s = 0;
  dashdb::MetricSnapshot delta;
};

/// Runs every connection's closed loop for `budget` seconds. With `traced`
/// each statement gets a span tree (statement -> server.query + the
/// workload's in-process decomposition).
Phase RunPhase(Workload* w, Node* n, double budget, bool traced,
               Tracer* tracer, Layers* layers) {
  const int conns = w->connections();
  std::vector<std::vector<Exec>> per(conns);
  std::vector<double> walls(conns);
  std::vector<Tracer> tracers(conns);
  std::vector<Layers> lays(conns);
  std::atomic<uint64_t> stmt_ids{1};
  std::mutex next_mu;  // guards the workload's generator state in Next()
  dashdb::MetricDeltaScope delta;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  auto loop = [&](int c) {
    for (;;) {
      std::optional<Exec> e;
      {
        std::lock_guard<std::mutex> lk(next_mu);
        e = w->Next(c, NowSeconds() - t0, budget);
      }
      if (!e) break;
      if (!traced) {
        Issue(n->clients[c].get(), &*e);
      } else {
        const uint64_t id = stmt_ids++;
        Tracer& tr = tracers[c];
        const uint32_t root = tr.Begin("statement", 0, id);
        const uint32_t q = tr.Begin("server.query", root, id);
        Issue(n->clients[c].get(), &*e);
        tr.End(q);
        if (e->ok) w->Decompose(n, c, *e, &tr, root, id, &lays[c]);
        tr.End(root);
      }
      per[c].push_back(std::move(*e));
    }
    walls[c] = NowSeconds() - t0;
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < conns; ++c) threads.emplace_back(loop, c);
  loop(0);
  for (auto& t : threads) t.join();
  Phase p;
  p.report_wall_s = NowSeconds() - t0;
  p.cpu_s = ProcessCpuSeconds() - cpu0;
  p.delta = delta.Deltas();
  for (int c = 0; c < conns; ++c) {
    const bool primary = per[c].empty() || per[c].front().primary;
    if (primary) p.wall_s = std::max(p.wall_s, walls[c]);
    else p.report_wall_s = walls[c];
    p.execs.insert(p.execs.end(), per[c].begin(), per[c].end());
    if (tracer) tracer->Append(tracers[c]);
    if (layers) layers->Merge(lays[c]);
  }
  return p;
}

int64_t Delta(const dashdb::MetricSnapshot& d, const std::string& k) {
  auto it = d.find(k);
  return it == d.end() ? 0 : it->second;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

void AddPerLayer(const Phase& a, const Phase& b, const Layers& L,
                 const Tracer& tr, double deploy_s, RunResult* out) {
  const double stmts = static_cast<double>(a.execs.size());
  size_t repeats = 0;
  {
    std::unordered_set<std::string> seen;
    for (const Exec& e : a.execs) repeats += !seen.insert(e.sql).second;
  }
  const auto& d = a.delta;
  const double pc_hits = Delta(d, "server.plan_cache_hits");
  const double pc_miss = Delta(d, "server.plan_cache_misses");
  const double rc_hits = Delta(d, "server.result_cache_hits");
  const double rc_miss = Delta(d, "server.result_cache_misses");
  const double geo_a = GeoMean(ShapeMedians(a.execs));
  const double geo_b = GeoMean(ShapeMedians(b.execs));
  out->Add("server.overhead_ms", L.Med("server.overhead_ms"), "ms");
  out->Add("server.frames_per_stmt", Ratio(Delta(d, "server.frames_in"), stmts), "count");
  out->Add("sql.parse_ms", L.Med("sql.parse_ms"), "ms");
  out->Add("sql.plan_ms", L.Med("sql.plan_ms"), "ms");
  out->Add("sql.plan_cache_hit_rate", Ratio(pc_hits, pc_hits + pc_miss), "ratio");
  out->Add("sql.result_cache_hit_rate", Ratio(rc_hits, rc_hits + rc_miss), "ratio");
  out->Add("sql.repeat_share", Ratio(repeats, stmts), "ratio");
  out->Add("exec.execute_ms", L.Med("exec.execute_ms"), "ms");
  // Operator-kind self time as a share of the analyzed plans' wall time
  // (a kind a workload never runs, such as joins on etl_mixed, reads 0).
  const double root_ms = L.Sum("exec.root_ms");
  for (const char* kind : {"scan", "join", "agg", "sort"}) {
    out->Add(std::string("exec.") + kind + "_self_share",
             Ratio(L.Sum(std::string("exec.") + kind + "_self_ms"), root_ms),
             "ratio");
  }
  out->Add("exec.cpu_per_wall", Ratio(a.cpu_s, a.report_wall_s), "ratio");
  out->Add("exec.mem_peak_mb", L.mem_peak_bytes / 1e6, "MB");
  out->Add("exec.admission_queued_per_1k",
           Ratio(Delta(d, "exec.admission_queued") * 1000.0, stmts), "count");
  out->Add("exec.admission_shed", Delta(d, "exec.admission_shed"), "count");
  out->Add("storage.strides_skipped_ratio", L.Med("storage.strides_skipped_ratio"), "ratio");
  out->Add("storage.insert_ms", L.Med("storage.insert_ms"), "ms");
  out->Add("storage.update_ms", L.Med("storage.update_ms"), "ms");
  out->Add("catalog.ddl_ms", L.Med("catalog.ddl_ms"), "ms");
  out->Add("storage.load_mrows_s", L.Med("storage.load_mrows_s"), "Mrows/s");
  out->Add("storage.bytes_per_row", L.Med("storage.bytes_per_row"), "B/row");
  out->Add("deploy.deploy_s", deploy_s, "s");
  out->Add("mpp.shard_concurrency", L.Med("mpp.shard_concurrency"), "ratio");
  out->Add("mpp.shard_skew", L.Med("mpp.shard_skew"), "ratio");
  out->Add("mpp.wall_over_makespan", L.Med("mpp.wall_over_makespan"), "ratio");
  out->Add("mpp.exchange_bytes_per_stmt",
           Ratio(Delta(d, "mpp.exchange_bytes"), stmts), "B/stmt");
  out->Add("mpp.exchange_stalls", Delta(d, "mpp.exchange_stalls"), "count");
  out->Add("mpp.shard_retries", Delta(d, "mpp.shard_retries"), "count");
  out->Add("trace.geomean_ms", geo_b, "ms");
  out->Add("trace.overhead_pct", Ratio(geo_b - geo_a, geo_a) * 100.0, "%");
  out->Add("trace.spans", static_cast<double>(tr.spans().size()), "count");
}


}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> k = {"tpcds_power", "bi_concurrent",
                                             "etl_mixed", "mpp_tpcds"};
  return k;
}

RunResult RunWorkload(const Options& opt) {
  std::unique_ptr<Workload> w = MakeWorkload(opt);
  RunResult out;
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    std::exit(2);
  }
  w->Describe(&out.meta);
  std::unique_ptr<Node> n;
  if (!opt.trace) {
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      n.reset();
      const double t0 = NowSeconds();
      n = w->Boot();
      setups.push_back(NowSeconds() - t0);
    }
    ResetPeakRss();
    const CpuTicks c0 = ReadCpuTicks();
    Phase a = RunPhase(w.get(), n.get(), opt.seconds, false, nullptr, nullptr);
    const CpuTicks c1 = ReadCpuTicks();
    // CPU time the hypervisor gave to other guests while this run wanted
    // it: the host noise behind a run's numbers.
    out.meta["host_steal_pct"] = std::to_string(
        100.0 * (c1.steal - c0.steal) / std::max<uint64_t>(1, c1.total - c0.total));
    // Memory is printed here and reported per layer, not bounded: the
    // serving phase's VmHWM depends on which allocator arena each worker
    // thread used (637-940 MB on one tpcds_power seed at 2M rows), and the
    // resident size after malloc_trim moves by ~10% between runs.
    out.printed.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    out.printed.push_back({"rss_mb", RestingRssMb(), "MB"});
    Verify(a.execs, w->Reference(n.get(), a.execs), opt.corrupt_digest, &out);
    AddEndToEnd(a.execs, a.wall_s, a.report_wall_s, w->stream(), setups, &out);
  } else {
    n = w->Boot();
    const double half = opt.seconds / 2;
    ResetPeakRss();
    Phase a = RunPhase(w.get(), n.get(), half, false, nullptr, nullptr);
    const double peak = PeakRssMb();
    const double rest = RestingRssMb();
    w->BeforeTraced(n.get());
    Tracer tracer;
    Layers layers;
    Phase b = RunPhase(w.get(), n.get(), half, true, &tracer, &layers);
    Tracer probes;
    w->Probes(n.get(), &probes, &layers);
    tracer.Append(probes);
    std::vector<Exec> all = a.execs;
    all.insert(all.end(), b.execs.begin(), b.execs.end());
    Verify(all, w->Reference(n.get(), all), opt.corrupt_digest, &out);
    AddPerLayer(a, b, layers, tracer, n->deploy_s, &out);
    out.Add("mem.peak_rss_mb", peak, "MB");
    out.Add("mem.rss_mb", rest, "MB");
    const std::string path = opt.trace_out + "/trace-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".jsonl";
    if (tracer.WriteJsonLines(path)) out.meta["trace_file"] = path;
  }
  n.reset();
  return out;
}

}  // namespace perfbench
