// Figure 2: MPP shared-nothing scale-out. Fixed total data is distributed
// over 1..8 nodes. For each topology the bench prints the modeled cluster
// wall-clock beside the measured wall-clock of the same query on this host.
// The model is the topology makespan over per-shard times taken one shard
// at a time, so no shard competes for a core: what each node would see
// with its own cores. The measured query runs the shards concurrently,
// every node's shards sharing this host's cores, so the ratio shows how far
// one host is from the modeled cluster.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "mpp/mpp.h"

using namespace dashdb;
using namespace dashdb::bench;

namespace {

constexpr size_t kTotalRows = 800000;
constexpr int kReps = 3;       // measured wall-clock: best of these
constexpr int kShardReps = 9;  // per-shard times (a few ms): best of these

constexpr const char* kQuery =
    "SELECT G, COUNT(*), SUM(V), AVG(V) FROM F GROUP BY G";
// The shard-local partial aggregate the coordinator ships for kQuery.
constexpr const char* kShardQuery =
    "SELECT G, COUNT(*), SUM(V), COUNT(V) FROM F GROUP BY G";

struct Timing {
  double modeled_s = 0;   ///< makespan over uncontended per-shard times
  double measured_s = 0;  ///< best wall-clock of the concurrent query
};

Result<Timing> LoadAndQuery(int nodes) {
  MppDatabase db(nodes, /*shards_per_node=*/4, /*cores_per_node=*/8,
                 size_t{16} << 30);
  TableSchema schema("PUBLIC", "F",
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"G", TypeId::kInt64, true, 0, false},
                      {"V", TypeId::kDouble, true, 0, false}});
  schema.set_distribution_key(0);
  DASHDB_RETURN_IF_ERROR(db.CreateTable(schema));
  RowBatch rows;
  rows.columns.emplace_back(TypeId::kInt64);
  rows.columns.emplace_back(TypeId::kInt64);
  rows.columns.emplace_back(TypeId::kDouble);
  Rng rng(4);
  for (size_t i = 0; i < kTotalRows; ++i) {
    rows.columns[0].AppendInt(static_cast<int64_t>(i));
    rows.columns[1].AppendInt(static_cast<int64_t>(rng.Uniform(1000)));
    rows.columns[2].AppendDouble(rng.Uniform(10000) / 100.0);
  }
  DASHDB_RETURN_IF_ERROR(db.Load("PUBLIC", "F", rows));
  Timing best;
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch sw;
    DASHDB_RETURN_IF_ERROR(db.Execute(kQuery).status());
    const double wall = sw.ElapsedSeconds();
    if (rep == 0 || wall < best.measured_s) best.measured_s = wall;
  }
  // Each shard's partial aggregate alone on the host (shard engines run at
  // DOP 1, so this is one core's work), best of kShardReps.
  std::vector<double> shard_s(db.num_shards(), 0);
  for (int s = 0; s < db.num_shards(); ++s) {
    Engine* shard = db.shard_engine(s);
    auto session = shard->CreateSession();
    for (int rep = 0; rep < kShardReps; ++rep) {
      Stopwatch sw;
      DASHDB_RETURN_IF_ERROR(
          shard->Execute(session.get(), kShardQuery).status());
      const double t = sw.ElapsedSeconds();
      if (rep == 0 || t < shard_s[s]) shard_s[s] = t;
    }
  }
  best.modeled_s = db.topology()->Makespan(shard_s);
  return best;
}

}  // namespace

int main() {
  PrintHeader("Figure 2: MPP shared-nothing scale-out (fixed total data)");
  std::printf("  %5s %8s %16s %14s %10s %17s %15s\n", "nodes", "shards",
              "modeled query s", "speedup vs 1", "efficiency",
              "measured query s", "measured/model");
  double base = 0;
  for (int nodes : {1, 2, 4, 8}) {
    auto r = LoadAndQuery(nodes);
    if (!r.ok()) {
      std::fprintf(stderr, "failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    const double makespan = r->modeled_s;
    if (nodes == 1) base = makespan;
    double speedup = base / makespan;
    std::printf("  %5d %8d %16.4f %13.2fx %9.0f%% %17.4f %14.2fx\n", nodes,
                nodes * 4, makespan, speedup, 100.0 * speedup / nodes,
                r->measured_s, r->measured_s / makespan);
  }
  PrintNote("paper shape: near-linear speedup — each node owns 1/N of the "
            "shards and scans proceed shard-parallel ('scales to massive "
            "data and compute')");
  PrintNote("measured: every node shares this host's " +
            std::to_string(std::thread::hardware_concurrency()) +
            " cores, so it stops falling once shards outnumber them");
  return 0;
}
