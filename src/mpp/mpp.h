// MPP coordinator: hash-distributed tables over per-shard engines, DDL/DML
// broadcast and routing, and two-phase distributed query execution
// (shard-local partials + coordinator merge), mirroring the shared-nothing
// scale-out of paper Figure 2.
//
// Shards always remain executable because their file sets live on the
// shared clustered filesystem; node failure only changes WHICH node runs a
// shard (src/mpp/topology.h). Shard attempts run concurrently, at most
// `cores` per node; MppQueryResult::MakespanOn still models what the query
// would take on a real cluster from the measured per-shard times.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/threadpool.h"
#include "common/trace.h"
#include "mpp/topology.h"
#include "sql/engine.h"

namespace dashdb {

/// Per-query resilience policy. Shard plans are deterministic and
/// side-effect-free for SELECT, so a failed or slow attempt can simply be
/// re-executed — on a survivor after reassociation, or speculatively while
/// the straggler is still running — and the merged result stays
/// byte-identical to the fault-free run.
struct FailoverPolicy {
  /// Total attempts per shard task (first attempt included).
  int max_attempts_per_shard = 3;
  /// A SELECT attempt running longer than this is classified kTimeout and
  /// re-executed. Generous default: only injected stalls trip it in tests.
  double shard_timeout_seconds = 60.0;
  /// Straggler handling: a shard attempt still running after this long gets
  /// a speculative re-execution on a fresh session; first result wins.
  /// Negative disables speculation (the default — it costs a thread).
  double straggler_after_seconds = -1.0;
  /// Treat kUnavailable from a shard as the owner node dying: FailNode()
  /// reassociates its shards across survivors before the retry (II.E).
  bool failover_on_unavailable = true;
  /// Bounded exponential backoff between attempts, with deterministic
  /// jitter derived from the fault-injector seed.
  double backoff_base_seconds = 0.0002;
  double backoff_max_seconds = 0.005;
};

/// What fault tolerance did during one Execute (observability for tests,
/// benches, and the failover drill).
struct MppExecStats {
  uint64_t shard_retries = 0;        ///< re-executed shard attempts
  uint64_t failovers = 0;            ///< nodes failed over mid-query
  uint64_t timeouts = 0;             ///< attempts past the timeout budget
  uint64_t speculative_launches = 0; ///< straggler re-executions started
  uint64_t speculative_wins = 0;     ///< ... that beat the primary
};

// --- flow-controlled shard -> coordinator exchange -------------------------
//
// Shard SELECT results no longer materialize in one piece on the producer
// side: the shard plan drains into size-bounded, column-encoded chunks that
// travel through a credit-window channel. The producer blocks (a "stall")
// whenever the full window is in flight, so a slow coordinator backpressures
// the shard instead of letting it buffer an unbounded result. VARCHAR
// columns ride dictionary-coded (distinct strings once + minimal-width
// codes), which is where the wire wins over raw row shipping.

/// One wire unit of the exchange.
struct ExchangeChunk {
  std::string payload;   ///< column-encoded rows (EncodeExchangeBatch)
  size_t raw_bytes = 0;  ///< in-memory bytes this chunk decodes back to
  size_t rows = 0;
};

/// Bounded SPSC channel with credit-based backpressure. Push blocks while
/// `window` chunks are in flight; Close publishes the producer's terminal
/// status; Pop drains remaining chunks after Close before reporting it.
class ExchangeChannel {
 public:
  explicit ExchangeChannel(size_t window = 4)
      : window_(window == 0 ? 1 : window) {}

  /// Blocks until a credit frees up (counted as one stall), then enqueues.
  /// Chunks pushed after CancelConsumer are dropped without blocking.
  void Push(ExchangeChunk chunk);

  /// Producer-side terminal: no more chunks; `status` is the produce result.
  void Close(Status status);

  /// Consumer-side abort: unblocks and discards the producer's remaining
  /// pushes (decode error / cancelled query).
  void CancelConsumer();

  /// Returns true with the next chunk, or false when closed and drained
  /// (then *status receives the producer's terminal status).
  bool Pop(ExchangeChunk* chunk, Status* status);

  uint64_t stalls() const;
  size_t high_water() const;  ///< max chunks ever simultaneously in flight

 private:
  const size_t window_;
  mutable std::mutex mu_;
  std::condition_variable can_push_, can_pop_;
  std::deque<ExchangeChunk> queue_;
  bool closed_ = false;
  bool cancelled_ = false;
  Status status_;
  uint64_t stalls_ = 0;
  size_t high_water_ = 0;
};

/// Encodes rows [begin, end) of a compacted batch into the exchange wire
/// format: per column a type byte, optional null bytes, then 8-byte values
/// (integer-backed types and DOUBLE) or a string dictionary plus 1/2/4-byte
/// codes sized to the dictionary (VARCHAR).
std::string EncodeExchangeBatch(const RowBatch& rows, size_t begin,
                                size_t end);

/// Appends a chunk's rows onto `into` (columns must already exist with the
/// producing plan's output types).
Status DecodeExchangeBatch(const std::string& payload, RowBatch* into);

/// A distributed query's result plus per-shard timing.
struct MppQueryResult {
  QueryResult result;
  std::vector<double> shard_seconds;
  MppExecStats exec;
  /// Per-shard breakdown of `exec` for SELECT paths (empty for DDL/DML);
  /// EXPLAIN ANALYZE renders these as per-shard attempt/retry counters.
  std::vector<MppExecStats> shard_exec;
  /// Span tree for EXPLAIN ANALYZE: MppQuery -> Shard -> operator spans.
  /// Shards run concurrently, but their spans are added on the coordinator
  /// in shard order after every attempt has joined, and retries are
  /// decided there too, so ids are deterministic and the tree replays
  /// exactly under a fixed fault seed.
  std::shared_ptr<const Trace> trace;

  /// Modeled cluster wall-clock on `topo` (max over nodes of LPT schedule).
  double MakespanOn(const ClusterTopology& topo) const {
    return topo.Makespan(shard_seconds);
  }
};

class MppDatabase {
 public:
  /// `shards_per_node` shards per node ("several factors larger than the
  /// number of servers"), each shard backed by its own engine instance.
  MppDatabase(int nodes, int shards_per_node, int cores_per_node,
              size_t ram_per_node, EngineConfig shard_config = {});

  ClusterTopology* topology() { return &topo_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  Engine* shard_engine(int shard) { return shards_[shard].get(); }

  /// Creates a table on every shard. `replicated` tables receive full
  /// copies on every shard (dimension tables, enabling shard-local joins);
  /// otherwise rows hash-distribute on `schema.distribution_key()` (or
  /// round-robin when -1).
  Status CreateTable(const TableSchema& schema, bool replicated = false);

  /// Distributes a batch of rows into the shards.
  Status Load(const std::string& schema, const std::string& table,
              const RowBatch& rows);

  /// Executes a statement across the cluster.
  /// SELECT: runs shard-local plans and merges (two-phase aggregation for
  /// COUNT/SUM/MIN/MAX/AVG, coordinator-side ORDER BY/LIMIT).
  /// DDL/UPDATE/DELETE: broadcast. INSERT: routed by distribution key.
  Result<MppQueryResult> Execute(const std::string& sql);

  /// Governed execution: the statement runs under `qctx` (null makes a
  /// fresh ungoverned context). Cancel()/deadline/budget on the root stop
  /// shard-local plans at the next morsel boundary, abort the coordinator
  /// before the next dispatch round, and bound the merged-result memory;
  /// every SELECT shard attempt runs under a child of this root. Broadcast
  /// statements (DDL/DML/SET) check it once, before shard 0, so a CANCEL
  /// or timeout never lands between shards.
  Result<MppQueryResult> Execute(const std::string& sql,
                                 std::shared_ptr<QueryContext> qctx);

  /// Per-shard live row count of a table (balance checks).
  Result<std::vector<size_t>> ShardRowCounts(const std::string& schema,
                                             const std::string& table);

  /// Every table registered via CreateTable: (qualified name, replicated).
  std::vector<std::pair<std::string, bool>> ListDistributedTables() const {
    std::vector<std::pair<std::string, bool>> out;
    for (const auto& [name, rep] : replicated_) out.emplace_back(name, rep);
    return out;
  }

  /// Resilience knobs; adjust before Execute (not thread-safe mid-query).
  FailoverPolicy& failover_policy() { return fail_policy_; }

 private:
  /// One shard attempt's payload: SELECT paths fill batch/cols, the
  /// broadcast path fills qr. Each attempt owns its payload so concurrent
  /// (speculative) attempts never share output state.
  struct ShardAttemptOut {
    RowBatch batch;
    std::vector<OutputCol> cols;
    QueryResult qr;
    /// EXPLAIN ANALYZE payloads (filled when the shard fn runs analyzed):
    /// the annotated shard plan and its operator span tree.
    std::string analyzed_plan;
    std::shared_ptr<Trace> shard_trace;
  };
  struct AttemptResult {
    Status status;
    ShardAttemptOut out;
  };
  /// A re-executable shard task. MUST be safe to run concurrently for
  /// different shards (each touches only its own shard engine and session)
  /// and twice for one shard when `speculative` differs (fresh session on
  /// the speculative run).
  /// `qctx` is the attempt's governor (the dispatch round's child of the
  /// query root, or a per-attempt child of it under speculation): the fn
  /// attaches it to the shard-local plan so cancellation, deadlines, and
  /// budgets reach every morsel it runs.
  using ShardFn = std::function<Status(int shard, bool speculative,
                                       QueryContext* qctx,
                                       ShardAttemptOut* out)>;

  /// A re-executable bind+drain of one shard-local SELECT. Captures the
  /// statement by shared_ptr so re-executions stay valid; the
  /// speculative run binds against a fresh session (copying the primary
  /// session's optimizer settings). With `analyze` the fn also fills the
  /// attempt's analyzed_plan/shard_trace from the drained plan's operator
  /// metrics. `filters` are coordinator-built Bloom semi-join filters,
  /// installed on the binding session for the bind only.
  ShardFn MakeShardSelectFn(
      std::shared_ptr<ast::SelectStmt> stmt, bool analyze = false,
      std::shared_ptr<const std::vector<RuntimeScanFilter>> filters = nullptr);

  /// Cross-shard Bloom semi-join pushdown (DESIGN.md "Cost-based
  /// optimization"): for a join of a hash-distributed fact table with a
  /// locally-filtered replicated dimension, evaluate the dimension filter
  /// once on shard 0 (replicas are full copies), build a Bloom filter over
  /// the surviving join keys, and serialize it as it would ride in the
  /// shard request. Shard-local binders semi-filter the fact scan with it.
  /// Returns null when the query doesn't qualify; best-effort otherwise.
  std::shared_ptr<const std::vector<RuntimeScanFilter>> PrepareBloomPushdown(
      const ast::SelectStmt& sel);

  /// One shard's outcome from RunShards: the winning attempt's payload and
  /// wall time, plus what fault tolerance did for that shard.
  struct ShardRun {
    ShardAttemptOut out;
    MppExecStats stats;
    double seconds = 0;
  };

  /// The shard dispatcher: runs `fn` on each shard in `shards` under the
  /// failover policy, in rounds. A round probes the query governor,
  /// evaluates the mpp.shard_exec gate of every shard still owed an attempt
  /// in shard order, runs the attempts that passed concurrently (at most
  /// `cores` in flight per node, the rule ClusterTopology::Makespan models)
  /// under a child QueryContext, joins them, and only then does timeout
  /// classification, retry, failover and backoff on the calling thread.
  /// Fault hit indices therefore stay tied to (shard, attempt), and the
  /// topology and stats change on one thread in shard order. The first
  /// non-retryable error cancels in-flight siblings; the error returned is
  /// the lowest-index shard's own error, not a sibling's kCancelled.
  /// `idempotent` marks side-effect-free tasks (SELECT); non-idempotent
  /// tasks only retry gate failures and never consult the governor, since
  /// what a shard applied cannot be taken back (Broadcast probes it once,
  /// up front). `accept`, when set, runs on the worker thread as soon as an
  /// attempt succeeds (the merge charges its result against the query
  /// budget there); an error from it fails the attempt like any other.
  /// `runs` is resized to num_shards().
  using AcceptFn = std::function<Status(const ShardAttemptOut& out)>;
  Status RunShards(const std::vector<int>& shards, bool idempotent,
                   const ShardFn& fn, std::vector<ShardRun>* runs,
                   const AcceptFn& accept = nullptr);
  /// First-result-wins speculation: the primary attempt runs async under
  /// its own child of `parent`; if the speculative re-execution finishes
  /// first, the loser is actively cancelled through that context and
  /// joined before returning (it stops at its next morsel boundary), so no
  /// attempt ever outlives the Execute call that launched it.
  Status AttemptWithSpeculation(int shard, const ShardFn& fn,
                                QueryContext* parent, MppExecStats* stats,
                                ShardAttemptOut* out);

  Result<MppQueryResult> ExecSelect(const ast::SelectStmt& sel,
                                    bool analyze = false);
  /// Version stamps for the coordinator result cache: shard 0's catalog /
  /// stats / data versions (broadcast DDL, RUNSTATS, and broadcast DML all
  /// reach shard 0) plus the coordinator's own data counter (covers routed
  /// INSERTs and Loads that may skip shard 0 entirely).
  ResultCache::Versions CoordinatorVersions();
  Result<MppQueryResult> Broadcast(const std::string& sql);
  Result<MppQueryResult> RoutedInsert(const ast::Statement& st,
                                      const std::string& sql);
  int RouteRow(const TableSchema& schema, const std::vector<Value>& row);

  FailoverPolicy fail_policy_;
  /// The in-flight statement's root governor (the coordinator executes one
  /// statement at a time; set/cleared by the governed Execute overload).
  std::shared_ptr<QueryContext> query_ctx_;
  ClusterTopology topo_;
  std::vector<std::unique_ptr<Engine>> shards_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::map<std::string, bool> replicated_;  ///< qualified name -> replicated
  size_t round_robin_ = 0;
  /// Coordinator-level result cache (SET RESULT_CACHE ON): whole merged
  /// MppQueryResults keyed on statement text, stamped with
  /// CoordinatorVersions() so any write anywhere in the cluster invalidates.
  ResultCache result_cache_;
  std::atomic<uint64_t> data_version_{1};
  bool result_cache_enabled_ = false;
};

}  // namespace dashdb
