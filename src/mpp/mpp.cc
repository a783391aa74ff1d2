#include "mpp/mpp.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "common/fault_injector.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/sort_key.h"
#include "common/stopwatch.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace dashdb {

using ast::ExprKind;

namespace {
/// Fault points exercised by the resilience tests (tests/mpp_fault_test.cc)
/// and the failover drill. Evaluated on every shard attempt; free when
/// nothing is armed.
constexpr const char* kFaultShardExec = "mpp.shard_exec";
constexpr const char* kFaultShardStall = "mpp.shard_stall";

/// Registry mirrors of MppExecStats, resolved once per process.
struct MppInstruments {
  Counter* shard_attempts;
  Counter* shard_retries;
  Counter* failovers;
  Counter* timeouts;
  Counter* speculative_launches;
  Counter* speculative_wins;
  Counter* bloom_filters;  ///< cross-shard Bloom filters shipped
  Counter* bloom_bytes;    ///< serialized bytes of those filters
  Counter* exchange_chunks;            ///< shard->coordinator chunks shipped
  Counter* exchange_bytes;             ///< in-memory bytes those chunks decode to
  Counter* exchange_compressed_bytes;  ///< wire bytes actually shipped
  Counter* exchange_stalls;            ///< producer waits on a full window
  Counter* merge_streams;  ///< pre-sorted shard streams k-way merged
};

MppInstruments& GlobalMppInstruments() {
  auto& reg = MetricRegistry::Global();
  static MppInstruments in{
      reg.GetCounter("mpp.shard_attempts"),
      reg.GetCounter("mpp.shard_retries"),
      reg.GetCounter("mpp.failovers"),
      reg.GetCounter("mpp.timeouts"),
      reg.GetCounter("mpp.speculative_launches"),
      reg.GetCounter("mpp.speculative_wins"),
      reg.GetCounter("mpp.bloom_filters"),
      reg.GetCounter("mpp.bloom_bytes"),
      reg.GetCounter("mpp.exchange_chunks"),
      reg.GetCounter("mpp.exchange_bytes"),
      reg.GetCounter("mpp.exchange_compressed_bytes"),
      reg.GetCounter("mpp.exchange_stalls"),
      reg.GetCounter("mpp.merge_streams"),
  };
  return in;
}

/// AND-tree flattening (coordinator-side mirror of the binder's).
void SplitAndConjuncts(const ast::ExprP& e, std::vector<ast::ExprP>* out) {
  if (e && e->kind == ExprKind::kBinary && e->bin_op == ast::BinOp::kAnd) {
    SplitAndConjuncts(e->children[0], out);
    SplitAndConjuncts(e->children[1], out);
    return;
  }
  if (e) out->push_back(e);
}

/// Resolves one ORDER BY key to a select-list index: ordinals, output
/// names/aliases, bare column refs, and — the pushdown enabler — any
/// expression textually identical to a select item (e.g. ORDER BY V + C
/// when V + C is selected). Returns -1 when the key is none of these.
int ResolveOrderKeyIdx(const ast::OrderItem& oi, const ast::SelectStmt& sel) {
  const size_t n = sel.items.size();
  if (oi.ordinal > 0) {
    return oi.ordinal <= static_cast<int>(n) ? oi.ordinal - 1 : -1;
  }
  for (size_t c = 0; c < n; ++c) {
    const ast::SelectItem& item = sel.items[c];
    std::string name;
    if (!item.alias.empty()) {
      name = NormalizeIdent(item.alias);
    } else if (item.expr && (item.expr->kind == ExprKind::kColumnRef ||
                             item.expr->kind == ExprKind::kFuncCall)) {
      name = item.expr->name;
    } else {
      name = "EXPR_" + std::to_string(c + 1);
    }
    if (!oi.output_name.empty() && NormalizeIdent(oi.output_name) == name) {
      return static_cast<int>(c);
    }
    if (oi.expr && oi.expr->kind == ExprKind::kColumnRef &&
        oi.expr->name == name) {
      return static_cast<int>(c);
    }
  }
  if (oi.expr) {
    const std::string want = AstToString(oi.expr);
    for (size_t c = 0; c < n; ++c) {
      if (sel.items[c].expr && AstToString(sel.items[c].expr) == want) {
        return static_cast<int>(c);
      }
    }
  }
  return -1;
}

void CollectRefs(const ast::ExprP& e, std::vector<const ast::Expr*>* out) {
  if (!e) return;
  if (e->kind == ExprKind::kColumnRef) out->push_back(e.get());
  for (const auto& c : e->children) CollectRefs(c, out);
}

void FoldExecStats(const MppExecStats& s, MppExecStats* into) {
  into->shard_retries += s.shard_retries;
  into->failovers += s.failovers;
  into->timeouts += s.timeouts;
  into->speculative_launches += s.speculative_launches;
  into->speculative_wins += s.speculative_wins;
}

/// Indents a multi-line block (shard plans inside the combined report).
std::string Indent(const std::string& text, int spaces) {
  std::string pad(spaces, ' ');
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    if (nl > pos) out += pad + text.substr(pos, nl - pos) + "\n";
    pos = nl + 1;
  }
  return out;
}
}  // namespace

// --- flow-controlled exchange ----------------------------------------------

void ExchangeChannel::Push(ExchangeChunk chunk) {
  std::unique_lock<std::mutex> lk(mu_);
  if (queue_.size() >= window_ && !cancelled_) {
    ++stalls_;
    can_push_.wait(lk, [&] { return queue_.size() < window_ || cancelled_; });
  }
  if (cancelled_) return;  // consumer aborted: drop
  queue_.push_back(std::move(chunk));
  high_water_ = std::max(high_water_, queue_.size());
  can_pop_.notify_one();
}

void ExchangeChannel::Close(Status status) {
  std::lock_guard<std::mutex> lk(mu_);
  closed_ = true;
  status_ = std::move(status);
  can_pop_.notify_all();
}

void ExchangeChannel::CancelConsumer() {
  std::lock_guard<std::mutex> lk(mu_);
  cancelled_ = true;
  queue_.clear();
  can_push_.notify_all();
}

bool ExchangeChannel::Pop(ExchangeChunk* chunk, Status* status) {
  std::unique_lock<std::mutex> lk(mu_);
  can_pop_.wait(lk, [&] { return !queue_.empty() || closed_; });
  if (queue_.empty()) {
    *status = status_;
    return false;
  }
  *chunk = std::move(queue_.front());
  queue_.pop_front();
  can_push_.notify_one();
  return true;
}

uint64_t ExchangeChannel::stalls() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stalls_;
}

size_t ExchangeChannel::high_water() const {
  std::lock_guard<std::mutex> lk(mu_);
  return high_water_;
}

namespace {

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

bool GetU8(const std::string& in, size_t* pos, uint8_t* v) {
  if (*pos + 1 > in.size()) return false;
  *v = static_cast<uint8_t>(in[*pos]);
  *pos += 1;
  return true;
}

bool GetU32(const std::string& in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  std::memcpy(v, in.data() + *pos, 4);
  *pos += 4;
  return true;
}

bool GetU64(const std::string& in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  std::memcpy(v, in.data() + *pos, 8);
  *pos += 8;
  return true;
}

size_t DictCodeWidth(size_t dict_size) {
  if (dict_size <= 0xFF) return 1;
  if (dict_size <= 0xFFFF) return 2;
  return 4;
}

}  // namespace

std::string EncodeExchangeBatch(const RowBatch& rows, size_t begin,
                                size_t end) {
  std::string out;
  const uint32_t ncols = static_cast<uint32_t>(rows.columns.size());
  const uint32_t nrows = static_cast<uint32_t>(end - begin);
  PutU32(&out, ncols);
  PutU32(&out, nrows);
  for (const ColumnVector& col : rows.columns) {
    PutU8(&out, static_cast<uint8_t>(col.type()));
    bool any_null = false;
    for (size_t i = begin; i < end && !any_null; ++i) any_null = col.IsNull(i);
    PutU8(&out, any_null ? 1 : 0);
    if (any_null) {
      for (size_t i = begin; i < end; ++i) PutU8(&out, col.IsNull(i) ? 1 : 0);
    }
    if (col.type() == TypeId::kDouble) {
      for (size_t i = begin; i < end; ++i) {
        const double d = col.IsNull(i) ? 0.0 : col.GetDouble(i);
        char b[8];
        std::memcpy(b, &d, 8);
        out.append(b, 8);
      }
    } else if (col.type() == TypeId::kVarchar) {
      // Dictionary coding: each distinct string ships once, rows ship as
      // minimal-width codes. Repetitive columns (dimension attributes,
      // status fields) collapse to near-nothing on the wire.
      std::unordered_map<std::string, uint32_t> dict;
      std::vector<const std::string*> entries;
      std::vector<uint32_t> codes;
      codes.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        if (col.IsNull(i)) {
          codes.push_back(0);  // masked by the null byte on decode
          continue;
        }
        const std::string& s = col.GetString(i);
        auto [it, inserted] =
            dict.emplace(s, static_cast<uint32_t>(entries.size()));
        if (inserted) entries.push_back(&it->first);
        codes.push_back(it->second);
      }
      PutU32(&out, static_cast<uint32_t>(entries.size()));
      for (const std::string* s : entries) {
        PutU32(&out, static_cast<uint32_t>(s->size()));
        out.append(*s);
      }
      const size_t width = DictCodeWidth(entries.size());
      PutU8(&out, static_cast<uint8_t>(width));
      for (uint32_t c : codes) {
        char b[4];
        std::memcpy(b, &c, 4);
        out.append(b, width);
      }
    } else {
      for (size_t i = begin; i < end; ++i) {
        const int64_t v = col.IsNull(i) ? 0 : col.GetInt(i);
        PutU64(&out, static_cast<uint64_t>(v));
      }
    }
  }
  return out;
}

Status DecodeExchangeBatch(const std::string& payload, RowBatch* into) {
  size_t pos = 0;
  uint32_t ncols = 0, nrows = 0;
  if (!GetU32(payload, &pos, &ncols) || !GetU32(payload, &pos, &nrows)) {
    return Status::Internal("exchange chunk: truncated header");
  }
  if (ncols != into->columns.size()) {
    return Status::Internal("exchange chunk: column count mismatch");
  }
  for (uint32_t c = 0; c < ncols; ++c) {
    ColumnVector& col = into->columns[c];
    uint8_t type_byte = 0, any_null = 0;
    if (!GetU8(payload, &pos, &type_byte) ||
        !GetU8(payload, &pos, &any_null)) {
      return Status::Internal("exchange chunk: truncated column header");
    }
    if (static_cast<TypeId>(type_byte) != col.type()) {
      return Status::Internal("exchange chunk: column type mismatch");
    }
    std::vector<uint8_t> nulls;
    if (any_null) {
      nulls.resize(nrows);
      for (uint32_t i = 0; i < nrows; ++i) {
        if (!GetU8(payload, &pos, &nulls[i])) {
          return Status::Internal("exchange chunk: truncated null bytes");
        }
      }
    }
    if (col.type() == TypeId::kDouble) {
      for (uint32_t i = 0; i < nrows; ++i) {
        if (pos + 8 > payload.size()) {
          return Status::Internal("exchange chunk: truncated doubles");
        }
        double d;
        std::memcpy(&d, payload.data() + pos, 8);
        pos += 8;
        if (any_null && nulls[i]) {
          col.AppendNull();
        } else {
          col.AppendDouble(d);
        }
      }
    } else if (col.type() == TypeId::kVarchar) {
      uint32_t ndict = 0;
      if (!GetU32(payload, &pos, &ndict)) {
        return Status::Internal("exchange chunk: truncated dictionary");
      }
      std::vector<std::string> dict(ndict);
      for (uint32_t d = 0; d < ndict; ++d) {
        uint32_t len = 0;
        if (!GetU32(payload, &pos, &len) || pos + len > payload.size()) {
          return Status::Internal("exchange chunk: truncated dict entry");
        }
        dict[d].assign(payload, pos, len);
        pos += len;
      }
      uint8_t width = 0;
      if (!GetU8(payload, &pos, &width) ||
          (width != 1 && width != 2 && width != 4)) {
        return Status::Internal("exchange chunk: bad code width");
      }
      for (uint32_t i = 0; i < nrows; ++i) {
        if (pos + width > payload.size()) {
          return Status::Internal("exchange chunk: truncated codes");
        }
        uint32_t code = 0;
        std::memcpy(&code, payload.data() + pos, width);
        pos += width;
        if (any_null && nulls[i]) {
          col.AppendNull();
          continue;
        }
        if (code >= ndict) {
          return Status::Internal("exchange chunk: code out of range");
        }
        col.AppendString(dict[code]);
      }
    } else {
      for (uint32_t i = 0; i < nrows; ++i) {
        uint64_t v = 0;
        if (!GetU64(payload, &pos, &v)) {
          return Status::Internal("exchange chunk: truncated ints");
        }
        if (any_null && nulls[i]) {
          col.AppendNull();
        } else {
          col.AppendInt(static_cast<int64_t>(v));
        }
      }
    }
  }
  if (pos != payload.size()) {
    return Status::Internal("exchange chunk: trailing bytes");
  }
  return Status::OK();
}

MppDatabase::MppDatabase(int nodes, int shards_per_node, int cores_per_node,
                         size_t ram_per_node, EngineConfig shard_config)
    : topo_(nodes, shards_per_node, cores_per_node, ram_per_node) {
  for (int s = 0; s < topo_.num_shards(); ++s) {
    shards_.push_back(std::make_unique<Engine>(shard_config));
    sessions_.push_back(shards_.back()->CreateSession());
  }
}

Status MppDatabase::CreateTable(const TableSchema& schema, bool replicated) {
  for (auto& shard : shards_) {
    if (schema.organization() == TableOrganization::kRow) {
      DASHDB_ASSIGN_OR_RETURN(auto t, shard->CreateRowTable(schema));
      (void)t;
    } else {
      DASHDB_ASSIGN_OR_RETURN(auto t, shard->CreateColumnTable(schema));
      (void)t;
    }
  }
  replicated_[NormalizeIdent(schema.schema_name()) + "." +
              NormalizeIdent(schema.table_name())] = replicated;
  data_version_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

int MppDatabase::RouteRow(const TableSchema& schema,
                          const std::vector<Value>& row) {
  int key = schema.distribution_key();
  if (key < 0) {
    return static_cast<int>(round_robin_++ % shards_.size());
  }
  const Value& v = row[key];
  uint64_t h = v.is_null() ? 0
               : v.type() == TypeId::kVarchar
                   ? HashString(v.AsString())
                   : HashInt64(static_cast<uint64_t>(v.AsInt()));
  return static_cast<int>(h % shards_.size());
}

Status MppDatabase::Load(const std::string& schema, const std::string& table,
                         const RowBatch& rows) {
  data_version_.fetch_add(1, std::memory_order_release);
  std::string key = NormalizeIdent(schema) + "." + NormalizeIdent(table);
  auto rep = replicated_.find(key);
  bool replicate = rep != replicated_.end() && rep->second;
  DASHDB_ASSIGN_OR_RETURN(auto entry, shards_[0]->GetTable(schema, table));
  const TableSchema& ts = entry->schema;

  auto append_to = [&](int shard, const RowBatch& batch) -> Status {
    DASHDB_ASSIGN_OR_RETURN(auto e, shards_[shard]->GetTable(schema, table));
    auto col = std::dynamic_pointer_cast<ColumnTable>(e->storage);
    auto row = std::dynamic_pointer_cast<RowTable>(e->storage);
    if (col) return col->Append(batch);
    if (row) return row->Append(batch);
    return Status::InvalidArgument("table has no local shard storage "
                                   "(nickname or view?)");
  };

  if (replicate) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      DASHDB_RETURN_IF_ERROR(append_to(static_cast<int>(s), rows));
    }
    return Status::OK();
  }
  // Partition rows per shard, then bulk-append.
  std::vector<RowBatch> parts(shards_.size());
  for (auto& p : parts) {
    for (int c = 0; c < ts.num_columns(); ++c) {
      p.columns.emplace_back(ts.column(c).type);
    }
  }
  // Route straight off the key column — no per-row Value boxing.
  const size_t n = rows.num_rows();
  const int key_col = ts.distribution_key();
  const ColumnVector* kc = key_col >= 0 ? &rows.columns[key_col] : nullptr;
  for (size_t i = 0; i < n; ++i) {
    int shard;
    if (!kc) {
      shard = static_cast<int>(round_robin_++ % shards_.size());
    } else if (kc->IsNull(i)) {
      shard = 0;
    } else if (kc->type() == TypeId::kVarchar) {
      shard = static_cast<int>(HashString(kc->GetString(i)) % shards_.size());
    } else {
      const uint64_t h = kc->type() == TypeId::kDouble
                             ? HashInt64(static_cast<uint64_t>(
                                   kc->GetValue(i).AsInt()))
                             : HashInt64(static_cast<uint64_t>(kc->GetInt(i)));
      shard = static_cast<int>(h % shards_.size());
    }
    for (int c = 0; c < ts.num_columns(); ++c) {
      parts[shard].columns[c].AppendFrom(rows.columns[c], i);
    }
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (parts[s].num_rows() > 0) {
      DASHDB_RETURN_IF_ERROR(append_to(static_cast<int>(s), parts[s]));
    }
  }
  return Status::OK();
}

Status MppDatabase::AttemptWithSpeculation(int shard, const ShardFn& fn,
                                           QueryContext* parent,
                                           MppExecStats* stats,
                                           ShardAttemptOut* out) {
  // The primary runs under its own child of the round context: a winning
  // speculative attempt cancels the loser through this context and it
  // stops at its next morsel boundary, so every attempt is joined before
  // this call returns (no abandoned futures, sessions are always idle for
  // the next statement).
  QueryContext primary_ctx(parent);
  auto primary = std::async(std::launch::async, [&fn, &primary_ctx, shard] {
    AttemptResult r;
    r.status = fn(shard, /*speculative=*/false, &primary_ctx, &r.out);
    return r;
  });
  auto window =
      std::chrono::duration<double>(fail_policy_.straggler_after_seconds);
  if (primary.wait_for(window) == std::future_status::ready) {
    AttemptResult r = primary.get();
    *out = std::move(r.out);
    return r.status;
  }
  // Straggler: re-execute on the calling thread with a fresh session.
  ++stats->speculative_launches;
  GlobalMppInstruments().speculative_launches->Add(1);
  ShardAttemptOut spec;
  QueryContext spec_ctx(parent);
  Status spec_st = fn(shard, /*speculative=*/true, &spec_ctx, &spec);
  if (spec_st.ok()) {
    // First result wins; actively cancel the straggling primary and join
    // it (its result — typically kCancelled — is discarded).
    if (primary.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++stats->speculative_wins;
      GlobalMppInstruments().speculative_wins->Add(1);
      primary_ctx.Cancel();
    }
    primary.wait();
    *out = std::move(spec);
    return Status::OK();
  }
  // Speculation failed; fall back to whatever the primary produces.
  AttemptResult r = primary.get();
  *out = std::move(r.out);
  return r.status;
}

Status MppDatabase::RunShards(const std::vector<int>& shards,
                              bool idempotent, const ShardFn& fn,
                              std::vector<ShardRun>* runs,
                              const AcceptFn& accept) {
  FaultInjector& fault = FaultInjector::Global();
  const FailoverPolicy& pol = fail_policy_;
  // Only side-effect-free tasks answer to the governor once dispatch has
  // begun: cancelling a broadcast between shards would leave a statement
  // applied on some shards and not on the others.
  QueryContext* const governor = idempotent ? query_ctx_.get() : nullptr;
  runs->assign(shards_.size(), ShardRun{});
  // Per-shard state of its latest attempt.
  struct Slot {
    int attempt = 0;
    int node = 0;  ///< owner when dispatched: the node the attempt ran on
    bool gate_failed = false;
    Status status;
  };
  std::vector<Slot> slots(shards_.size());
  std::vector<int> pending = shards;
  // Retryability of one failed attempt. A governed abort (CANCEL or
  // statement timeout on the query root) must surface, never be retried —
  // even though kTimeout is transient for shard-budget timeouts.
  auto retryable = [&](const Slot& slot) {
    const bool governed = governor != nullptr && governor->cancelled();
    return slot.status.IsTransient() && (slot.gate_failed || idempotent) &&
           !governed && slot.attempt < pol.max_attempts_per_shard;
  };
  while (!pending.empty()) {
    if (governor != nullptr) DASHDB_RETURN_IF_ERROR(governor->CheckAlive());
    // Every attempt of this round runs under `round`: the first
    // non-retryable error cancels it, which stops in-flight siblings at
    // their next morsel boundary.
    QueryContext round(governor);
    struct Lane {
      std::vector<int> shards;  // shard order
      std::atomic<size_t> next{0};
    };
    std::map<int, Lane> lanes;  // node -> its dispatchable shards
    // Gate: "the node just died under you". Evaluated here, in shard
    // order, so hit indices map to (shard, attempt) whatever the thread
    // interleaving; it fires before the attempt does anything, so a gate
    // failure is retryable even for DML. A fatal gate failure ends the
    // query, so nothing of this round is dispatched after it.
    bool gate_fatal = false;
    for (int s : pending) {
      Slot& slot = slots[s];
      ++slot.attempt;
      GlobalMppInstruments().shard_attempts->Add(1);
      slot.node = topo_.OwnerOf(s);
      slot.status = fault.Evaluate(kFaultShardExec);
      slot.gate_failed = !slot.status.ok();
      if (slot.status.ok()) {
        lanes[slot.node].shards.push_back(s);
      } else if (!retryable(slot)) {
        gate_fatal = true;
      }
    }
    if (gate_fatal) lanes.clear();
    auto run_attempt = [&](int s) {
      Slot& slot = slots[s];
      ShardRun& run = (*runs)[s];
      run.out = ShardAttemptOut{};
      Stopwatch sw;
      Status st = idempotent && pol.straggler_after_seconds >= 0
                      ? AttemptWithSpeculation(s, fn, &round, &run.stats,
                                               &run.out)
                      : fn(s, /*speculative=*/false, &round, &run.out);
      run.seconds = sw.ElapsedSeconds();
      if (st.ok() && idempotent && run.seconds > pol.shard_timeout_seconds) {
        // Post-hoc budget check: the deterministic plan makes discarding a
        // late result and re-executing safe (and byte-identical).
        ++run.stats.timeouts;
        GlobalMppInstruments().timeouts->Add(1);
        st = Status::Timeout("shard attempt took " +
                             std::to_string(run.seconds) + "s (budget " +
                             std::to_string(pol.shard_timeout_seconds) +
                             "s)");
      }
      if (st.ok() && accept) st = accept(run.out);
      slot.status = std::move(st);
      if (!slot.status.ok() && !retryable(slot)) round.Cancel();
    };
    // Each node works through its shards with at most `cores` attempts in
    // flight; a lone attempt runs on the calling thread.
    std::vector<std::function<void()>> workers;
    for (auto& [node, lane] : lanes) {
      const size_t width = std::min<size_t>(
          lane.shards.size(),
          static_cast<size_t>(std::max(1, topo_.node(node).cores)));
      for (size_t w = 0; w < width; ++w) {
        workers.push_back([&run_attempt, &lane] {
          for (;;) {
            const size_t i = lane.next.fetch_add(1);
            if (i >= lane.shards.size()) return;
            run_attempt(lane.shards[i]);
          }
        });
      }
    }
    if (workers.size() == 1) {
      workers[0]();
    } else {
      // Joined when this scope ends, on every path.
      std::vector<std::jthread> threads(workers.begin(), workers.end());
    }
    // Fold in shard order on this thread: the lowest-index shard's own
    // error wins over a sibling's kCancelled (induced by the round cancel
    // or by a deadline another shard tripped first).
    const Status* fatal = nullptr;
    std::vector<int> retry;
    double backoff = 0;
    for (int s : pending) {
      Slot& slot = slots[s];
      if (slot.status.ok()) continue;
      slot.status = slot.status.WithContext(
          "shard " + std::to_string(s) + " (node " +
          std::to_string(slot.node) + ")");
      if (!retryable(slot)) {
        if (fatal == nullptr ||
            (fatal->IsCancelled() && !slot.status.IsCancelled())) {
          fatal = &slot.status;
        }
        continue;
      }
      retry.push_back(s);
      ShardRun& run = (*runs)[s];
      ++run.stats.shard_retries;
      GlobalMppInstruments().shard_retries->Add(1);
      if (slot.status.IsUnavailable() && pol.failover_on_unavailable) {
        // Model the paper's II.E response: mark the node the attempt ran
        // on dead, reassociate its shards across survivors, then
        // re-execute only the victims. The shard's file set lives on the
        // clustered FS, so the retry IS a survivor running the
        // reassociated shard.
        if (topo_.IsAlive(slot.node) && topo_.num_alive_nodes() > 1 &&
            topo_.FailNode(slot.node).ok()) {
          ++run.stats.failovers;
          GlobalMppInstruments().failovers->Add(1);
        }
      }
      // Bounded exponential backoff; jitter is a pure function of
      // (injector seed, shard, attempt) so schedules replay exactly. The
      // victims back off side by side, so the round waits for the longest.
      double delay = pol.backoff_base_seconds *
                     static_cast<double>(uint64_t{1} << (slot.attempt - 1));
      delay = std::min(delay, pol.backoff_max_seconds);
      Rng jitter(fault.seed() ^ (static_cast<uint64_t>(s) << 32) ^
                 static_cast<uint64_t>(slot.attempt));
      backoff = std::max(backoff, delay * (0.5 + 0.5 * jitter.NextDouble()));
    }
    if (fatal != nullptr) return *fatal;
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
    pending = std::move(retry);
  }
  return Status::OK();
}

Result<MppQueryResult> MppDatabase::Broadcast(const std::string& sql) {
  MppQueryResult out;
  out.shard_seconds.resize(shards_.size(), 0);
  ShardFn fn = [this, sql](int shard, bool /*speculative*/,
                           QueryContext* /*qctx*/,
                           ShardAttemptOut* o) -> Status {
    DASHDB_RETURN_IF_ERROR(FaultInjector::Global().Evaluate(kFaultShardStall));
    DASHDB_ASSIGN_OR_RETURN(
        o->qr, shards_[shard]->Execute(sessions_[shard].get(), sql));
    return Status::OK();
  };
  // All or nothing under the governor: CANCEL or a statement timeout is
  // honoured here, before shard 0, and never between shards.
  if (query_ctx_ != nullptr) DASHDB_RETURN_IF_ERROR(query_ctx_->CheckAlive());
  // Serial on purpose: a DDL/DML statement that fails on shard k must not
  // have run on shards after it, so each shard is its own dispatch.
  std::vector<ShardRun> runs;
  for (int s = 0; s < num_shards(); ++s) {
    DASHDB_RETURN_IF_ERROR(RunShards({s}, /*idempotent=*/false, fn, &runs));
    FoldExecStats(runs[s].stats, &out.exec);
    out.result = std::move(runs[s].out.qr);
    out.shard_seconds[s] = runs[s].seconds;
  }
  return out;
}

Result<MppQueryResult> MppDatabase::RoutedInsert(const ast::Statement& st,
                                                 const std::string& sql) {
  std::string schema = st.target_schema.empty() ? "PUBLIC" : st.target_schema;
  std::string key =
      NormalizeIdent(schema) + "." + NormalizeIdent(st.target_table);
  auto rep = replicated_.find(key);
  if ((rep != replicated_.end() && rep->second) || st.select ||
      !st.insert_columns.empty()) {
    // Replicated targets, INSERT..SELECT, and column-subset inserts run on
    // every shard (the engine resolves shard-local sources); distributed
    // correctness for INSERT..SELECT relies on shard-local source data.
    return Broadcast(sql);
  }
  DASHDB_ASSIGN_OR_RETURN(auto entry,
                          shards_[0]->GetTable(schema, st.target_table));
  const TableSchema& ts = entry->schema;
  // Evaluate literal rows and route each to its shard.
  MppQueryResult out;
  out.shard_seconds.resize(shards_.size(), 0);
  int64_t affected = 0;
  for (const auto& ast_row : st.insert_rows) {
    if (static_cast<int>(ast_row.size()) != ts.num_columns()) {
      return Status::SemanticError("INSERT row width mismatch");
    }
    std::vector<Value> row;
    Binder binder(shards_[0]->catalog(), sessions_[0].get());
    for (size_t c = 0; c < ast_row.size(); ++c) {
      DASHDB_ASSIGN_OR_RETURN(ExprPtr bound,
                              binder.BindScalar(ast_row[c], {}));
      RowBatch empty;
      DASHDB_ASSIGN_OR_RETURN(
          Value v, bound->EvaluateRow(empty, 0, sessions_[0]->exec_ctx()));
      DASHDB_ASSIGN_OR_RETURN(v, v.CastTo(ts.column(c).type));
      row.push_back(std::move(v));
    }
    int shard = RouteRow(ts, row);
    DASHDB_ASSIGN_OR_RETURN(auto e,
                            shards_[shard]->GetTable(schema, st.target_table));
    auto col = std::dynamic_pointer_cast<ColumnTable>(e->storage);
    auto rtab = std::dynamic_pointer_cast<RowTable>(e->storage);
    Stopwatch sw;
    if (col) {
      DASHDB_RETURN_IF_ERROR(col->AppendRow(row));
    } else if (rtab) {
      DASHDB_RETURN_IF_ERROR(rtab->AppendRow(row));
    }
    out.shard_seconds[shard] += sw.ElapsedSeconds();
    ++affected;
  }
  out.result.affected_rows = affected;
  out.result.message = "INSERTED " + std::to_string(affected);
  return out;
}

namespace {

/// Merge operation for one partial-aggregate column.
enum class MergeOp : uint8_t { kSum, kMin, kMax };

/// One original select item in an aggregate query.
struct FinalItem {
  enum Kind { kGroup, kAggDirect, kAvg } kind = kGroup;
  int group_idx = 0;     // kGroup: which group column
  int partial_idx = 0;   // kAggDirect: merged partial column
  int sum_idx = 0, count_idx = 0;  // kAvg
};

/// Coordinator-side memory accounting: merged shard results are charged to
/// the query root's budget (the coordinator materializes every shard's
/// output) and released in one piece when merging finishes.
struct MergeCharge {
  QueryContext* qc = nullptr;
  std::atomic<int64_t> bytes{0};  // shard workers charge concurrently
  Status Add(int64_t b, const char* what) {
    if (qc == nullptr || b <= 0) return Status::OK();
    DASHDB_RETURN_IF_ERROR(qc->Charge(b, what));
    bytes += b;
    return Status::OK();
  }
  ~MergeCharge() {
    if (qc != nullptr && bytes > 0) qc->Release(bytes);
  }
};

bool IsSimpleAgg(const ast::ExprP& e) {
  if (e->kind != ExprKind::kFuncCall) return false;
  AggKind k;
  if (!AggKindFromName(e->name, &k)) return false;
  switch (k) {
    case AggKind::kCount:
    case AggKind::kCountStar:
    case AggKind::kSum:
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kAvg:
      return true;
    default:
      return false;
  }
}

}  // namespace

Result<MppQueryResult> MppDatabase::ExecSelect(const ast::SelectStmt& sel,
                                               bool analyze) {
  // Detect aggregation.
  bool has_agg = !sel.group_by.empty();
  for (const auto& item : sel.items) {
    if (item.expr->kind == ExprKind::kFuncCall) {
      AggKind k;
      if (AggKindFromName(item.expr->name, &k)) has_agg = true;
    }
  }
  MppQueryResult out;
  out.shard_seconds.resize(shards_.size(), 0);
  out.shard_exec.resize(shards_.size());
  // EXPLAIN ANALYZE state: the coordinator's span tree (shard spans are
  // added in shard order after the dispatch round joins, so span ids are
  // deterministic) plus the per-shard annotated plans for the combined
  // report.
  std::shared_ptr<Trace> trace;
  uint32_t root_span = 0;
  std::vector<std::string> shard_plans(shards_.size());
  if (analyze) {
    trace = std::make_shared<Trace>();
    root_span = trace->AddSpan("MppQuery", Trace::kNoParent);
  }
  // Runs one shard-local plan on every shard through the dispatcher, then
  // folds each shard's timing, stats, and trace span in shard order. Each
  // shard's result is charged to the merge as soon as its attempt
  // succeeds, so a breach cancels the siblings still running instead of
  // holding every shard's result before the budget sees one.
  MergeCharge mem{query_ctx_.get()};
  auto run_shards = [&](const ShardFn& fn, const char* what,
                        std::vector<ShardRun>* runs) -> Status {
    std::vector<int> all(shards_.size());
    for (size_t s = 0; s < all.size(); ++s) all[s] = static_cast<int>(s);
    DASHDB_RETURN_IF_ERROR(RunShards(
        all, /*idempotent=*/true, fn, runs,
        [&mem, what](const ShardAttemptOut& o) {
          return mem.Add(BatchMemoryBytes(o.batch), what);
        }));
    for (size_t s = 0; s < all.size(); ++s) {
      ShardRun& run = (*runs)[s];
      const MppExecStats& sstats = run.stats;
      out.shard_seconds[s] = run.seconds;
      out.shard_exec[s] = sstats;
      FoldExecStats(sstats, &out.exec);
      if (!analyze) continue;
      uint32_t sid = trace->AddSpan("Shard", root_span);
      TraceSpan& ss = trace->span(sid);
      ss.rows = run.out.batch.num_rows();
      ss.wall_seconds = run.seconds;
      ss.attrs["shard"] = static_cast<int64_t>(s);
      ss.attrs["attempts"] = static_cast<int64_t>(1 + sstats.shard_retries);
      if (sstats.shard_retries) {
        ss.attrs["retries"] = static_cast<int64_t>(sstats.shard_retries);
      }
      if (sstats.failovers) {
        ss.attrs["failovers"] = static_cast<int64_t>(sstats.failovers);
      }
      if (sstats.speculative_launches) {
        ss.attrs["spec_launches"] =
            static_cast<int64_t>(sstats.speculative_launches);
        ss.attrs["spec_wins"] = static_cast<int64_t>(sstats.speculative_wins);
      }
      if (run.out.shard_trace) trace->Graft(*run.out.shard_trace, sid);
      shard_plans[s] = std::move(run.out.analyzed_plan);
    }
    return Status::OK();
  };
  // Assembles the combined report once the merged result cardinality is
  // known: cluster header, per-shard counters, indented shard plans.
  auto finish_analyze = [&]() {
    if (!analyze) return;
    uint64_t rows = out.result.rows.num_rows();
    std::string msg =
        "EXPLAIN ANALYZE (mpp shards=" + std::to_string(shards_.size()) +
        ", alive_nodes=" + std::to_string(topo_.num_alive_nodes()) +
        ", rows=" + std::to_string(rows) + ")\n";
    for (size_t s = 0; s < shards_.size(); ++s) {
      const MppExecStats& st = out.shard_exec[s];
      msg += "Shard " + std::to_string(s) + " (node " +
             std::to_string(topo_.OwnerOf(s)) +
             "): attempts=" + std::to_string(1 + st.shard_retries);
      if (st.shard_retries) {
        msg += " retries=" + std::to_string(st.shard_retries);
      }
      if (st.failovers) msg += " failovers=" + std::to_string(st.failovers);
      if (st.timeouts) msg += " timeouts=" + std::to_string(st.timeouts);
      if (st.speculative_launches) {
        msg += " spec_launches=" + std::to_string(st.speculative_launches) +
               " spec_wins=" + std::to_string(st.speculative_wins);
      }
      msg += "\n" + Indent(shard_plans[s], 2);
    }
    out.result.message = std::move(msg);
    trace->span(root_span).rows = rows;
    out.trace = trace;
  };

  // Cross-shard Bloom semi-join pushdown (best effort; null when the query
  // doesn't qualify). Both SELECT paths hand the filters to the shard fn.
  std::shared_ptr<const std::vector<RuntimeScanFilter>> bloom_filters =
      PrepareBloomPushdown(sel);

  if (!has_agg) {
    bool has_star = false;
    for (const auto& item : sel.items) {
      if (item.expr && item.expr->kind == ExprKind::kStar) has_star = true;
    }
    // Pre-execution ORDER BY resolution against the select list. When every
    // key resolves (star expansion hides the output indices, so star
    // queries keep the legacy gather+re-sort), the ORDER BY — plus a LIMIT
    // inflated by the offset — ships into the shard-local plans, and the
    // coordinator k-way merges the pre-sorted shard streams instead of
    // re-sorting the whole union.
    std::vector<std::pair<int, bool>> ord_keys;  // select-item idx, desc
    bool push_sort = false;
    if (!sel.order_by.empty() && !has_star) {
      for (const auto& oi : sel.order_by) {
        int idx = ResolveOrderKeyIdx(oi, sel);
        if (idx < 0) {
          return Status::Unimplemented(
              "MPP ORDER BY supports output columns, ordinals, and "
              "select-list expressions");
        }
        ord_keys.emplace_back(idx, oi.desc);
      }
      push_sort = true;
    }
    auto shard_sel = std::make_shared<ast::SelectStmt>(sel);
    shard_sel->offset = 0;
    if (!push_sort) shard_sel->order_by.clear();
    // A shard truncated to its first limit+offset rows still contains every
    // row a global prefix of limit+offset can draw from it, so LIMIT pushes
    // down whenever the shard stream order is the one the prefix is taken
    // in — sorted (push_sort) or plain concatenation order.
    if ((push_sort || sel.order_by.empty()) && sel.limit >= 0) {
      shard_sel->limit = sel.limit + sel.offset;
    } else {
      shard_sel->limit = -1;
    }
    std::vector<ShardRun> runs;
    DASHDB_RETURN_IF_ERROR(
        run_shards(MakeShardSelectFn(shard_sel, analyze, bloom_filters),
                   "MPP result assembly", &runs));
    const std::vector<OutputCol> cols = runs[0].out.cols;
    RowBatch merged;                      // legacy concatenation
    std::vector<RowBatch> shard_batches;  // push_sort: one stream per shard
    for (const auto& c : cols) merged.columns.emplace_back(c.type);
    for (ShardRun& run : runs) {
      if (push_sort) {
        shard_batches.push_back(std::move(run.out.batch));
        continue;
      }
      const RowBatch& batch = run.out.batch;
      for (size_t i = 0; i < batch.num_rows(); ++i) {
        for (size_t c = 0; c < batch.columns.size(); ++c) {
          merged.columns[c].AppendFrom(batch.columns[c], i);
        }
      }
      run.out.batch = RowBatch{};  // drop each shard stream once appended
    }
    out.result.columns = cols;
    if (push_sort) {
      // Streaming k-way merge over the pre-sorted shard streams. Shard
      // sorts are stable, and key ties break on the shard index, so the
      // output is byte-identical to concatenating the unsorted streams in
      // shard order and stable-sorting globally.
      const size_t S = shard_batches.size();
      std::vector<bool> desc;
      for (const auto& [idx, d] : ord_keys) desc.push_back(d);
      std::vector<NormalizedKeyColumn> keys(S);
      int64_t key_bytes = 0;
      for (size_t s = 0; s < S; ++s) {
        std::vector<const ColumnVector*> kc;
        for (const auto& [idx, d] : ord_keys) {
          kc.push_back(&shard_batches[s].columns[idx]);
        }
        keys[s].Build(kc, desc, 0, shard_batches[s].num_rows());
        key_bytes += static_cast<int64_t>(keys[s].byte_size());
      }
      DASHDB_RETURN_IF_ERROR(mem.Add(key_bytes, "MPP merge keys"));
      GlobalMppInstruments().merge_streams->Add(static_cast<int64_t>(S));
      std::vector<size_t> pos(S, 0);
      auto alive = [&](size_t s) {
        return pos[s] < shard_batches[s].num_rows();
      };
      auto wins = [&](size_t a, size_t b) {
        int c = keys[a].Compare(pos[a], keys[b], pos[b]);
        return c != 0 ? c < 0 : a < b;
      };
      TournamentTree tree;
      tree.Init(S, wins, alive);
      RowBatch sorted;
      for (const auto& c : cols) sorted.columns.emplace_back(c.type);
      const int64_t want =
          sel.limit < 0 ? -1 : sel.limit + static_cast<int64_t>(sel.offset);
      int64_t popped = 0;
      size_t since_probe = 0;
      for (;;) {
        if (want >= 0 && popped >= want) break;  // prefix satisfied: stop
        const int w = tree.winner();
        if (w < 0) break;
        if (popped >= static_cast<int64_t>(sel.offset)) {
          for (size_t c = 0; c < cols.size(); ++c) {
            sorted.columns[c].AppendFrom(shard_batches[w].columns[c],
                                         pos[w]);
          }
        }
        ++pos[w];
        ++popped;
        tree.Replay(static_cast<size_t>(w), wins, alive);
        if (query_ctx_ != nullptr && ++since_probe >= 2048) {
          since_probe = 0;
          DASHDB_RETURN_IF_ERROR(query_ctx_->CheckAlive());
        }
      }
      out.result.rows = std::move(sorted);
      out.result.affected_rows =
          static_cast<int64_t>(out.result.rows.num_rows());
      finish_analyze();
      return out;
    }
    out.result.rows = std::move(merged);
    if (!sel.order_by.empty()) {
      // Star-expansion fallback: gather everything, resolve against the
      // shard output columns, re-sort globally (the pre-PR path).
      std::vector<uint32_t> order(out.result.rows.num_rows());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::vector<std::pair<int, bool>> keys;  // col idx, desc
      for (const auto& oi : sel.order_by) {
        int idx = -1;
        if (oi.ordinal > 0) {
          idx = oi.ordinal - 1;
        } else if (oi.expr && oi.expr->kind == ExprKind::kColumnRef) {
          for (size_t c = 0; c < cols.size(); ++c) {
            if (NormalizeIdent(cols[c].name) == oi.expr->name) {
              idx = static_cast<int>(c);
            }
          }
        }
        if (idx < 0) {
          return Status::Unimplemented(
              "MPP ORDER BY supports output columns, ordinals, and "
              "select-list expressions");
        }
        keys.emplace_back(idx, oi.desc);
      }
      const RowBatch& rb = out.result.rows;
      std::stable_sort(order.begin(), order.end(),
                       [&](uint32_t a, uint32_t b) {
                         for (auto [c, desc] : keys) {
                           int cmp = rb.columns[c].GetValue(a).Compare(
                               rb.columns[c].GetValue(b));
                           if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
                         }
                         return false;
                       });
      RowBatch sorted;
      for (const auto& c : cols) sorted.columns.emplace_back(c.type);
      int64_t limit = sel.limit < 0
                          ? static_cast<int64_t>(order.size())
                          : sel.limit;
      for (size_t i = sel.offset;
           i < order.size() &&
           static_cast<int64_t>(sorted.num_rows()) < limit;
           ++i) {
        for (size_t c = 0; c < cols.size(); ++c) {
          sorted.columns[c].AppendFrom(out.result.rows.columns[c], order[i]);
        }
      }
      out.result.rows = std::move(sorted);
    } else if (sel.limit >= 0 || sel.offset > 0) {
      RowBatch limited;
      for (const auto& c : cols) limited.columns.emplace_back(c.type);
      int64_t limit = sel.limit < 0
                          ? static_cast<int64_t>(out.result.rows.num_rows())
                          : sel.limit;
      for (size_t i = sel.offset;
           i < out.result.rows.num_rows() &&
           static_cast<int64_t>(limited.num_rows()) < limit;
           ++i) {
        for (size_t c = 0; c < cols.size(); ++c) {
          limited.columns[c].AppendFrom(out.result.rows.columns[c], i);
        }
      }
      out.result.rows = std::move(limited);
    }
    out.result.affected_rows =
        static_cast<int64_t>(out.result.rows.num_rows());
    finish_analyze();
    return out;
  }

  // ---- two-phase aggregation ----
  // Build the partial (shard) statement: group exprs + decomposed partials.
  if (sel.having) {
    return Status::Unimplemented("MPP HAVING not supported");
  }
  auto partial_p = std::make_shared<ast::SelectStmt>(sel);
  ast::SelectStmt& partial = *partial_p;
  partial.order_by.clear();
  partial.limit = -1;
  partial.offset = 0;
  partial.items.clear();
  // Group columns first.
  for (size_t g = 0; g < sel.group_by.size(); ++g) {
    ast::SelectItem it;
    it.expr = sel.group_by[g];
    it.alias = "G" + std::to_string(g);
    partial.items.push_back(std::move(it));
  }
  std::vector<FinalItem> finals;
  std::vector<MergeOp> merges;  // per partial agg column
  auto add_partial = [&](ast::ExprP call, MergeOp m) -> int {
    ast::SelectItem it;
    it.expr = std::move(call);
    it.alias = "P" + std::to_string(partial.items.size());
    partial.items.push_back(std::move(it));
    merges.push_back(m);
    return static_cast<int>(merges.size()) - 1;
  };
  for (const auto& item : sel.items) {
    const ast::ExprP& e = item.expr;
    if (IsSimpleAgg(e)) {
      AggKind k;
      AggKindFromName(e->name, &k);
      FinalItem f;
      if (e->name == "AVG" || e->name == "MEAN") {
        auto sum = std::make_shared<ast::Expr>(*e);
        sum->name = "SUM";
        auto cnt = std::make_shared<ast::Expr>(*e);
        cnt->name = "COUNT";
        f.kind = FinalItem::kAvg;
        f.sum_idx = add_partial(sum, MergeOp::kSum);
        f.count_idx = add_partial(cnt, MergeOp::kSum);
      } else {
        f.kind = FinalItem::kAggDirect;
        MergeOp m = MergeOp::kSum;
        if (e->name == "MIN") m = MergeOp::kMin;
        if (e->name == "MAX") m = MergeOp::kMax;
        f.partial_idx = add_partial(std::make_shared<ast::Expr>(*e), m);
      }
      finals.push_back(f);
      continue;
    }
    // Must be a group expression.
    bool found = false;
    for (size_t g = 0; g < sel.group_by.size(); ++g) {
      if (AstToString(sel.group_by[g]) == AstToString(e)) {
        FinalItem f;
        f.kind = FinalItem::kGroup;
        f.group_idx = static_cast<int>(g);
        finals.push_back(f);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::Unimplemented(
          "MPP SELECT items must be group expressions or simple aggregates "
          "(COUNT/SUM/MIN/MAX/AVG)");
    }
  }
  const size_t n_groups = sel.group_by.size();
  // Run partials on every shard and merge by group key.
  struct GroupAccum {
    std::vector<Value> groups;
    std::vector<Value> partials;
  };
  std::unordered_map<std::string, GroupAccum> table;
  std::vector<ShardRun> runs;
  DASHDB_RETURN_IF_ERROR(
      run_shards(MakeShardSelectFn(partial_p, analyze, bloom_filters),
                 "MPP partial-aggregate merge", &runs));
  const std::vector<OutputCol> partial_cols = runs[0].out.cols;
  for (const ShardRun& run : runs) {
    const RowBatch& batch = run.out.batch;
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      std::string key;
      for (size_t g = 0; g < n_groups; ++g) {
        key += batch.columns[g].GetValue(i).ToString();
        key += '\x1f';
      }
      auto it = table.find(key);
      if (it == table.end()) {
        GroupAccum acc;
        for (size_t g = 0; g < n_groups; ++g) {
          acc.groups.push_back(batch.columns[g].GetValue(i));
        }
        for (size_t p = 0; p < merges.size(); ++p) {
          acc.partials.push_back(batch.columns[n_groups + p].GetValue(i));
        }
        table.emplace(std::move(key), std::move(acc));
        continue;
      }
      for (size_t p = 0; p < merges.size(); ++p) {
        Value incoming = batch.columns[n_groups + p].GetValue(i);
        Value& cur = it->second.partials[p];
        if (incoming.is_null()) continue;
        if (cur.is_null()) {
          cur = incoming;
          continue;
        }
        switch (merges[p]) {
          case MergeOp::kSum:
            cur = cur.type() == TypeId::kDouble ||
                          incoming.type() == TypeId::kDouble
                      ? Value::Double(cur.AsDouble() + incoming.AsDouble())
                      : Value::Int64(cur.AsInt() + incoming.AsInt());
            break;
          case MergeOp::kMin:
            if (incoming.Compare(cur) < 0) cur = incoming;
            break;
          case MergeOp::kMax:
            if (incoming.Compare(cur) > 0) cur = incoming;
            break;
        }
      }
    }
  }
  // Final projection.
  std::vector<OutputCol> final_cols;
  for (size_t i = 0; i < sel.items.size(); ++i) {
    const FinalItem& f = finals[i];
    std::string name = !sel.items[i].alias.empty()
                           ? sel.items[i].alias
                           : (sel.items[i].expr->kind == ExprKind::kColumnRef
                                  ? sel.items[i].expr->name
                                  : sel.items[i].expr->name);
    TypeId t;
    if (f.kind == FinalItem::kGroup) {
      t = partial_cols[f.group_idx].type;
    } else if (f.kind == FinalItem::kAvg) {
      t = TypeId::kDouble;
    } else {
      t = partial_cols[n_groups + f.partial_idx].type;
    }
    final_cols.push_back({name, t});
  }
  out.result.columns = final_cols;
  for (const auto& c : final_cols) {
    out.result.rows.columns.emplace_back(c.type);
  }
  // Global aggregate with no groups and no rows still yields one row.
  if (table.empty() && n_groups == 0) {
    GroupAccum acc;
    for (size_t p = 0; p < merges.size(); ++p) {
      acc.partials.push_back(Value::Null(TypeId::kInt64));
    }
    table.emplace("", std::move(acc));
  }
  for (auto& [key, acc] : table) {
    for (size_t i = 0; i < finals.size(); ++i) {
      const FinalItem& f = finals[i];
      Value v = Value::Null(final_cols[i].type);
      if (f.kind == FinalItem::kGroup) {
        v = acc.groups[f.group_idx];
      } else if (f.kind == FinalItem::kAggDirect) {
        v = acc.partials[f.partial_idx];
        if (v.is_null() && merges[f.partial_idx] == MergeOp::kSum &&
            partial_cols[n_groups + f.partial_idx].type == TypeId::kInt64 &&
            n_groups == 0) {
          // COUNT over zero rows is 0, not NULL.
          const ast::ExprP& e = sel.items[i].expr;
          if (e->name == "COUNT") v = Value::Int64(0);
        }
      } else {  // AVG
        Value sum = acc.partials[f.sum_idx];
        Value cnt = acc.partials[f.count_idx];
        if (!sum.is_null() && !cnt.is_null() && cnt.AsInt() > 0) {
          v = Value::Double(sum.AsDouble() / cnt.AsDouble());
        }
      }
      out.result.rows.columns[i].AppendValue(v);
    }
  }
  // Coordinator ORDER BY / LIMIT over the merged result.
  if (!sel.order_by.empty() || sel.limit >= 0) {
    std::vector<uint32_t> order(out.result.rows.num_rows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::vector<std::pair<int, bool>> keys;
    for (const auto& oi : sel.order_by) {
      // final_cols run parallel to sel.items, so select-list resolution
      // (names, ordinals, and whole select-list expressions — e.g.
      // ORDER BY COUNT(*)) indexes the merged result directly.
      int idx = ResolveOrderKeyIdx(oi, sel);
      if (idx < 0) {
        return Status::Unimplemented(
            "MPP ORDER BY supports output columns, ordinals, and "
            "select-list expressions");
      }
      keys.emplace_back(idx, oi.desc);
    }
    const RowBatch& rb = out.result.rows;
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      for (auto [c, desc] : keys) {
        int cmp =
            rb.columns[c].GetValue(a).Compare(rb.columns[c].GetValue(b));
        if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
      }
      return false;
    });
    RowBatch sorted;
    for (const auto& c : final_cols) sorted.columns.emplace_back(c.type);
    int64_t limit =
        sel.limit < 0 ? static_cast<int64_t>(order.size()) : sel.limit;
    for (size_t i = sel.offset;
         i < order.size() && static_cast<int64_t>(sorted.num_rows()) < limit;
         ++i) {
      for (size_t c = 0; c < final_cols.size(); ++c) {
        sorted.columns[c].AppendFrom(out.result.rows.columns[c], order[i]);
      }
    }
    out.result.rows = std::move(sorted);
  }
  out.result.affected_rows = static_cast<int64_t>(out.result.rows.num_rows());
  finish_analyze();
  return out;
}

std::shared_ptr<const std::vector<RuntimeScanFilter>>
MppDatabase::PrepareBloomPushdown(const ast::SelectStmt& sel) {
  if (sel.from.size() < 2 || shards_.empty()) return nullptr;
  if (sessions_[0]->optimizer_mode() != OptimizerMode::kCost) return nullptr;
  // Inner/cross joins of plain base tables only: a Bloom filter drops
  // probe rows, which an outer join must instead null-extend.
  for (const auto& ref : sel.from) {
    if (ref.subquery || !ref.using_cols.empty()) return nullptr;
    if (ref.join != ast::TableRef::JoinKind::kNone &&
        ref.join != ast::TableRef::JoinKind::kInner &&
        ref.join != ast::TableRef::JoinKind::kCross) {
      return nullptr;
    }
  }
  struct Item {
    std::string schema_name;
    std::string qualified;
    std::string alias;
    bool replicated = false;
    std::shared_ptr<CatalogEntry> entry;
  };
  std::vector<Item> items;
  for (const auto& ref : sel.from) {
    Item it;
    it.schema_name = ref.schema.empty() ? sessions_[0]->default_schema()
                                        : NormalizeIdent(ref.schema);
    auto entry = shards_[0]->catalog()->Lookup(it.schema_name,
                                               NormalizeIdent(ref.table));
    if (!entry.ok()) return nullptr;
    it.entry = std::move(entry).value();
    it.qualified = it.entry->schema.QualifiedName();
    auto rep = replicated_.find(it.qualified);
    if (rep == replicated_.end()) return nullptr;
    it.replicated = rep->second;
    it.alias = !ref.alias.empty() ? ref.alias : NormalizeIdent(ref.table);
    items.push_back(std::move(it));
  }
  std::vector<ast::ExprP> conjs;
  SplitAndConjuncts(sel.where, &conjs);
  for (const auto& ref : sel.from) {
    SplitAndConjuncts(ref.join_condition, &conjs);
  }
  // Resolves one column ref to (item, schema column); -1 on miss/ambiguity.
  auto owner_of = [&](const ast::Expr& c, int* col) -> int {
    if (c.kind != ExprKind::kColumnRef) return -1;
    int found = -1, fcol = -1;
    for (size_t i = 0; i < items.size(); ++i) {
      if (!c.qualifier.empty() && items[i].alias != c.qualifier) continue;
      int ci = items[i].entry->schema.FindColumn(c.name);
      if (ci < 0) continue;
      if (found >= 0) return -1;
      found = static_cast<int>(i);
      fcol = ci;
    }
    *col = fcol;
    return found;
  };
  // Item owning every column ref of an expression; -1 mixed, -2 none.
  auto item_of = [&](const ast::ExprP& e) -> int {
    std::vector<const ast::Expr*> refs;
    CollectRefs(e, &refs);
    if (refs.empty()) return -2;
    int item = -3;
    for (const auto* r : refs) {
      int col;
      int it = owner_of(*r, &col);
      if (it < 0) return -1;
      if (item == -3) item = it;
      else if (item != it) return -1;
    }
    return item;
  };
  auto result = std::make_shared<std::vector<RuntimeScanFilter>>();
  auto& ins = GlobalMppInstruments();
  for (const auto& conj : conjs) {
    // fact.col = dim.col with a hash-distributed fact and replicated dim.
    if (conj->kind != ExprKind::kBinary || conj->bin_op != ast::BinOp::kEq) {
      continue;
    }
    int lc, rc;
    int li = owner_of(*conj->children[0], &lc);
    int ri = owner_of(*conj->children[1], &rc);
    if (li < 0 || ri < 0 || li == ri) continue;
    int fact = -1, dim = -1, fact_col = -1, dim_col = -1;
    if (!items[li].replicated && items[ri].replicated) {
      fact = li; fact_col = lc; dim = ri; dim_col = rc;
    } else if (!items[ri].replicated && items[li].replicated) {
      fact = ri; fact_col = rc; dim = li; dim_col = lc;
    } else {
      continue;
    }
    // Identical non-double key types: the scan-side cell hash must agree
    // with the coordinator's value hash for equal keys.
    TypeId ft = items[fact].entry->schema.columns()[fact_col].type;
    TypeId dt = items[dim].entry->schema.columns()[dim_col].type;
    if (ft != dt || ft == TypeId::kDouble) continue;
    // Only worth shipping when the dimension is locally filtered.
    std::vector<ast::ExprP> dim_filters;
    for (const auto& c : conjs) {
      if (c != conj && item_of(c) == dim) dim_filters.push_back(c);
    }
    if (dim_filters.empty()) continue;
    // Evaluate the filtered dimension once on shard 0 (replicas are full
    // copies) and collect the surviving join keys.
    auto dsel = std::make_shared<ast::SelectStmt>();
    ast::SelectItem si;
    si.expr = ast::MakeColumnRef(
        items[dim].alias, items[dim].entry->schema.columns()[dim_col].name);
    dsel->items.push_back(std::move(si));
    ast::TableRef tr;
    tr.schema = items[dim].schema_name;
    tr.table = items[dim].entry->schema.table_name();
    tr.alias = items[dim].alias;
    dsel->from.push_back(std::move(tr));
    for (const auto& c : dim_filters) {
      dsel->where = dsel->where
                        ? ast::MakeBinary(ast::BinOp::kAnd, dsel->where, c)
                        : c;
    }
    BindOptions bopts;
    bopts.scan = shards_[0]->MakeScanOptions();
    Binder binder(shards_[0]->catalog(), sessions_[0].get(), bopts);
    auto root = binder.BindSelect(*dsel);
    if (!root.ok()) continue;
    // Coordinator-side dimension scan is governed too (best effort: a
    // cancelled scan just skips the filter; the shard checks still abort).
    AttachQueryContext(root.value().get(), query_ctx_.get());
    auto keys = DrainOperator(root.value().get());
    if (!keys.ok()) continue;
    const ColumnVector& kv = keys.value().columns[0];
    BloomPrefilter bloom;
    bloom.Init(std::max<size_t>(1, kv.size()));
    for (size_t r = 0; r < kv.size(); ++r) {
      if (kv.IsNull(r)) continue;
      bloom.Add(HashValue(kv.GetValue(r)));
    }
    // Round-trip through the wire form the shard request would carry.
    std::string bytes = bloom.Serialize();
    ins.bloom_filters->Add(1);
    ins.bloom_bytes->Add(bytes.size());
    auto wire = std::make_shared<BloomPrefilter>();
    if (!wire->Deserialize(bytes)) continue;
    RuntimeScanFilter f;
    f.table = items[fact].qualified;
    f.column = items[fact].entry->schema.columns()[fact_col].name;
    f.bloom = std::move(wire);
    result->push_back(std::move(f));
  }
  if (result->empty()) return nullptr;
  return result;
}

MppDatabase::ShardFn MppDatabase::MakeShardSelectFn(
    std::shared_ptr<ast::SelectStmt> stmt, bool analyze,
    std::shared_ptr<const std::vector<RuntimeScanFilter>> filters) {
  return [this, stmt, analyze, filters](int shard, bool speculative,
                                        QueryContext* qctx,
                                        ShardAttemptOut* o) -> Status {
    if (qctx != nullptr) DASHDB_RETURN_IF_ERROR(qctx->CheckAlive());
    DASHDB_RETURN_IF_ERROR(FaultInjector::Global().Evaluate(kFaultShardStall));
    std::shared_ptr<Session> session =
        speculative ? shards_[shard]->CreateSession() : sessions_[shard];
    if (speculative) {
      // A fresh session must plan identically to the primary's.
      session->set_optimizer_mode(sessions_[shard]->optimizer_mode());
      session->set_adaptive_enabled(sessions_[shard]->adaptive_enabled());
      session->set_shared_scan_enabled(sessions_[shard]->shared_scan_enabled());
      session->set_serial_sort(sessions_[shard]->serial_sort());
      session->set_topn_enabled(sessions_[shard]->topn_enabled());
    }
    BindOptions bopts;
    bopts.scan = shards_[shard]->MakeScanOptions();
    bopts.scan.shared_scan = session->shared_scan_enabled();
    Binder binder(shards_[shard]->catalog(), session.get(), bopts);
    // Coordinator Bloom filters apply at bind time only; clear right after
    // so later statements on this session never see stale filters.
    if (filters) {
      for (const auto& f : *filters) session->AddRuntimeFilter(f);
    }
    auto bound = binder.BindSelect(*stmt);
    session->ClearRuntimeFilters();
    DASHDB_RETURN_IF_ERROR(bound.status());
    OperatorPtr root = std::move(bound).value();
    // The shard-local plan probes the attempt's governor at every operator
    // Open/Next and morsel boundary; its memory charges roll up to the
    // query root's budget.
    AttachQueryContext(root.get(), qctx);
    // Shard results travel through the flow-controlled exchange: a producer
    // thread drains the plan into size-bounded dictionary-coded chunks and
    // blocks whenever the credit window fills (backpressure); this thread
    // decodes chunks into the attempt payload as they arrive. The fn stays
    // synchronous overall, so retry/speculation semantics are unchanged.
    constexpr size_t kChunkTargetBytes = 64 << 10;
    constexpr size_t kCreditWindow = 4;
    ExchangeChannel channel(kCreditWindow);
    std::thread producer([&] {
      Status st = root->Open();
      RowBatch batch;
      while (st.ok()) {
        Result<bool> more = root->Next(&batch);
        if (!more.ok()) {
          st = more.status();
          break;
        }
        if (!more.value()) break;
        batch.Compact();
        const size_t n = batch.num_rows();
        if (n == 0) continue;
        const int64_t total = BatchMemoryBytes(batch);
        size_t per_chunk = n;
        if (static_cast<size_t>(total) > kChunkTargetBytes) {
          per_chunk = std::max<size_t>(
              1, n * kChunkTargetBytes / static_cast<size_t>(total));
        }
        for (size_t begin = 0; begin < n; begin += per_chunk) {
          const size_t end = std::min(n, begin + per_chunk);
          ExchangeChunk chunk;
          chunk.payload = EncodeExchangeBatch(batch, begin, end);
          chunk.rows = end - begin;
          chunk.raw_bytes =
              static_cast<size_t>(total) * (end - begin) / n;
          channel.Push(std::move(chunk));
        }
      }
      channel.Close(std::move(st));
    });
    o->cols = root->output();
    o->batch = RowBatch{};  // retries reuse the attempt payload
    for (const OutputCol& c : o->cols) o->batch.columns.emplace_back(c.type);
    MppInstruments& ins = GlobalMppInstruments();
    Status decode_err;
    Status produce_st;
    ExchangeChunk chunk;
    while (channel.Pop(&chunk, &produce_st)) {
      if (decode_err.ok()) {
        decode_err = DecodeExchangeBatch(chunk.payload, &o->batch);
        if (!decode_err.ok()) channel.CancelConsumer();
        ins.exchange_chunks->Add(1);
        ins.exchange_bytes->Add(static_cast<int64_t>(chunk.raw_bytes));
        ins.exchange_compressed_bytes->Add(
            static_cast<int64_t>(chunk.payload.size()));
      }
    }
    ins.exchange_stalls->Add(static_cast<int64_t>(channel.stalls()));
    producer.join();
    DASHDB_RETURN_IF_ERROR(decode_err);
    DASHDB_RETURN_IF_ERROR(produce_st);
    if (analyze) {
      o->analyzed_plan = root->AnalyzeString();
      auto t = std::make_shared<Trace>();
      root->AddTraceSpans(t.get(), Trace::kNoParent);
      o->shard_trace = std::move(t);
    }
    return Status::OK();
  };
}

Result<MppQueryResult> MppDatabase::Execute(const std::string& sql) {
  return Execute(sql, nullptr);
}

ResultCache::Versions MppDatabase::CoordinatorVersions() {
  ResultCache::Versions v;
  if (!shards_.empty()) {
    Engine& s0 = *shards_.front();
    v.catalog = s0.catalog()->version();
    v.stats = s0.stats_version();
    v.data = s0.data_version();
  }
  v.data += data_version_.load(std::memory_order_acquire);
  return v;
}

Result<MppQueryResult> MppDatabase::Execute(
    const std::string& sql, std::shared_ptr<QueryContext> qctx) {
  query_ctx_ = qctx != nullptr ? std::move(qctx)
                               : std::make_shared<QueryContext>();
  // Clear on every exit so a finished statement's governor never gates the
  // next one (the coordinator executes one statement at a time).
  struct Scope {
    MppDatabase* db;
    ~Scope() { db->query_ctx_.reset(); }
  } scope{this};
  DASHDB_ASSIGN_OR_RETURN(ast::StatementP stmt, ParseStatement(sql));
  switch (stmt->kind) {
    case ast::StmtKind::kSelect: {
      if (result_cache_enabled_ && stmt->select &&
          IsResultCacheableSelect(*stmt->select)) {
        // Versions captured before the lookup: a write racing this query
        // can only skip the insert below, never produce a stale hit.
        const ResultCache::Versions v = CoordinatorVersions();
        if (std::shared_ptr<const QueryResult> cached = result_cache_.Lookup(
                sql, Dialect::kAnsi, "PUBLIC", v)) {
          MppQueryResult out;
          out.result = *cached;
          out.shard_seconds.assign(shards_.size(), 0.0);
          return out;
        }
        Result<MppQueryResult> r = ExecSelect(*stmt->select);
        if (r.ok() && CoordinatorVersions() == v) {
          const int64_t bytes = BatchMemoryBytes(r->result.rows);
          // The retained copy charges this statement's budget; a query that
          // cannot afford it completes normally and just skips caching.
          if (query_ctx_->Charge(bytes, "result cache insert").ok()) {
            result_cache_.Insert(sql, Dialect::kAnsi, "PUBLIC", v,
                                 std::make_shared<QueryResult>(r->result),
                                 static_cast<size_t>(bytes));
            query_ctx_->Release(bytes);
          }
        }
        return r;
      }
      return ExecSelect(*stmt->select);
    }
    case ast::StmtKind::kExplain:
      // EXPLAIN ANALYZE runs the query through the coordinator and reports
      // per-shard plans + failover counters; plain EXPLAIN broadcasts so
      // the message shows a shard-local plan.
      if (stmt->explain_analyze && stmt->select) {
        return ExecSelect(*stmt->select, /*analyze=*/true);
      }
      return Broadcast(sql);
    case ast::StmtKind::kInsert:
      data_version_.fetch_add(1, std::memory_order_release);
      return RoutedInsert(*stmt, sql);
    case ast::StmtKind::kSet: {
      // RESULT_CACHE is a coordinator knob (the cache lives here, not on
      // the shards); record it, then broadcast like any SET so shard
      // sessions stay in sync for knobs they do own (SHARED_SCAN, DOP...).
      const std::string name = NormalizeIdent(stmt->set_name);
      if (name == "RESULT_CACHE") {
        const std::string v = NormalizeIdent(stmt->set_value);
        if (v == "ON" || v == "TRUE" || v == "1") {
          result_cache_enabled_ = true;
        } else if (v == "OFF" || v == "FALSE" || v == "0") {
          result_cache_enabled_ = false;
        } else {
          return Status::InvalidArgument("RESULT_CACHE must be ON or OFF");
        }
      }
      return Broadcast(sql);
    }
    default:
      // Conservative: any other statement may write (DDL, UPDATE, DELETE,
      // TRUNCATE, CALL RUNSTATS...). Broadcast DML reaches shard 0, whose
      // versions already stamp cache entries, but bumping the coordinator
      // counter too keeps invalidation independent of routing details.
      data_version_.fetch_add(1, std::memory_order_release);
      return Broadcast(sql);
  }
}

Result<std::vector<size_t>> MppDatabase::ShardRowCounts(
    const std::string& schema, const std::string& table) {
  std::vector<size_t> out;
  for (auto& shard : shards_) {
    DASHDB_ASSIGN_OR_RETURN(auto entry, shard->GetTable(schema, table));
    auto col = std::dynamic_pointer_cast<ColumnTable>(entry->storage);
    auto row = std::dynamic_pointer_cast<RowTable>(entry->storage);
    out.push_back(col ? col->live_row_count()
                      : (row ? row->live_row_count() : 0));
  }
  return out;
}

}  // namespace dashdb
