#include "exec/sort.h"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "common/metrics.h"
#include "common/threadpool.h"

namespace dashdb {

namespace {

void InitBatchFor(const std::vector<OutputCol>& cols, RowBatch* out) {
  out->columns.clear();
  out->columns.reserve(cols.size());
  for (const auto& c : cols) out->columns.emplace_back(c.type);
}

void AppendRowFrom(const RowBatch& src, size_t row, RowBatch* dst) {
  for (size_t c = 0; c < src.columns.size(); ++c) {
    dst->columns[c].AppendFrom(src.columns[c], row);
  }
}

/// memcmp over (ptr, len) byte strings: <0, 0, >0.
int CompareBytes(const uint8_t* a, size_t la, const uint8_t* b, size_t lb) {
  const size_t n = la < lb ? la : lb;
  int c = std::memcmp(a, b, n);
  if (c != 0) return c;
  return la < lb ? -1 : (la == lb ? 0 : 1);
}

struct SortInstruments {
  Counter* sort_rows;   ///< rows materialized through SortOp
  Counter* sort_runs;   ///< sorted runs produced (1 per serial sort)
  Counter* topn_fused;  ///< ORDER BY+LIMIT plans served by TopNOp
};

SortInstruments& GlobalSortInstruments() {
  auto& reg = MetricRegistry::Global();
  static SortInstruments in{
      reg.GetCounter("exec.sort_rows"),
      reg.GetCounter("exec.sort_runs"),
      reg.GetCounter("exec.topn_fused"),
  };
  return in;
}

/// One contiguous slice of the input, sorted independently.
struct SortRun {
  size_t begin = 0, end = 0;
  NormalizedKeyColumn keys;     ///< keys of rows [begin, end)
  std::vector<uint32_t> order;  ///< LOCAL indices (row - begin), sorted
};

/// Probe the governor every this many merged rows.
constexpr size_t kMergeProbeInterval = 2048;

}  // namespace

// ------------------------------------------------------------------ Sort --

SortOp::SortOp(OperatorPtr child, std::vector<SortKey> keys,
               const ExecContext* ctx, bool serial)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      ctx_(ctx),
      serial_(serial) {
  output_ = child_->output();
}

Status SortOp::OpenImpl() {
  done_ = false;
  materialized_ = false;
  runs_used_ = 0;
  merge_fanin_ = 0;
  return child_->Open();
}

void SortOp::SerialOrder(const std::vector<ColumnVector>& key_cols,
                         std::vector<uint32_t>* order) const {
  // Typed cell comparison straight off the key columns' primitive
  // payloads — no per-comparison Value boxing. Mirrors Value::Compare:
  // NULLs sort high, doubles via <, everything else via the int64
  // payload (a key column has one type, so no cross-family cases).
  auto compare_cell = [](const ColumnVector& cv, uint32_t a,
                         uint32_t b) -> int {
    const bool an = cv.IsNull(a), bn = cv.IsNull(b);
    if (an || bn) return an ? (bn ? 0 : 1) : -1;
    if (cv.type() == TypeId::kVarchar) {
      const std::string& x = cv.GetString(a);
      const std::string& y = cv.GetString(b);
      return x < y ? -1 : (x == y ? 0 : 1);
    }
    if (cv.type() == TypeId::kDouble) {
      const double x = cv.GetDouble(a), y = cv.GetDouble(b);
      return x < y ? -1 : (x == y ? 0 : 1);
    }
    const int64_t x = cv.GetInt(a), y = cv.GetInt(b);
    return x < y ? -1 : (x == y ? 0 : 1);
  };
  std::stable_sort(order->begin(), order->end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < keys_.size(); ++k) {
      int c = compare_cell(key_cols[k], a, b);
      if (c != 0) return keys_[k].desc ? c > 0 : c < 0;
    }
    return false;
  });
}

Status SortOp::ParallelOrder(const RowBatch& all,
                             const std::vector<ColumnVector>& key_cols,
                             std::vector<uint32_t>* order) {
  const size_t n = all.num_rows();
  std::vector<const ColumnVector*> cols;
  std::vector<bool> desc;
  for (size_t k = 0; k < keys_.size(); ++k) {
    cols.push_back(&key_cols[k]);
    desc.push_back(keys_[k].desc);
  }

  // Run count: one per worker, but never runs smaller than ~4K rows — a
  // tiny input sorts in one run even at high DOP.
  size_t R = 1;
  if (ctx_ != nullptr && ctx_->parallel() && n >= 8192) {
    R = std::min<size_t>(static_cast<size_t>(ctx_->dop), n / 4096);
    if (R == 0) R = 1;
  }
  runs_used_ = R;

  std::vector<SortRun> runs(R);
  for (size_t r = 0; r < R; ++r) {
    runs[r].begin = r * n / R;
    runs[r].end = (r + 1) * n / R;
  }
  auto sort_run = [&](size_t r) {
    SortRun& run = runs[r];
    run.keys.Build(cols, desc, run.begin, run.end);
    const size_t len = run.end - run.begin;
    run.order.resize(len);
    for (size_t i = 0; i < len; ++i) run.order[i] = static_cast<uint32_t>(i);
    // Equal normalized keys mean comparator-equal rows, so breaking ties
    // on the index reproduces stable_sort exactly (within a run, local
    // order == global order).
    std::sort(run.order.begin(), run.order.end(),
              [&run](uint32_t a, uint32_t b) {
                int c = run.keys.Compare(a, run.keys, b);
                return c != 0 ? c < 0 : a < b;
              });
  };
  if (R == 1) {
    sort_run(0);
  } else {
    ctx_->pool->ParallelFor(R, sort_run, ctx_->dop, query_ctx());
  }
  DASHDB_RETURN_IF_ERROR(CheckQueryAlive());
  int64_t key_bytes = 0;
  for (const auto& run : runs) {
    key_bytes += static_cast<int64_t>(run.keys.byte_size());
  }
  DASHDB_RETURN_IF_ERROR(ChargeMemory(key_bytes, "sort keys"));

  order->resize(n);
  if (R == 1) {
    std::copy(runs[0].order.begin(), runs[0].order.end(), order->begin());
    merge_fanin_ = 0;
    return Status::OK();
  }
  merge_fanin_ = R;

  // Splitter-partitioned parallel merge: S = R segments. Splitters are
  // actual elements sampled from the largest run's sorted order; each
  // run's boundary for a splitter (key, gidx) is the count of its rows
  // strictly before that element in the composite total order, so the
  // segments partition the output exactly and merge independently.
  const size_t S = R;
  size_t big = 0;
  for (size_t r = 1; r < R; ++r) {
    if (runs[r].order.size() > runs[big].order.size()) big = r;
  }
  // bounds[s][r]: first position of run r's order belonging to segment s.
  std::vector<std::vector<size_t>> bounds(S + 1,
                                          std::vector<size_t>(R, 0));
  for (size_t r = 0; r < R; ++r) bounds[S][r] = runs[r].order.size();
  for (size_t s = 1; s < S; ++s) {
    const SortRun& sb = runs[big];
    if (sb.order.empty()) {
      bounds[s] = bounds[s - 1];
      continue;
    }
    const size_t pos =
        std::min(s * sb.order.size() / S, sb.order.size() - 1);
    const uint32_t split_local = sb.order[pos];
    const uint64_t split_gidx = sb.begin + split_local;
    for (size_t r = 0; r < R; ++r) {
      const SortRun& run = runs[r];
      // lower_bound over the run's sorted order on (key, gidx).
      size_t lo = 0, hi = run.order.size();
      while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        const uint32_t ml = run.order[mid];
        int c = run.keys.Compare(ml, sb.keys, split_local);
        const bool before =
            c != 0 ? c < 0 : (run.begin + ml) < split_gidx;
        if (before) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      bounds[s][r] = lo;
    }
  }
  // Output offset of each segment = total rows in earlier segments.
  std::vector<size_t> seg_out(S + 1, 0);
  for (size_t s = 0; s <= S; ++s) {
    size_t total = 0;
    for (size_t r = 0; r < R; ++r) total += bounds[s][r];
    seg_out[s] = total;
  }

  std::mutex err_mu;
  Status first_err = Status::OK();
  QueryContext* qctx = query_ctx();
  auto merge_segment = [&](size_t s) {
    std::vector<size_t> pos(R), end(R);
    for (size_t r = 0; r < R; ++r) {
      pos[r] = bounds[s][r];
      end[r] = bounds[s + 1][r];
    }
    auto alive = [&](size_t r) { return pos[r] < end[r]; };
    auto wins = [&](size_t a, size_t b) {
      const uint32_t la = runs[a].order[pos[a]];
      const uint32_t lb = runs[b].order[pos[b]];
      int c = runs[a].keys.Compare(la, runs[b].keys, lb);
      if (c != 0) return c < 0;
      return runs[a].begin + la < runs[b].begin + lb;
    };
    TournamentTree tree;
    tree.Init(R, wins, alive);
    size_t out_idx = seg_out[s];
    size_t since_probe = 0;
    for (;;) {
      const int w = tree.winner();
      if (w < 0) break;
      const SortRun& run = runs[w];
      (*order)[out_idx++] =
          static_cast<uint32_t>(run.begin + run.order[pos[w]]);
      ++pos[w];
      tree.Replay(static_cast<size_t>(w), wins, alive);
      if (qctx != nullptr && ++since_probe >= kMergeProbeInterval) {
        since_probe = 0;
        Status st = qctx->CheckAlive();
        if (!st.ok()) {
          std::lock_guard<std::mutex> lk(err_mu);
          if (first_err.ok()) first_err = st;
          return;
        }
      }
    }
  };
  ctx_->pool->ParallelFor(S, merge_segment, ctx_->dop, qctx);
  DASHDB_RETURN_IF_ERROR(CheckQueryAlive());
  return first_err;
}

Status SortOp::Materialize() {
  DASHDB_ASSIGN_OR_RETURN(RowBatch all, DrainOperator(child_.get()));
  // The sort holds both the drained input and the reordered copy.
  DASHDB_RETURN_IF_ERROR(
      ChargeMemory(2 * BatchMemoryBytes(all), "sort materialize"));
  const size_t n = all.num_rows();
  // Evaluate sort keys once.
  std::vector<ColumnVector> key_cols;
  for (const auto& k : keys_) {
    DASHDB_ASSIGN_OR_RETURN(ColumnVector cv, k.expr->Evaluate(all, *ctx_));
    key_cols.push_back(std::move(cv));
  }
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  if (serial_) {
    runs_used_ = 1;
    SerialOrder(key_cols, &order);
  } else {
    DASHDB_RETURN_IF_ERROR(ParallelOrder(all, key_cols, &order));
  }
  auto& in = GlobalSortInstruments();
  in.sort_rows->Add(static_cast<int64_t>(n));
  in.sort_runs->Add(static_cast<int64_t>(runs_used_));
  // Column-wise gather by order vector (no per-row boxing).
  InitBatchFor(output_, &result_);
  for (size_t c = 0; c < result_.columns.size(); ++c) {
    result_.columns[c].Gather(all.columns[c], order.data(), n);
  }
  materialized_ = true;
  return Status::OK();
}

Result<bool> SortOp::NextImpl(RowBatch* out) {
  if (!materialized_) DASHDB_RETURN_IF_ERROR(Materialize());
  if (done_) return false;
  *out = std::move(result_);
  done_ = true;
  return out->num_rows() > 0;
}

std::string SortOp::AnalyzeExtra() const {
  if (!materialized_) return std::string();
  if (serial_) return " strategy=serial";
  char buf[64];
  std::snprintf(buf, sizeof(buf), " strategy=full runs=%zu fanin=%zu",
                runs_used_, merge_fanin_);
  return buf;
}

// ------------------------------------------------------------------ TopN --

TopNOp::TopNOp(OperatorPtr child, std::vector<SortKey> keys, int64_t limit,
               int64_t offset, const ExecContext* ctx)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      limit_(limit < 0 ? 0 : limit),
      offset_(offset < 0 ? 0 : offset),
      ctx_(ctx) {
  capacity_ = static_cast<size_t>(limit_) + static_cast<size_t>(offset_);
  output_ = child_->output();
}

Status TopNOp::OpenImpl() {
  done_ = false;
  materialized_ = false;
  heaps_.clear();
  heaps_used_ = 0;
  return child_->Open();
}

void TopNOp::Consume(Heap* h, const RowBatch& in,
                     const NormalizedKeyColumn& keys, size_t lo, size_t hi,
                     uint64_t seq_base) {
  auto heap_less = [](const Heap::Entry& a, const Heap::Entry& b) {
    int c = CompareBytes(
        reinterpret_cast<const uint8_t*>(a.key.data()), a.key.size(),
        reinterpret_cast<const uint8_t*>(b.key.data()), b.key.size());
    return c != 0 ? c < 0 : a.seq < b.seq;
  };
  for (size_t row = lo; row < hi; ++row) {
    const size_t local = row - lo;
    const uint8_t* kd = keys.data(local);
    const size_t kl = keys.length(local);
    const uint64_t seq = seq_base + row;
    if (h->entries.size() >= capacity_) {
      // Admit only when strictly better than the boundary: an equal key
      // with a later sequence number loses, so the retained prefix is the
      // stable one.
      const Heap::Entry& top = h->entries.front();
      int c = CompareBytes(kd, kl,
                           reinterpret_cast<const uint8_t*>(top.key.data()),
                           top.key.size());
      if (c > 0 || (c == 0 && seq > top.seq)) continue;
      std::pop_heap(h->entries.begin(), h->entries.end(), heap_less);
      h->entries.pop_back();
    }
    AppendRowFrom(in, row, &h->pool);
    Heap::Entry e;
    e.key.assign(reinterpret_cast<const char*>(kd), kl);
    e.seq = seq;
    e.pool_row = static_cast<uint32_t>(h->pool_rows++);
    h->entries.push_back(std::move(e));
    std::push_heap(h->entries.begin(), h->entries.end(), heap_less);
    if (h->pool_rows > 2 * capacity_ + 4096) CompactPool(h);
  }
}

void TopNOp::CompactPool(Heap* h) {
  std::vector<uint32_t> sel;
  sel.reserve(h->entries.size());
  for (auto& e : h->entries) sel.push_back(e.pool_row);
  RowBatch dense;
  InitBatchFor(output_, &dense);
  for (size_t c = 0; c < dense.columns.size(); ++c) {
    dense.columns[c].Gather(h->pool.columns[c], sel.data(), sel.size());
  }
  for (size_t i = 0; i < h->entries.size(); ++i) {
    h->entries[i].pool_row = static_cast<uint32_t>(i);
  }
  h->pool = std::move(dense);
  h->pool_rows = h->entries.size();
}

Status TopNOp::Materialize() {
  InitBatchFor(output_, &result_);
  materialized_ = true;
  GlobalSortInstruments().topn_fused->Add(1);
  if (capacity_ == 0 || limit_ == 0) return Status::OK();  // never pulls

  const size_t W =
      (ctx_ != nullptr && ctx_->parallel()) ? static_cast<size_t>(ctx_->dop)
                                            : 1;
  heaps_.resize(W);
  for (auto& h : heaps_) InitBatchFor(output_, &h.pool);

  std::vector<const ColumnVector*> cols;
  std::vector<bool> desc;
  uint64_t seq_base = 0;
  RowBatch in;
  for (;;) {
    DASHDB_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
    if (!more) break;
    const size_t n = in.num_rows();
    if (n == 0) continue;
    std::vector<ColumnVector> key_cols;
    for (const auto& k : keys_) {
      DASHDB_ASSIGN_OR_RETURN(ColumnVector cv, k.expr->Evaluate(in, *ctx_));
      key_cols.push_back(std::move(cv));
    }
    cols.clear();
    desc.clear();
    for (size_t k = 0; k < keys_.size(); ++k) {
      cols.push_back(&key_cols[k]);
      desc.push_back(keys_[k].desc);
    }
    if (W > 1 && n >= 8192) {
      // Per-thread heaps over disjoint row slices; the slice owner is
      // fixed by the slice index, so results are DOP-deterministic.
      ctx_->pool->ParallelFor(
          W,
          [&](size_t w) {
            const size_t lo = w * n / W, hi = (w + 1) * n / W;
            if (lo >= hi) return;
            NormalizedKeyColumn nk;
            nk.Build(cols, desc, lo, hi);
            Consume(&heaps_[w], in, nk, lo, hi, seq_base);
          },
          ctx_->dop, query_ctx());
      DASHDB_RETURN_IF_ERROR(CheckQueryAlive());
    } else {
      NormalizedKeyColumn nk;
      nk.Build(cols, desc, 0, n);
      Consume(&heaps_[0], in, nk, 0, n, seq_base);
    }
    seq_base += n;
  }

  int64_t held = 0;
  for (const auto& h : heaps_) {
    held += BatchMemoryBytes(h.pool);
    for (const auto& e : h.entries) {
      held += static_cast<int64_t>(e.key.size() + sizeof(Heap::Entry));
    }
  }
  DASHDB_RETURN_IF_ERROR(ChargeMemory(held, "topn heaps"));

  // Merge the per-thread heaps: total order on (key, seq), then emit rows
  // [offset, offset+limit) — identical to Sort + Limit over the same input.
  struct Ref {
    const Heap::Entry* e;
    const Heap* h;
  };
  std::vector<Ref> refs;
  for (const auto& h : heaps_) {
    if (!h.entries.empty()) ++heaps_used_;
    for (const auto& e : h.entries) refs.push_back({&e, &h});
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    int c = CompareBytes(
        reinterpret_cast<const uint8_t*>(a.e->key.data()), a.e->key.size(),
        reinterpret_cast<const uint8_t*>(b.e->key.data()), b.e->key.size());
    return c != 0 ? c < 0 : a.e->seq < b.e->seq;
  });
  const size_t first = std::min(static_cast<size_t>(offset_), refs.size());
  const size_t last =
      std::min(first + static_cast<size_t>(limit_), refs.size());
  for (size_t i = first; i < last; ++i) {
    AppendRowFrom(refs[i].h->pool, refs[i].e->pool_row, &result_);
  }
  heaps_.clear();
  return Status::OK();
}

Result<bool> TopNOp::NextImpl(RowBatch* out) {
  if (!materialized_) DASHDB_RETURN_IF_ERROR(Materialize());
  if (done_) return false;
  *out = std::move(result_);
  done_ = true;
  return out->num_rows() > 0;
}

std::string TopNOp::AnalyzeExtra() const {
  if (!materialized_) return std::string();
  char buf[64];
  std::snprintf(buf, sizeof(buf), " strategy=topn capacity=%zu heaps=%zu",
                capacity_, heaps_used_);
  return buf;
}

}  // namespace dashdb
