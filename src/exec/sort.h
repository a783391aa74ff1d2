// Parallel sort & Top-N (paper II.B.6/II.B.7 applied to ORDER BY): the
// last serial operator made columnar and parallel.
//
// SortOp encodes all keys per row into one memcmp-able normalized string
// (common/sort_key.h), sorts contiguous runs across the pool with
// ThreadPool::ParallelFor, then merges the runs — splitter-partitioned so
// merge segments also run in parallel, each segment driven by a
// tournament tree — and gathers the output column-wise by order vector.
// Ties always break on the global row index, so the result is
// byte-identical to the retained serial stable_sort oracle at any DOP.
//
// TopNOp is the ORDER BY + LIMIT/OFFSET fusion the binder emits when the
// requested prefix is small: bounded (limit+offset)-entry max-heaps —
// per-thread on large batches — admit a row only when it beats the
// current boundary, with a global sequence number as tie-break so the
// kept prefix matches the stable full sort exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sort_key.h"
#include "exec/operator.h"

namespace dashdb {

/// One sort key.
struct SortKey {
  ExprPtr expr;
  bool desc = false;
};

/// Full sort (materializing). `serial` forces the pre-existing
/// row-comparison stable_sort path (`SET SORT SERIAL`) — kept as the
/// byte-identity oracle and bench baseline.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys, const ExecContext* ctx,
         bool serial = false);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override {
    return "Sort(keys=" + std::to_string(keys_.size()) + ")";
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 protected:
  std::string AnalyzeExtra() const override;

 private:
  Status Materialize();
  /// The pre-PR single-threaded stable_sort over typed cell comparisons.
  void SerialOrder(const std::vector<ColumnVector>& key_cols,
                   std::vector<uint32_t>* order) const;
  /// Normalized-key run sort + (parallel) tournament-tree merge.
  Status ParallelOrder(const RowBatch& all,
                       const std::vector<ColumnVector>& key_cols,
                       std::vector<uint32_t>* order);

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  const ExecContext* ctx_;
  bool serial_;
  RowBatch result_;
  bool done_ = false;
  bool materialized_ = false;
  // EXPLAIN ANALYZE detail, filled by Materialize.
  size_t runs_used_ = 0;
  size_t merge_fanin_ = 0;
};

/// Bounded-heap ORDER BY + LIMIT/OFFSET fusion. Streams the child,
/// keeping only the best (limit+offset) rows; per-thread heaps on large
/// batches, merged at materialization. Emits rows [offset, offset+limit)
/// of the total order — byte-identical to Sort + Limit.
class TopNOp : public Operator {
 public:
  TopNOp(OperatorPtr child, std::vector<SortKey> keys, int64_t limit,
         int64_t offset, const ExecContext* ctx);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override {
    return "TopN(keys=" + std::to_string(keys_.size()) +
           " k=" + std::to_string(limit_) +
           " offset=" + std::to_string(offset_) + ")";
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 protected:
  std::string AnalyzeExtra() const override;

 private:
  /// One bounded heap plus the pool of rows its entries point into.
  struct Heap {
    struct Entry {
      std::string key;    ///< normalized key bytes
      uint64_t seq = 0;   ///< global input row number (stability tie-break)
      uint32_t pool_row = 0;
    };
    std::vector<Entry> entries;  ///< max-heap on (key, seq)
    RowBatch pool;               ///< admitted rows (output schema)
    size_t pool_rows = 0;
  };

  Status Materialize();
  /// Feeds rows [lo, hi) of `in` (dense) with keys from `keys` (built over
  /// the same range, so local index = row - lo) into `h`. `seq_base` is
  /// the global sequence number of the batch's row 0.
  void Consume(Heap* h, const RowBatch& in, const NormalizedKeyColumn& keys,
               size_t lo, size_t hi, uint64_t seq_base);
  void CompactPool(Heap* h);

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  int64_t limit_, offset_;
  size_t capacity_;  ///< limit + offset: rows every heap retains
  const ExecContext* ctx_;
  std::vector<Heap> heaps_;
  RowBatch result_;
  bool done_ = false;
  bool materialized_ = false;
  size_t heaps_used_ = 0;
};

/// Upper bound on limit+offset for binder Top-N fusion; above it the full
/// sort's O(n log n) beats maintaining giant heaps.
inline constexpr int64_t kTopNMaxCapacity = 65536;

}  // namespace dashdb
