// Shared pieces of the perfbench program: command-line options, wall-clock
// and process-resource probes, result digests, order statistics, and the
// metric list every workload fills in.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sql/engine.h"

namespace perfbench {

/// Engine degree of parallelism for every served instance (the host the
/// benchmark was sized on has 4 cores; the value is recorded in the
/// result metadata).
inline constexpr int kDop = 4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny data and run lengths: the benchmark's own smoke test.
  bool tiny = false;
  /// Flips one recorded result digest before verification, to prove the
  /// correctness check trips.
  bool corrupt_digest = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_out = ".bench_out";
};

double NowSeconds();             ///< steady clock, seconds
double ProcessCpuSeconds();      ///< user + system CPU of this process
/// Host-wide CPU ticks (/proc/stat): all, and stolen by the hypervisor.
struct CpuTicks {
  uint64_t total = 0, steal = 0;
};
CpuTicks ReadCpuTicks();
double PeakRssMb();              ///< VmHWM of this process
/// VmRSS after returning freed heap to the OS: what the process holds.
double RestingRssMb();
/// Returns freed heap to the OS and restarts the VmHWM watermark at the
/// current resident size.
void ResetPeakRss();

/// Canonical digest of a statement's outcome: a hash of the affected-row
/// count and every non-DOUBLE cell in its repository text form
/// (Value::ToString), plus the DOUBLE cells themselves. Column names are
/// left out so a prepared execution and its literal-substituted text
/// digest the same.
struct Digest {
  std::string exact;
  std::vector<double> doubles;
};
Digest ResultDigest(const dashdb::QueryResult& r);
/// Equal hashes and DOUBLE cells equal up to summation order: a parallel
/// or sharded SUM adds the same values in another order, which moves the
/// last bits (|a-b| <= 1e-9 * max(|a|,|b|) + 1e-6).
bool SameResult(const Digest& a, const Digest& b);

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
/// Geometric mean of strictly positive values.
double GeoMean(const std::vector<double>& v);

/// One executed statement, as the closed-loop client saw it.
struct Exec {
  int tmpl = 0;          ///< template / statement-class index
  bool report = false;   ///< expensive (report-class) statement
  /// Counted in qps / percentiles / geomean (bi_concurrent: interactive
  /// connections only).
  bool primary = true;
  bool select = true;    ///< read statement
  double ms = 0;         ///< client-side wall time of the wire call
  bool ok = true;
  std::string sql;       ///< text (prepared calls: literal-substituted)
  Digest digest;
  /// Reference lookup key; empty = the text. Streams whose texts repeat
  /// with different answers (etl_mixed) key by stream position.
  std::string key;
  /// Set for PREPARE/EXECUTE calls: the prepared name and its parameters.
  std::string prepared;
  std::vector<dashdb::Value> params;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the metrics, the correctness verdict and its
/// counts, and the metadata line printed before the result.
struct RunResult {
  std::vector<Metric> metrics;
  std::map<std::string, std::string> meta;
  uint64_t attempted = 0;
  uint64_t failed = 0;       ///< errors + refused/shed + result mismatches
  /// Human-readable lines printed before the result (not parsed).
  std::vector<std::string> notes;
  /// Printed as metrics but left out of the result: figures that
  /// cannot be bounded (see perfbench/README.md).
  std::vector<Metric> printed;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Median latency of each statement shape (Exec::tmpl >= 0, primary
/// statements only); appends one "template" line per shape to `notes`
/// when given.
std::vector<double> ShapeMedians(const std::vector<Exec>& execs,
                                 std::vector<std::string>* notes = nullptr);

/// The end-to-end metrics every workload reports from its timed phase:
/// qps over the primary class, its median and tail latency, the geomean
/// of per-shape medians, report-class throughput and the read median.
/// `stream` marks the single-connection template streams (tpcds_power,
/// mpp_tpcds): ~13 templates run equally often there, so a plain median
/// over statements falls on the gap between two templates' latencies and
/// jumps between them; their p50_ms / select_p50_ms are the median of the
/// per-template medians instead, and their tail is p95 (a 15 s run holds
/// ~170-240 statements: p95 is the highest percentile with ten samples
/// beyond it). Elsewhere the tail is p99.
void AddEndToEnd(const std::vector<Exec>& timed, double wall_s,
                 double report_wall_s, bool stream,
                 const std::vector<double>& setup_samples, RunResult* out);

/// Compares every executed statement's digest with the reference digest
/// under its key (Exec::key, else the text); counts errors and mismatches
/// into `out->failed`. Prints the first few mismatches to stderr.
void Verify(const std::vector<Exec>& timed,
            const std::map<std::string, Digest>& reference,
            bool corrupt_first, RunResult* out);

/// Renders the final result line: {"correct", "attempted", "failed",
/// "metrics"}.
std::string ResultJson(const RunResult& r);
std::string MetaJson(const RunResult& r);

}  // namespace perfbench
