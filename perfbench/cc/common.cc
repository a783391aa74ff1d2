#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>


namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  uint64_t v = 0;
  for (int i = 0; i < 10 && (in >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

namespace {

double StatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::char_traits<char>::length(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::stod(line.substr(len)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return StatusMb("VmHWM:"); }

double RestingRssMb() {
  malloc_trim(0);
  return StatusMb("VmRSS:");
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

Digest ResultDigest(const dashdb::QueryResult& r) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0x1f;
    h *= 1099511628211ULL;
  };
  Digest d;
  mix(std::to_string(r.affected_rows));
  mix(std::to_string(r.rows.columns.size()));
  const size_t n = r.rows.num_rows();
  mix(std::to_string(n));
  for (size_t i = 0; i < n; ++i) {
    for (const auto& col : r.rows.columns) {
      const dashdb::Value v = col.GetValue(i);
      if (!v.is_null() && v.type() == dashdb::TypeId::kDouble) {
        mix("D");
        d.doubles.push_back(v.AsDouble());
      } else {
        mix(v.ToString());
      }
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  d.exact = buf;
  return d;
}

bool SameResult(const Digest& a, const Digest& b) {
  if (a.exact != b.exact || a.doubles.size() != b.doubles.size()) return false;
  for (size_t i = 0; i < a.doubles.size(); ++i) {
    const double x = a.doubles[i], y = b.doubles[i];
    if (std::isnan(x) || std::isnan(y)) {
      if (std::isnan(x) != std::isnan(y)) return false;
      continue;
    }
    if (x == y) continue;  // also equal infinities
    if (!(std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y)) + 1e-6)) {
      return false;
    }
  }
  return true;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(std::max(x, 1e-9));
  return std::exp(s / static_cast<double>(v.size()));
}

std::vector<double> ShapeMedians(const std::vector<Exec>& execs,
                                 std::vector<std::string>* notes) {
  std::map<int, std::vector<double>> by_shape;
  for (const Exec& e : execs) {
    if (e.primary && e.tmpl >= 0) by_shape[e.tmpl].push_back(e.ms);
  }
  std::vector<double> medians;
  for (auto& [t, v] : by_shape) {
    medians.push_back(Median(v));
    if (notes == nullptr) continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "template %2d: n=%-6zu median_ms=%.3f", t,
                  v.size(), medians.back());
    notes->push_back(buf);
  }
  return medians;
}

void AddEndToEnd(const std::vector<Exec>& timed, double wall_s,
                 double report_wall_s, bool stream,
                 const std::vector<double>& setup_samples, RunResult* out) {
  std::vector<double> primary, selects;
  size_t primary_ok = 0, report_ok = 0;
  for (const Exec& e : timed) {
    if (e.select) selects.push_back(e.ms);
    if (e.report) report_ok += e.ok;
    if (!e.primary) continue;
    primary.push_back(e.ms);
    primary_ok += e.ok;
  }
  const std::vector<double> shapes = ShapeMedians(timed, &out->notes);
  const double tail_q = stream ? 0.95 : 0.99;
  out->Add("setup_s", Median(setup_samples), "s");
  out->Add("qps", primary_ok / wall_s, "stmt/s");
  out->Add("geomean_ms", GeoMean(shapes), "ms");
  out->Add("p50_ms", stream ? Median(shapes) : Median(primary), "ms");
  out->Add("tail_ms", Quantile(primary, tail_q), "ms");
  out->Add("report_qps", report_ok / report_wall_s, "stmt/s");
  out->Add("select_p50_ms", stream ? Median(shapes) : Median(selects), "ms");
  char buf[96];
  std::snprintf(buf, sizeof(buf), "primary statements n=%zu, tail_ms = p%.0f",
                primary.size(), tail_q * 100);
  out->notes.push_back(buf);
  out->printed.push_back({"p50_all_ms", Median(primary), "ms"});
  out->printed.push_back({"p95_ms", Quantile(primary, 0.95), "ms"});
  out->printed.push_back({"p99_ms", Quantile(primary, 0.99), "ms"});
}

void Verify(const std::vector<Exec>& timed,
            const std::map<std::string, Digest>& reference,
            bool corrupt_first, RunResult* out) {
  int shown = 0;
  bool corrupt = corrupt_first;
  for (const Exec& e : timed) {
    ++out->attempted;
    if (!e.ok) {
      ++out->failed;
      continue;
    }
    Digest digest = e.digest;
    if (corrupt) {
      digest.exact[0] = digest.exact[0] == '0' ? '1' : '0';
      corrupt = false;
    }
    auto it = reference.find(e.key.empty() ? e.sql : e.key);
    if (it == reference.end() || !SameResult(it->second, digest)) {
      ++out->failed;
      if (shown++ < 3) {
        std::fprintf(stderr,
                     "perfbench: result mismatch (got %s, want %s): %.200s\n",
                     digest.exact.c_str(),
                     it == reference.end() ? "<none>" : it->second.exact.c_str(),
                     e.sql.c_str());
      }
    }
  }
}

namespace {

std::string Quote(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ResultJson(const RunResult& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i ? ", " : "") << Quote(m.name) << ": {\"value\": " << Num(m.value)
       << ", \"unit\": " << Quote(m.unit) << "}";
  }
  os << "}}";
  return os.str();
}

std::string MetaJson(const RunResult& r) {
  std::ostringstream os;
  os << "{\"meta\": {";
  size_t i = 0;
  for (const auto& [k, v] : r.meta) {
    os << (i++ ? ", " : "") << Quote(k) << ": " << Quote(v);
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
