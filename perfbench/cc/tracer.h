// The traced run's span recorder. Spans are recorded only by perfbench,
// around its calls into each module's public functions; nothing inside the
// engine is instrumented. Spans stay in memory and are written out (JSON
// lines) when the run ends. Not thread-safe: each client thread owns one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root
  uint64_t stmt = 0;    ///< shared by every span of one statement
  std::string name;
  double start = 0, end = 0;  ///< steady-clock seconds
};

class Tracer {
 public:
  /// Opens a span; returns its id.
  uint32_t Begin(const std::string& name, uint32_t parent, uint64_t stmt);
  void End(uint32_t id);
  /// Records an already-measured interval (the engine's EXPLAIN ANALYZE
  /// operator spans, laid out inside the statement that ran them).
  uint32_t Add(const std::string& name, uint32_t parent, uint64_t stmt,
               double start, double end);

  /// Duration of span `id` in ms.
  double Ms(uint32_t id) const {
    return (spans_[id - 1].end - spans_[id - 1].start) * 1e3;
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Append(const Tracer& other);

  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
