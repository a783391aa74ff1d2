#include "tracer.h"

#include <cstdio>

namespace perfbench {

uint32_t Tracer::Begin(const std::string& name, uint32_t parent,
                       uint64_t stmt) {
  const double now = NowSeconds();
  return Add(name, parent, stmt, now, now);
}

void Tracer::End(uint32_t id) { spans_[id - 1].end = NowSeconds(); }

uint32_t Tracer::Add(const std::string& name, uint32_t parent, uint64_t stmt,
                     double start, double end) {
  Span s;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.stmt = stmt;
  s.name = name;
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::Append(const Tracer& other) {
  const uint32_t base = static_cast<uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    s.id += base;
    if (s.parent != 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %u, \"parent\": %u, \"stmt\": %llu, \"name\": "
                 "\"%s\", \"start_s\": %.9f, \"end_s\": %.9f}\n",
                 s.id, s.parent, static_cast<unsigned long long>(s.stmt),
                 s.name.c_str(), s.start, s.end);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
