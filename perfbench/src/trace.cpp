#include "trace.h"

#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

Tracer::Scope Tracer::span(std::string name) {
  if (!enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op_;
  s.start_s = now();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return Scope(this, index);
}

void Tracer::close(int index) {
  // Scopes are RAII locals, so the closing span is always the innermost.
  spans_[static_cast<std::size_t>(index)].end_s = now();
  open_.pop_back();
}

std::uint64_t Tracer::begin_op() { return ++op_; }

double Tracer::self_seconds(std::size_t i) const {
  const Span& s = spans_[i];
  // Children of one parent never overlap (one thread, strictly nested), so
  // their coverage is the sum of their durations.
  double covered = 0.0;
  for (std::size_t j = i + 1; j < spans_.size(); ++j) {
    if (spans_[j].parent == static_cast<int>(i)) {
      covered += spans_[j].end_s - spans_[j].start_s;
    }
  }
  return (s.end_s - s.start_s) - covered;
}

std::vector<double> Tracer::self_per_op(const std::string& name) const {
  std::map<std::uint64_t, double> per_op;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) per_op[spans_[i].op] += self_seconds(i);
  }
  std::vector<double> out;
  out.reserve(per_op.size());
  for (const auto& [op, seconds] : per_op) out.push_back(seconds);
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%llu,"
                 "\"self_us\":%.3f}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, i, s.parent,
                 static_cast<unsigned long long>(s.op),
                 self_seconds(i) * 1e6);
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
