#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. Spans are opened and closed
/// on the program's main thread only, around calls into the library's public
/// functions, so a span's parent is simply the innermost span still open.
/// A disabled tracer records nothing and never reads the clock, which is
/// what keeps the untraced run free of tracing cost.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  // seconds since the tracer was created
    double end_s = 0.0;
    int parent = -1;        // index of the parent span; -1 = none
    std::uint64_t op = 0;   // spans of one op share this id
  };

  /// Closes its span on destruction. Returned by value (guaranteed copy
  /// elision), never copied or moved.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled);

  [[nodiscard]] Scope span(std::string name);
  /// Starts a new op: spans opened from now on carry a fresh id.
  std::uint64_t begin_op();

  /// Duration of span i minus the part of it its children cover.
  [[nodiscard]] double self_seconds(std::size_t i) const;
  /// Per op id (ascending), the summed self time of spans named `name`;
  /// ops without such a span are skipped.
  [[nodiscard]] std::vector<double> self_per_op(const std::string& name) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome_json(const std::string& path) const;

 private:
  void close(int index);
  [[nodiscard]] double now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
  std::uint64_t op_ = 0;
};

}  // namespace perfbench
