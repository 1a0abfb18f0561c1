// trace.hpp — span recorder of the pipeline benchmark.
//
// Spans are recorded only from the benchmark's own files, around each call
// into a library layer.  Each span has a name, a start, an end, its own id
// and its parent's id; the parent is the innermost open span on the same
// thread, or an explicit id for work handed to pool workers.  Spans stay in
// memory and are written out as Chrome trace-event JSON (opens in Perfetto)
// when the run ends.  A disabled tracer records nothing.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in seconds — the clock Python's time.monotonic() reads,
/// so run.py can time a cold process from spawn to a printed stamp.
double now_s();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;     ///< small per-thread index
};

class Tracer {
 public:
  /// RAII span; a no-op when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const noexcept { return id_; }

   private:
    Tracer* t_ = nullptr;
    const char* name_ = nullptr;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t saved_ = 0;
    double start_ = 0.0;
  };

  void enable(bool on) { on_ = on; }
  bool enabled() const noexcept { return on_; }

  /// Open a span whose parent is the innermost open span of this thread.
  Scope span(const char* name) { return Scope(*this, name, kCurrent); }
  /// Open a span under an explicit parent (pool tasks: pass the id of the
  /// span that fanned the work out).
  Scope span(const char* name, std::uint64_t parent) {
    return Scope(*this, name, parent);
  }
  /// Innermost open span on this thread (0 if none or disabled).
  static std::uint64_t current();

  /// Number of spans recorded so far; spans [mark, size) belong to
  /// whatever ran after the mark was taken.
  std::size_t size() const;
  std::vector<Span> spans() const;

  /// Self time per span name over spans [from, to): a span's duration
  /// minus the part of its interval that its child spans cover.
  std::map<std::string, double> self_seconds(std::size_t from,
                                             std::size_t to) const;

  /// Chrome trace-event JSON ("X" events, microseconds; args carry the
  /// span id and parent id).
  bool write_chrome(const std::string& path) const;

 private:
  static constexpr std::uint64_t kCurrent = ~std::uint64_t{0};
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;

  std::uint64_t open_id();
  void close(Span s);
};

}  // namespace perfbench
