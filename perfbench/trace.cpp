#include "trace.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

thread_local std::uint64_t tl_current = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t idx = next++;
  return idx;
}

}  // namespace

double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

Tracer::Scope::Scope(Tracer& t, const char* name, std::uint64_t parent) {
  if (!t.enabled()) return;
  t_ = &t;
  name_ = name;
  id_ = t.open_id();
  parent_ = parent == kCurrent ? tl_current : parent;
  saved_ = tl_current;
  tl_current = id_;
  start_ = now_s();
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  const double end = now_s();
  tl_current = saved_;
  t_->close(Span{name_, start_, end, id_, parent_, thread_index()});
}

std::uint64_t Tracer::current() { return tl_current; }

std::uint64_t Tracer::open_id() {
  std::lock_guard<std::mutex> hold(mu_);
  return next_id_++;
}

void Tracer::close(Span s) {
  std::lock_guard<std::mutex> hold(mu_);
  spans_.push_back(std::move(s));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> hold(mu_);
  return spans_.size();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> hold(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::self_seconds(std::size_t from,
                                                   std::size_t to) const {
  std::vector<Span> all = spans();
  to = std::min(to, all.size());
  // Children are looked up over every span: a child closes before its
  // parent, so it may sit before `from` only if the parent started earlier
  // than the window, which the callers' marks never split.
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      kids;
  for (const Span& s : all)
    if (s.parent != 0) kids[s.parent].emplace_back(s.start, s.end);
  std::map<std::string, double> out;
  for (std::size_t i = from; i < to; ++i) {
    const Span& s = all[i];
    double covered = 0.0;
    if (const auto it = kids.find(s.id); it != kids.end()) {
      // Union of the child intervals clipped to the parent: children on
      // pool workers may overlap each other.
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = 0.0, hi = -1.0;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start);
        b = std::min(b, s.end);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    out[s.name] += std::max(0.0, (s.end - s.start) - covered);
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  const std::vector<Span> all = spans();
  double t0 = 0.0;
  if (!all.empty()) {
    t0 = all.front().start;
    for (const Span& s : all) t0 = std::min(t0, s.start);
  }
  std::ofstream f(path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Span names are benchmark-chosen identifiers: no JSON escaping needed.
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,",
                  s.tid, (s.start - t0) * 1e6, (s.end - s.start) * 1e6);
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << buf
      << "\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
