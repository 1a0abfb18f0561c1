// pipeline_bench — one process of the pipeline benchmark (see README.md).
//
// Usage:
//   pipeline_bench --workload flow|jit|sim|nojit --seed N --seconds S
//                  --trace 0|1 --work DIR --contexts N
//                  [--setup-only] [--ref-area GE] [--ref-fmax MHZ]
//                  [--inject mutant] [--trace-out FILE]
//
// Runs the workload's set-up and first round and prints
//   {"first_verified_mono": <CLOCK_MONOTONIC seconds>}
// as soon as that round's output checks are done (run.py subtracts the
// spawn time to get setup_s).  Then, unless --setup-only, it runs rounds
// back to back until S seconds have passed and at least one has run.  The
// last line is {"result": {...}}: operations attempted and failed, the
// end-to-end samples (round times, peak RSS and the workload's own) and,
// with --trace 1, the per-layer rows.  With --trace 1 the rounds alternate
// untraced and traced; per-layer rows come from the traced ones and the
// difference of the two medians is the tracing overhead.
//
// Exit codes: 0 measured (failed operations are in the result), 2 usage
// error or a non-optimized build.

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "par/pool.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Counts;
using perfbench::now_s;

/// Rounds after the first that every process measures, whatever --seconds
/// says (per kind, untraced and traced, with --trace 1).
constexpr unsigned kMinRounds = 1;
constexpr unsigned kMinTracedRounds = 2;

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto u = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", u);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process (VmHWM) in MB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

double load_avg() {
  double l[1] = {0.0};
  return getloadavg(l, 1) == 1 ? l[0] : -1.0;
}

/// First line of `c++ --version`: the compiler the JIT invokes by default.
std::string compiler_version() {
  std::string ver;
  if (FILE* p = ::popen("c++ --version 2>/dev/null", "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof buf, p) != nullptr) ver = buf;
    ::pclose(p);
  }
  while (!ver.empty() && (ver.back() == '\n' || ver.back() == '\r'))
    ver.pop_back();
  return ver;
}

/// The ISA flags the JIT adds to its compile line on this host.
std::string isa_flags() {
  std::string f;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) f += " -mavx2";
  if (__builtin_cpu_supports("avx512f")) f += " -mavx512f";
  if (!f.empty()) f.erase(0, 1);
#endif
  return f;
}

bool parse(int argc, char** argv, perfbench::Options& o,
           std::string& trace_out) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if ((v = next()) == nullptr) return false;
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = std::string(v) == "1";
    else if (a == "--work") o.work_dir = v;
    else if (a == "--contexts")
      o.contexts = static_cast<unsigned>(std::stoul(v));
    else if (a == "--ref-area") o.ref_area_ge = std::stod(v);
    else if (a == "--ref-fmax") o.ref_fmax_mhz = std::stod(v);
    else if (a == "--inject") o.inject = v;
    else if (a == "--trace-out") trace_out = v;
    else return false;
  }
  return !o.workload.empty() && !o.work_dir.empty() && o.contexts > 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "pipeline_bench: refusing to measure a non-optimized "
                       "build; configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  perfbench::Options opt;
  std::string trace_out;
  try {
    if (!parse(argc, argv, opt, trace_out)) {
      std::fprintf(stderr, "usage: see the header of pipeline_bench.cpp\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: bad argument: %s\n", e.what());
    return 2;
  }

  // The process sees only what the benchmark sets: a fixed pool size, its
  // own compiler scratch space, and no environment overrides of the JIT or
  // the optimizer's self-check (the Release defaults a user gets).
  namespace fs = std::filesystem;
  const fs::path tmp =
      fs::path(opt.work_dir) / ("tmp-" + std::to_string(::getpid()));
  fs::create_directories(tmp);
  ::setenv("TMPDIR", tmp.c_str(), 1);
  ::setenv("OSSS_THREADS", std::to_string(opt.contexts).c_str(), 1);
  for (const char* v : {"OSSS_NO_JIT", "OSSS_CC", "OSSS_OPT_CHECK",
                        "OSSS_JIT_CACHE_DIR", "OSSS_JIT_CACHE_MAX_BYTES"})
    ::unsetenv(v);

  std::printf("{\"env\":{\"build_type\":\"release\",\"compiler\":%s,"
              "\"isa_flags\":%s,\"nproc\":%u,\"contexts\":%u,"
              "\"load_start\":%s}}\n",
              json_str(compiler_version()).c_str(),
              json_str(isa_flags()).c_str(),
              osss::par::hardware_threads(), osss::par::Pool::global().size(),
              json_num(load_avg()).c_str());
  std::fflush(stdout);

  perfbench::Tracer tr;
  tr.enable(opt.trace);
  perfbench::Tally tally;
  Counts setup_counts, first_counts;
  std::map<std::string, double> setup_self;
  std::vector<double> untraced_s, traced_s;
  std::vector<Counts> traced_rows;
  std::unique_ptr<perfbench::Workload> w;
  try {
    w = perfbench::make_workload(opt, tr);
    const std::size_t mark = tr.size();
    {
      auto s = tr.span("setup");
      w->setup(tally, setup_counts);
    }
    setup_self = tr.self_seconds(mark, tr.size());
    {
      auto s = tr.span("round");
      w->round(false, tally, first_counts);
    }
    std::printf("{\"first_verified_mono\":%.9f}\n", now_s());
    std::fflush(stdout);
    if (!opt.setup_only) w->between_rounds(tally);

    const double start = now_s();
    for (unsigned i = 0; !opt.setup_only; ++i) {
      const bool traced = opt.trace && i % 2 == 1;
      tr.enable(traced);
      Counts rc;
      const std::size_t m = tr.size();
      const double t0 = now_s();
      {
        auto s = tr.span("round");
        w->round(true, tally, rc);
      }
      const double dt = now_s() - t0;
      if (traced) {
        for (const auto& [name, sec] : tr.self_seconds(m, tr.size()))
          rc[name + "_s"] += sec;
        traced_rows.push_back(std::move(rc));
        traced_s.push_back(dt);
      } else {
        untraced_s.push_back(dt);
      }
      w->between_rounds(tally);
      const unsigned want = opt.trace ? kMinTracedRounds : kMinRounds;
      if (now_s() - start >= opt.seconds && untraced_s.size() >= want &&
          (!opt.trace || traced_s.size() >= want))
        break;
    }
  } catch (const std::exception& e) {
    tally.check(false, std::string("exception: ") + e.what());
  }
  // End-to-end samples; run.py takes medians over all of its processes.
  std::map<std::string, std::vector<double>> samples;
  if (w) samples = w->samples();
  samples["round_s"] = untraced_s;
  samples["peak_rss_mb"] = {peak_rss_mb()};
  std::ostringstream e2e, layer;
  for (const auto& [name, vals] : samples) {
    e2e << (e2e.tellp() > 0 ? "," : "") << json_str(name) << ":[";
    for (std::size_t i = 0; i < vals.size(); ++i)
      e2e << (i ? "," : "") << json_num(vals[i]);
    e2e << "]";
  }
  for (const auto& [name, unit] : perfbench::per_layer_rows()) {
    if (!opt.trace) break;
    double v = 0.0;
    if (name == "trace.overhead_s") {
      v = median(traced_s) - median(untraced_s);
    } else if (w && w->setup_row(name)) {
      const std::string stem =
          name.ends_with("_s") ? name.substr(0, name.size() - 2) : "";
      v = setup_counts[name] + (stem.empty() ? 0.0 : setup_self[stem]);
    } else {
      std::vector<double> vals;
      for (Counts& rc : traced_rows) vals.push_back(rc[name]);
      v = median(vals);
    }
    layer << (layer.tellp() > 0 ? "," : "") << json_str(name)
          << ":{\"value\":" << json_num(v) << ",\"unit\":" << json_str(unit)
          << "}";
  }
  if (opt.trace && !trace_out.empty()) tr.write_chrome(trace_out);
  std::printf("{\"result\":{\"attempted\":%llu,\"failed\":%llu,"
              "\"traced_rounds\":%zu,\"load_end\":%s,\"samples\":{%s},"
              "\"per_layer\":{%s},\"notes\":[",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), traced_s.size(),
              json_num(load_avg()).c_str(), e2e.str().c_str(),
              layer.str().c_str());
  for (std::size_t i = 0; i < tally.notes.size(); ++i)
    std::printf("%s%s", i ? "," : "", json_str(tally.notes[i]).c_str());
  std::printf("]}}\n");
  std::fflush(stdout);
  std::error_code ec;
  fs::remove_all(tmp, ec);
  return 0;
}
