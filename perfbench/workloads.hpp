// workloads.hpp — the four workloads of the pipeline benchmark.
//
//   flow   design source -> optimized netlist -> equivalence verdict, both
//          flows, once per round (front end, lowering, dataflow facts,
//          timing, opt::Pipeline::standard, kEvent equivalence, one planted
//          fault per round that must be caught);
//   jit    cold native start: every round builds the RTL and gate
//          NativeEngines of a fixed design subset into an empty JIT cache,
//          then cross-checks a short seeded run against the oracles;
//   sim    steady-state 256-lane native simulation of all 12 designs at
//          both levels, engines loaded from a warm JIT disk cache;
//   nojit  the sim rounds on the interpreted fallbacks (force_fallback).
//
// A workload is driven by pipeline_bench.cpp: setup(), then rounds back
// to back on one thread; parallel work goes only through
// par::Pool::global(), whose context count run.py fixes.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch root: JIT caches, TMPDIR, trace file
  unsigned contexts = 1;  ///< par::Pool::global() size, fixed by run.py
  bool setup_only = false;
  /// Self-test fault: "mutant" plants a no-op fault in the flow workload,
  /// which the check must then report as uncaught.
  std::string inject;
  double ref_area_ge = 0.0;   ///< EXPERIMENTS.md R1 post-opt total area
  double ref_fmax_mhz = 0.0;  ///< EXPERIMENTS.md R2 post-opt flow fmax
};

/// Operations attempted and failed, with the first failure messages.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what);
};

/// Layer counts of one phase (setup or one round), by per-layer metric
/// name.  Time rows named "<span>_s" also receive the spans' self time.
using Counts = std::map<std::string, double>;

class Workload {
 public:
  Workload(const Options& opt, Tracer& tr) : opt_(opt), tr_(tr) {}
  virtual ~Workload() = default;

  /// Everything a cold process does before its first round.
  virtual void setup(Tally& tally, Counts& counts) = 0;
  /// One round with its output checks.  `steady` is false for the first
  /// round (part of the set-up time) and true afterwards; per-round rates
  /// sample steady rounds only.
  virtual void round(bool steady, Tally& tally, Counts& counts) = 0;
  /// Untimed work after each round, the first one included.
  virtual void between_rounds(Tally&) {}
  /// Per-layer rows that describe set-up rather than a round.
  virtual bool setup_row(const std::string&) const { return false; }

  /// End-to-end samples of this process by metric name: area_ge,
  /// fmax_mhz, lane_cycles_per_s, and "first_cycle_s/<engine>" per engine.
  /// run.py pools the samples of all its processes and reports medians;
  /// first_cycle_s is the geometric mean over engines of their medians.
  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }

 protected:
  const Options& opt_;
  Tracer& tr_;
  std::map<std::string, std::vector<double>> samples_;

  /// Construction-to-first-step() time of one engine.
  void first_cycle(const std::string& engine, double seconds) {
    samples_["first_cycle_s/" + engine].push_back(seconds);
  }
  /// Simulated RTL plus gate lane-cycles of a round per second of the
  /// round, which started at `start` (steady rounds only).
  void lane_rate(bool steady, double lane_cycles, double start) {
    if (steady)
      samples_["lane_cycles_per_s"].push_back(lane_cycles /
                                              (now_s() - start));
  }
};

std::unique_ptr<Workload> make_workload(const Options& opt, Tracer& tr);

/// Per-layer metric names and units, in output order.  Every workload
/// prints every row; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_rows();

}  // namespace perfbench
