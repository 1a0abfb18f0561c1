// Golden per-pass statistics over the six ExpoCU components (OSSS flow),
// mirroring the emitter goldens: a silent optimization regression — a rule
// that stops matching, a pass that stops converging — shifts the committed
// area/depth trajectory and fails here, while small legitimate drifts stay
// inside the tolerance bands (±2% area, ±1 logic level).
//
// SatSweepCountersExact pins satsweep's decisions with no tolerance at all:
// a merge that drifts moves a counter even when the area stays in band.
//
// The final block pins the headline result the R1/R2 experiments report:
// at least three of the six components shrink by ≥10% gate area, and no
// component's critical path gets longer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "expocu/flows.hpp"
#include "gate/lower.hpp"
#include "gate/timing.hpp"
#include "lint/dataflow.hpp"
#include "opt/opt.hpp"

namespace osss::opt {
namespace {

struct PassGolden {
  const char* pass;
  double area_after;       ///< GE after this pass, first pipeline round
  std::size_t depth_after; ///< logic levels after this pass, first round
};

struct ComponentGolden {
  const char* component;
  PassGolden rounds[4];   ///< rewrite, satsweep, retime, techmap (round 1)
  double final_area;      ///< GE at the pipeline fixpoint
  std::size_t final_depth;
};

// Harvested from osss-opt --flow=osss with the generic library.
const ComponentGolden kGolden[] = {
    {"camera_sync",
     {{"rewrite", 89.5, 2}, {"satsweep", 89.5, 2}, {"retime", 89.5, 1},
      {"techmap", 89.5, 1}},
     89.5, 1},
    {"histogram",
     {{"rewrite", 472.5, 18}, {"satsweep", 462, 16}, {"retime", 462, 16},
      {"techmap", 462, 16}},
     462, 16},
    {"threshold_calc",
     {{"rewrite", 2131.5, 39}, {"satsweep", 2131.5, 39},
      {"retime", 2131.5, 39}, {"techmap", 1954.5, 26}},
     1954.5, 26},
    {"param_calc",
     {{"rewrite", 2494, 57}, {"satsweep", 2244, 57}, {"retime", 2244, 57},
      {"techmap", 1913, 36}},
     1893, 36},
    {"i2c_master",
     {{"rewrite", 1108.5, 66}, {"satsweep", 751.5, 65}, {"retime", 751.5, 65},
      {"techmap", 685, 64}},
     683, 64},
    {"reset_ctrl",
     {{"rewrite", 66.5, 5}, {"satsweep", 64, 4}, {"retime", 64, 4},
      {"techmap", 63, 4}},
     63, 4},
};

void expect_area_near(double got, double want, const std::string& what) {
  const double band = std::max(2.0, 0.02 * want);
  EXPECT_NEAR(got, want, band) << what;
}

void expect_depth_near(std::size_t got, std::size_t want,
                       const std::string& what) {
  const auto g = static_cast<long>(got), w = static_cast<long>(want);
  EXPECT_LE(std::labs(g - w), 1) << what << ": depth " << got << " vs golden "
                                 << want;
}

TEST(OptGolden, PerPassStatsMatchCommittedTrajectory) {
  const gate::Library lib = gate::Library::generic();
  std::map<std::string, gate::Netlist> lowered;
  for (const auto& c : expocu::build_osss_flow())
    lowered.emplace(c.name, gate::lower_to_gates(c.module));

  for (const ComponentGolden& g : kGolden) {
    const auto it = lowered.find(g.component);
    ASSERT_NE(it, lowered.end()) << g.component;
    PipelineOptions po;
    po.lib = &lib;
    Pipeline p = Pipeline::standard(po);
    const gate::Netlist out = p.run(it->second);
    const std::vector<PassStats>& stats = p.stats();
    ASSERT_GE(stats.size(), 4u) << g.component;
    // Every run ends on a zero-change fixpoint round within the round cap.
    std::size_t tail_changes = 0;
    for (std::size_t i = stats.size() - 4; i < stats.size(); ++i)
      tail_changes += stats[i].changes;
    EXPECT_EQ(tail_changes, 0u) << g.component << " did not converge";

    for (std::size_t i = 0; i < 4; ++i) {
      const std::string what =
          std::string(g.component) + "/" + g.rounds[i].pass;
      ASSERT_EQ(stats[i].pass, g.rounds[i].pass) << what;
      expect_area_near(stats[i].area_after, g.rounds[i].area_after, what);
      expect_depth_near(stats[i].depth_after, g.rounds[i].depth_after, what);
    }
    expect_area_near(stats.back().area_after, g.final_area,
                     std::string(g.component) + "/final");
    expect_depth_near(stats.back().depth_after, g.final_depth,
                      std::string(g.component) + "/final");
    expect_area_near(lib.area_of(out), stats.back().area_after,
                     std::string(g.component) + "/stats-vs-netlist");
  }
}

struct SweepRound {
  std::size_t changes, fact_merges, odc_merges, cells_after, sampled_merges;
};

struct SweepGolden {
  const char* flow;
  const char* component;
  std::vector<SweepRound> rounds;  ///< satsweep's stats, one per round
  double final_area;
};

// Harvested from the standard pipeline as the flow benchmark and osss-opt
// run it (generic library, RTL dataflow facts, default satsweep options)
// while satsweep still evaluated cones through per-call leaf maps.  The
// compiled-cone evaluator that replaced them may change speed, never these.
// sampled_merges, which that build did not count, comes from the first
// build that did.
const SweepGolden kSweepGolden[] = {
    {"osss", "camera_sync",
     {{0, 0, 0, 32, 0}, {0, 0, 0, 32, 0}},
     89.5},
    {"osss", "histogram",
     {{4, 0, 1, 99, 2}, {0, 0, 0, 99, 0}},
     462.0},
    {"osss", "threshold_calc",
     {{0, 0, 0, 904, 0}, {0, 0, 0, 727, 0}},
     1954.5},
    {"osss", "param_calc",
     {{117, 3, 26, 1167, 8}, {6, 0, 4, 844, 0}, {0, 0, 0, 825, 0}},
     1893.0},
    {"osss", "i2c_master",
     {{256, 0, 28, 451, 0}, {1, 0, 0, 450, 0}, {0, 0, 0, 450, 0}},
     683.0},
    {"osss", "reset_ctrl",
     {{1, 0, 1, 25, 0}, {0, 0, 0, 24, 0}},
     63.0},
    {"vhdl", "camera_sync",
     {{0, 0, 0, 32, 0}, {0, 0, 0, 32, 0}},
     89.5},
    {"vhdl", "histogram",
     {{4, 0, 1, 99, 2}, {0, 0, 0, 99, 0}},
     462.0},
    {"vhdl", "threshold_calc",
     {{0, 0, 0, 778, 0}, {0, 0, 0, 602, 0}},
     1638.0},
    {"vhdl", "param_calc",
     {{13, 2, 4, 1218, 3}, {8, 0, 5, 886, 0}, {0, 0, 0, 863, 0}},
     2018.0},
    {"vhdl", "i2c_master",
     {{63, 0, 0, 302, 9}, {0, 0, 0, 298, 0}, {0, 0, 0, 296, 0}},
     546.0},
    {"vhdl", "reset_ctrl",
     {{1, 0, 1, 25, 0}, {0, 0, 0, 24, 0}},
     63.0}
};

TEST(OptGolden, SatSweepCountersExact) {
  const gate::Library lib = gate::Library::generic();
  std::map<std::string, const expocu::FlowComponent*> comps;
  const std::vector<expocu::FlowComponent> osss = expocu::build_osss_flow();
  const std::vector<expocu::FlowComponent> vhdl = expocu::build_vhdl_flow();
  for (const auto& c : osss) comps["osss/" + c.name] = &c;
  for (const auto& c : vhdl) comps["vhdl/" + c.name] = &c;
  ASSERT_EQ(comps.size(), std::size(kSweepGolden));

  for (const SweepGolden& g : kSweepGolden) {
    const std::string id = std::string(g.flow) + "/" + g.component;
    const auto it = comps.find(id);
    ASSERT_NE(it, comps.end()) << id;
    PipelineOptions po;
    po.lib = &lib;
    po.self_check = 0;  // no effect on the decisions; the suites cover it
    po.facts = std::make_shared<const std::unordered_map<std::string, bool>>(
        lint::analyze_dataflow(it->second->module).const_reg_bits());
    Pipeline p = Pipeline::standard(po);
    p.run(gate::lower_to_gates(it->second->module));

    std::vector<const PassStats*> sweeps;
    for (const PassStats& s : p.stats())
      if (s.pass == "satsweep") sweeps.push_back(&s);
    ASSERT_EQ(sweeps.size(), g.rounds.size()) << id << ": pipeline rounds";
    for (std::size_t r = 0; r < sweeps.size(); ++r) {
      const std::string what = id + " round " + std::to_string(r + 1);
      EXPECT_EQ(sweeps[r]->changes, g.rounds[r].changes) << what;
      EXPECT_EQ(sweeps[r]->fact_merges, g.rounds[r].fact_merges) << what;
      EXPECT_EQ(sweeps[r]->odc_merges, g.rounds[r].odc_merges) << what;
      EXPECT_EQ(sweeps[r]->cells_after, g.rounds[r].cells_after) << what;
      EXPECT_EQ(sweeps[r]->sampled_merges, g.rounds[r].sampled_merges) << what;
    }
    EXPECT_EQ(p.stats().back().area_after, g.final_area) << id;
  }
}

TEST(OptGolden, HeadlineResultHolds) {
  const gate::Library lib = gate::Library::generic();
  unsigned big_wins = 0;
  for (const auto& c : expocu::build_osss_flow()) {
    const gate::Netlist before = gate::lower_to_gates(c.module);
    PipelineOptions po;
    po.lib = &lib;
    const gate::Netlist after = optimize(before, po);
    const gate::TimingReport tb = gate::analyze_timing(before, lib);
    const gate::TimingReport ta = gate::analyze_timing(after, lib);
    EXPECT_LE(ta.critical_path_ps, tb.critical_path_ps + 1e-6)
        << c.name << ": critical path regressed";
    EXPECT_LE(ta.area_ge, tb.area_ge + 1e-6) << c.name << ": area regressed";
    if (ta.area_ge <= 0.9 * tb.area_ge) ++big_wins;
  }
  EXPECT_GE(big_wins, 3u)
      << "fewer than 3 of 6 ExpoCU components reach a 10% area reduction";
}

}  // namespace
}  // namespace osss::opt
