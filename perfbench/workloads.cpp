#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <unordered_map>
#include <utility>
#include <vector>

#include "expocu/flows.hpp"
#include "gate/codegen.hpp"
#include "gate/equiv.hpp"
#include "gate/lower.hpp"
#include "gate/sim.hpp"
#include "gate/timing.hpp"
#include "jit/jit.hpp"
#include "lint/dataflow.hpp"
#include "opt/opt.hpp"
#include "par/pool.hpp"
#include "rtl/codegen.hpp"
#include "rtl/sim.hpp"
#include "rtl/tape.hpp"
#include "verify/stimgen.hpp"

namespace perfbench {

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (notes.size() < 8) notes.push_back(what);
}

namespace {

namespace fs = std::filesystem;
using osss::sysc::Bits;
using Netlist = osss::gate::Netlist;

// --- sizes -------------------------------------------------------------------
// Chosen so that every timed number covers enough work to repeat within a
// tenth from run to run (see README.md).

/// flow: pre/post equivalence per component on the kEvent oracle.
constexpr unsigned kEquivSequences = 8;
constexpr unsigned kEquivCycles = 256;

/// jit: lanes of the cold-built engines and length of the cross-check.
constexpr unsigned kJitLanes = 64;
constexpr unsigned kJitCheckCycles = 4096;
constexpr unsigned kJitOracleCycles = 256;
/// jit: the OSSS-flow components whose engines every round builds cold,
/// one after another.  camera_sync is the per-compile floor and param_calc
/// the largest design.
const std::vector<std::string> kJitComponents = {"camera_sync", "param_calc"};

/// sim / nojit: lanes, block length and blocks per design per round.
constexpr unsigned kSimLanes = 256;
constexpr unsigned kSimCycles = 256;
constexpr unsigned kSimReps = 56;
constexpr unsigned kNojitReps = 7;
/// Times each sim / nojit engine is built at set-up (and once more after
/// every round).
constexpr unsigned kBuildReps = 3;
/// Oracle sample at set-up: cycles and the lanes replayed on the oracles.
constexpr unsigned kOracleCycles = 256;
const std::vector<unsigned> kOracleLanes = {0, 97, 255};

// --- helpers -----------------------------------------------------------------

std::uint64_t derive(std::uint64_t base, const std::string& tag) {
  return osss::verify::StimGen::derive(base, tag);
}

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fold(std::uint64_t h, std::uint64_t w) {
  return (h ^ w) * 0x100000001b3ull + (h >> 29);
}

osss::par::Pool& pool() { return osss::par::Pool::global(); }

/// Runs body(i) for every task on the pool, longest estimated cost first:
/// one loop per pool context takes the next task from a shared counter
/// (greedy list scheduling), so a round's length does not hinge on how the
/// pool's deques happen to split the tasks.  Returns each task's seconds.
std::vector<double> run_longest_first(
    const std::vector<double>& cost,
    const std::function<void(std::size_t)>& body) {
  std::vector<std::size_t> order(cost.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return cost[a] > cost[b];
  });
  std::vector<double> took(cost.size());
  std::atomic<std::size_t> next{0};
  pool().parallel_for(pool().size(), [&](std::size_t) {
    for (std::size_t k; (k = next.fetch_add(1)) < order.size();) {
      const double t0 = now_s();
      body(order[k]);
      took[order[k]] = now_s() - t0;
    }
  });
  return took;
}

void add_pool_delta(const osss::par::Pool::Stats& before, Counts& c) {
  const osss::par::Pool::Stats now = pool().stats();
  c["par.executed"] += static_cast<double>(now.executed - before.executed);
  c["par.steals"] += static_cast<double>(now.steals - before.steals);
  c["par.stolen_tasks"] +=
      static_cast<double>(now.stolen_tasks - before.stolen_tasks);
}

void add_jit_delta(const osss::jit::CacheStats& before, Counts& c) {
  const osss::jit::CacheStats now = osss::jit::cache_stats();
  c["jit.compiles"] += static_cast<double>(now.compiles - before.compiles);
  c["jit.cache_hits"] += static_cast<double>(now.hits - before.hits);
  c["jit.disk_hits"] += static_cast<double>(now.disk_hits - before.disk_hits);
  c["jit.disk_misses"] +=
      static_cast<double>(now.disk_misses - before.disk_misses);
}

/// One ExpoCU component of one flow, at RTL and lowered to gates.
struct Design {
  std::string flow;  ///< "osss" | "vhdl"
  std::string name;
  osss::rtl::Module module;
  Netlist netlist;
  std::vector<unsigned> in_widths;
  unsigned in_bits = 0;

  std::string id() const { return flow + "." + name; }
};

std::vector<Design> build_designs(Tracer& tr,
                                  const std::vector<std::string>& only) {
  std::vector<Design> out;
  for (int f = 0; f < 2; ++f) {
    std::vector<osss::expocu::FlowComponent> comps;
    {
      auto s = tr.span("expocu.build");
      comps = f == 0 ? osss::expocu::build_osss_flow()
                     : osss::expocu::build_vhdl_flow();
    }
    for (osss::expocu::FlowComponent& c : comps) {
      if (!only.empty() &&
          std::find(only.begin(), only.end(), c.name) == only.end())
        continue;
      Netlist nl = [&] {
        auto s = tr.span("gate.lower");
        return osss::gate::lower_to_gates(c.module);
      }();
      Design d{f == 0 ? "osss" : "vhdl", c.name, std::move(c.module),
               std::move(nl), {}, 0};
      for (const osss::rtl::PortRef& p : d.module.inputs()) {
        const unsigned w = d.module.node(p.node).width;
        d.in_widths.push_back(w);
        d.in_bits += w;
      }
      out.push_back(std::move(d));
    }
  }
  return out;
}

/// Modelled area (sum) and fmax (minimum) of a set of netlists.
std::pair<double, double> qor(const std::vector<const Netlist*>& nls,
                              Tracer& tr) {
  const osss::gate::Library lib = osss::gate::Library::generic();
  double area = 0.0, fmax = std::numeric_limits<double>::infinity();
  for (const Netlist* nl : nls) {
    auto s = tr.span("gate.timing");
    const osss::gate::TimingReport r = osss::gate::analyze_timing(*nl, lib);
    area += r.area_ge;
    fmax = std::min(fmax, r.fmax_mhz);
  }
  return {area, fmax};
}

/// Seeded uniform random stimulus of one design in both lane layouts, so
/// each engine is driven through its own fast input path: RTL engines take
/// one value per lane (their arena is lane-major), gate engines take lane
/// words per input bit (their arena is bit-sliced).
struct Stimulus {
  unsigned cycles = 0;
  unsigned lanes = 0;
  std::size_t ports = 0;
  unsigned in_bits = 0;
  /// [(cycle * ports + port) * lanes + lane]
  std::vector<std::uint64_t> values;
  /// [(cycle * in_bits + bit) * lw + word]
  std::vector<std::uint64_t> sliced;

  unsigned lw() const { return lanes / 64; }
  const std::uint64_t* value_row(unsigned c, std::size_t port) const {
    return values.data() + (c * ports + port) * lanes;
  }
  const std::uint64_t* sliced_row(unsigned c) const {
    return sliced.data() + static_cast<std::size_t>(c) * in_bits * lw();
  }
};

Stimulus make_stimulus(std::uint64_t seed, const Design& d, unsigned cycles,
                       unsigned lanes) {
  Stimulus s{cycles, lanes, d.in_widths.size(), d.in_bits, {}, {}};
  s.values.resize(static_cast<std::size_t>(cycles) * s.ports * lanes);
  s.sliced.assign(static_cast<std::size_t>(cycles) * d.in_bits * s.lw(), 0);
  std::uint64_t st = seed;
  for (unsigned c = 0; c < cycles; ++c) {
    unsigned bit = 0;
    for (std::size_t p = 0; p < s.ports; ++p) {
      const unsigned w = d.in_widths[p];
      const std::uint64_t mask = w >= 64 ? ~0ull : (1ull << w) - 1;
      std::uint64_t* v = s.values.data() + (c * s.ports + p) * lanes;
      std::uint64_t* row = s.sliced.data() +
                           (static_cast<std::size_t>(c) * d.in_bits + bit) *
                               s.lw();
      for (unsigned l = 0; l < lanes; ++l) {
        v[l] = splitmix(st) & mask;
        for (unsigned i = 0; i < w; ++i)
          row[i * s.lw() + l / 64] |= ((v[l] >> i) & 1u) << (l % 64);
      }
      bit += w;
    }
  }
  return s;
}

// --- engines -----------------------------------------------------------------

/// A multi-lane NativeEngine (RTL or gate) behind one driving interface.
class LaneEngine {
 public:
  virtual ~LaneEngine() = default;
  virtual void drive(const Stimulus& s, unsigned cycle) = 0;
  virtual void step() = 0;
  /// Fold a digest of every output into `h`: per port, the sum and the
  /// XOR of its lane values, which both layouts give without a transpose.
  virtual std::uint64_t fold_outputs(std::uint64_t h) = 0;
  virtual Bits output_lane(std::size_t port, unsigned lane) = 0;
  virtual void restore_poweron() = 0;
  virtual bool native() = 0;
};

class RtlLanes final : public LaneEngine {
 public:
  RtlLanes(const Design& d, unsigned lanes,
           const osss::rtl::tape::CodegenOptions& cg)
      : sim_(d.module, osss::rtl::SimMode::kNative, lanes, cg),
        scratch_(lanes) {
    for (const osss::rtl::PortRef& p : d.module.inputs())
      in_.push_back(sim_.input_handle(p.name));
    for (const osss::rtl::PortRef& p : d.module.outputs())
      out_.push_back(sim_.output_handle(p.name));
  }
  void drive(const Stimulus& s, unsigned cycle) override {
    for (std::size_t p = 0; p < in_.size(); ++p) {
      const std::uint64_t* v = s.value_row(cycle, p);
      std::copy(v, v + s.lanes, scratch_.begin());
      sim_.set_input_values(in_[p], scratch_);
    }
  }
  void step() override { sim_.step(); }
  std::uint64_t fold_outputs(std::uint64_t h) override {
    for (const osss::rtl::OutputHandle o : out_) {
      std::uint64_t sum = 0, x = 0;
      for (const std::uint64_t v : sim_.output_values(o)) {
        sum += v;
        x ^= v;
      }
      h = fold(fold(h, sum), x);
    }
    return h;
  }
  Bits output_lane(std::size_t port, unsigned lane) override {
    return sim_.output_lane(out_[port], lane);
  }
  void restore_poweron() override { sim_.restore_poweron(); }
  bool native() override { return sim_.native().native(); }

 private:
  osss::rtl::Simulator sim_;
  std::vector<osss::rtl::InputHandle> in_;
  std::vector<osss::rtl::OutputHandle> out_;
  std::vector<std::uint64_t> scratch_;
};

class GateLanes final : public LaneEngine {
 public:
  GateLanes(const Design& d, unsigned lanes,
            const osss::gate::CodegenOptions& cg)
      : sim_(d.netlist, osss::gate::SimMode::kNative, lanes, cg),
        lw_(sim_.lane_words()) {
    for (std::size_t i = 0; i < d.netlist.inputs().size(); ++i)
      in_.emplace_back(d.netlist.inputs()[i].name, d.in_widths[i] * lw_);
    for (const osss::gate::Bus& b : d.netlist.outputs())
      out_.push_back(b.name);
  }
  void drive(const Stimulus& s, unsigned cycle) override {
    const std::uint64_t* row = s.sliced_row(cycle);
    for (const auto& [name, n] : in_) {
      sim_.set_input_lanes(name, std::span<const std::uint64_t>(row, n));
      row += n;
    }
  }
  void step() override { sim_.step(); }
  std::uint64_t fold_outputs(std::uint64_t h) override {
    for (const std::string& o : out_) {
      const std::vector<std::uint64_t> words = sim_.output_words(o);
      std::uint64_t sum = 0, x = 0;
      for (std::size_t i = 0; i * lw_ < words.size(); ++i) {
        std::uint64_t ones = 0;
        for (unsigned k = 0; k < lw_; ++k)
          ones += static_cast<std::uint64_t>(
              __builtin_popcountll(words[i * lw_ + k]));
        sum += ones << i;
        x |= (ones & 1u) << i;
      }
      h = fold(fold(h, sum), x);
    }
    return h;
  }
  Bits output_lane(std::size_t port, unsigned lane) override {
    return sim_.output_lane(out_[port], lane);
  }
  void restore_poweron() override { sim_.restore_poweron(); }
  bool native() override { return sim_.native().native(); }

 private:
  osss::gate::Simulator sim_;
  unsigned lw_;
  std::vector<std::pair<std::string, std::size_t>> in_;
  std::vector<std::string> out_;
};

std::unique_ptr<LaneEngine> make_engine(const Design& d, bool gate_level,
                                        unsigned lanes,
                                        const osss::jit::CompileOptions& cg) {
  if (gate_level) return std::make_unique<GateLanes>(d, lanes, cg);
  return std::make_unique<RtlLanes>(d, lanes, cg);
}

/// Runs the stimulus from power-on and folds the output digest of every
/// cycle into one hash.
std::uint64_t run_block(LaneEngine& e, const Stimulus& s) {
  e.restore_poweron();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned c = 0; c < s.cycles; ++c) {
    e.drive(s, c);
    e.step();
    h = e.fold_outputs(h);
  }
  return h;
}

/// Replays the first `cycles` stimulus rows of selected lanes on the
/// level's oracle (RTL kInterp / gate kEvent) and compares every output
/// every cycle with the engine's lanes.  Returns "" on agreement, else the
/// first mismatch.
std::string oracle_check(LaneEngine& eng, const Design& d, bool gate_level,
                         const Stimulus& stim, unsigned cycles,
                         const std::vector<unsigned>& lanes) {
  const std::size_t outs = d.module.outputs().size();
  // Engine first: remember the checked lanes' outputs cycle by cycle.
  std::vector<Bits> want;
  want.reserve(static_cast<std::size_t>(cycles) * lanes.size() * outs);
  eng.restore_poweron();
  for (unsigned c = 0; c < cycles; ++c) {
    eng.drive(stim, c);
    eng.step();
    for (const unsigned l : lanes)
      for (std::size_t o = 0; o < outs; ++o)
        want.push_back(eng.output_lane(o, l));
  }
  for (std::size_t li = 0; li < lanes.size(); ++li) {
    const unsigned lane = lanes[li];
    std::unique_ptr<osss::rtl::Simulator> rs;
    std::unique_ptr<osss::gate::Simulator> gs;
    if (gate_level)
      gs = std::make_unique<osss::gate::Simulator>(d.netlist,
                                                   osss::gate::SimMode::kEvent);
    else
      rs = std::make_unique<osss::rtl::Simulator>(d.module,
                                                  osss::rtl::SimMode::kInterp);
    for (unsigned c = 0; c < cycles; ++c) {
      for (std::size_t p = 0; p < stim.ports; ++p) {
        const Bits v(d.in_widths[p], stim.value_row(c, p)[lane]);
        if (gs)
          gs->set_input(d.netlist.inputs()[p].name, v);
        else
          rs->set_input(d.module.inputs()[p].name, v);
      }
      if (gs)
        gs->step();
      else
        rs->step();
      for (std::size_t o = 0; o < outs; ++o) {
        const Bits got = gs ? gs->output(d.netlist.outputs()[o].name)
                            : rs->output(d.module.outputs()[o].name);
        const Bits& w = want[(static_cast<std::size_t>(c) * lanes.size() +
                              li) * outs + o];
        if (got != w)
          return d.id() + (gate_level ? " gate" : " rtl") + " lane " +
                 std::to_string(lane) + " cycle " + std::to_string(c) +
                 " output " + d.module.outputs()[o].name +
                 " disagrees with the oracle";
      }
    }
  }
  return "";
}

// --- flow --------------------------------------------------------------------

struct FlowItem {
  std::string id;  ///< "<flow>.<component>"
  Netlist pre;
  Netlist post;
};

/// Complement of a logic cell kind with the same arity, or the kind itself
/// when it has none.
osss::gate::CellKind complement(osss::gate::CellKind k) {
  using K = osss::gate::CellKind;
  switch (k) {
    case K::kBuf: return K::kInv;
    case K::kInv: return K::kBuf;
    case K::kAnd2: return K::kNand2;
    case K::kNand2: return K::kAnd2;
    case K::kOr2: return K::kNor2;
    case K::kNor2: return K::kOr2;
    case K::kXor2: return K::kXnor2;
    case K::kXnor2: return K::kXor2;
    default: return k;
  }
}

class FlowWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setup(Tally&, Counts&) override {}

  void round(bool steady, Tally& tally, Counts& c) override {
    const double start = now_s();
    const osss::gate::Library lib = osss::gate::Library::generic();
    const osss::par::Pool::Stats pool0 = pool().stats();
    ++round_;
    std::vector<FlowItem> items;
    double area = 0.0, fmax = std::numeric_limits<double>::infinity();
    for (int f = 0; f < 2; ++f) {
      std::vector<osss::expocu::FlowComponent> comps;
      {
        auto s = tr_.span("expocu.build");
        comps = f == 0 ? osss::expocu::build_osss_flow()
                       : osss::expocu::build_vhdl_flow();
      }
      for (const osss::expocu::FlowComponent& comp : comps) {
        const std::string id = (f == 0 ? "osss." : "vhdl.") + comp.name;
        const double t_comp = now_s();
        Netlist pre = [&] {
          auto s = tr_.span("gate.lower");
          return osss::gate::lower_to_gates(comp.module);
        }();
        // The Release defaults a user of opt::Pipeline::standard gets, fed
        // with the RTL dataflow facts as osss-opt and R1 do.
        osss::opt::PipelineOptions po;
        po.lib = &lib;
        {
          auto s = tr_.span("lint.dataflow");
          po.facts =
              std::make_shared<const std::unordered_map<std::string, bool>>(
                  osss::lint::analyze_dataflow(comp.module).const_reg_bits());
        }
        {
          auto s = tr_.span("gate.timing");
          (void)osss::gate::analyze_timing(pre, lib);
        }
        osss::opt::Pipeline pipe = osss::opt::Pipeline::standard(po);
        Netlist post = [&] {
          auto s = tr_.span("opt.pipeline");
          return pipe.run(pre);
        }();
        count_passes(pipe, c);
        osss::gate::TimingReport after;
        {
          auto s = tr_.span("gate.timing");
          after = osss::gate::analyze_timing(post, lib);
        }
        area += after.area_ge;
        fmax = std::min(fmax, after.fmax_mhz);
        // The flow constructs the optimized design: its first cycle is
        // the oracle's first step() on the post-opt netlist.
        {
          osss::gate::Simulator oracle(post, osss::gate::SimMode::kEvent);
          oracle.step();
        }
        first_cycle(id, now_s() - t_comp);
        items.push_back({id, std::move(pre), std::move(post)});
      }
    }
    tally.check(std::abs(area - opt_.ref_area_ge) < 0.05,
                "area_ge " + std::to_string(area) +
                    " differs from the reference " +
                    std::to_string(opt_.ref_area_ge));
    tally.check(std::abs(fmax - opt_.ref_fmax_mhz) < 0.05,
                "fmax_mhz " + std::to_string(fmax) +
                    " differs from the reference " +
                    std::to_string(opt_.ref_fmax_mhz));
    samples_["area_ge"].push_back(area);
    samples_["fmax_mhz"].push_back(fmax);

    // Pre- vs post-opt verdicts on the kEvent oracle.
    const std::uint64_t rseed =
        derive(opt_.seed, "flow/round/" + std::to_string(round_));
    // One check per pool task, as R1 runs them, biggest netlist first.
    std::vector<osss::gate::EquivResult> verdict(items.size());
    std::vector<double> cost;
    for (const FlowItem& it : items)
      cost.push_back(static_cast<double>(it.pre.cells().size()));
    const std::uint64_t parent = Tracer::current();
    run_longest_first(cost, [&](std::size_t i) {
      osss::gate::EquivOptions eo;
      eo.sequences = kEquivSequences;
      eo.cycles = kEquivCycles;
      eo.seed = derive(rseed, items[i].id);
      eo.threads = 1;
      auto s = tr_.span("verify.equiv", parent);
      verdict[i] = osss::gate::check_equivalence(items[i].pre, items[i].post,
                                                 eo);
    });
    double vectors = 0.0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      vectors += static_cast<double>(verdict[i].cycles_checked);
      tally.check(verdict[i].equivalent, items[i].id +
                                             " pre/post not equivalent: " +
                                             verdict[i].counterexample);
    }
    c["verify.equiv_vectors"] += vectors;

    plant_fault(items, rseed, tally, c);
    // Both sides of each pre/post check simulate every vector.
    lane_rate(steady, 2.0 * vectors, start);

    add_pool_delta(pool0, c);
  }

 private:
  unsigned round_ = 0;

  static void count_passes(const osss::opt::Pipeline& pipe, Counts& c) {
    const std::vector<osss::opt::PassStats>& st = pipe.stats();
    if (pipe.pass_count() > 0)
      c["opt.rounds"] += static_cast<double>(st.size() / pipe.pass_count());
    for (const osss::opt::PassStats& ps : st) {
      c["opt." + ps.pass + "_ms"] += ps.wall_ms;
      if (ps.verified) c["opt.verified_passes"] += 1;
      if (ps.pass == "satsweep") {
        c["opt.merges"] += static_cast<double>(ps.changes);
        c["opt.fact_merges"] += static_cast<double>(ps.fact_merges);
        c["opt.odc_merges"] += static_cast<double>(ps.odc_merges);
      }
    }
    if (!st.empty())
      c["opt.cells_out"] += static_cast<double>(st.back().cells_after);
  }

  /// Plant one fault per round: invert a logic cell that drives a primary
  /// output of a seeded optimized netlist.  That output bit then differs in
  /// every cycle, so "not equivalent" is the known answer and a verdict of
  /// "equivalent" is a failed operation.
  void plant_fault(const std::vector<FlowItem>& items, std::uint64_t rseed,
                   Tally& tally, Counts& c) {
    std::vector<std::pair<std::size_t, osss::gate::NetId>> sites;
    for (std::size_t i = 0; i < items.size(); ++i)
      for (const osss::gate::Bus& b : items[i].post.outputs())
        for (const osss::gate::NetId n : b.nets) {
          const osss::gate::CellKind k = items[i].post.cell(n).kind;
          if (complement(k) != k) sites.emplace_back(i, n);
        }
    std::uint64_t st = derive(rseed, "fault");
    if (sites.empty()) {
      tally.check(false, "no output-driving logic cell to mutate");
      return;
    }
    const auto [i, net] = sites[splitmix(st) % sites.size()];
    Netlist mutant = items[i].post;
    if (opt_.inject != "mutant")
      mutant.mutate_cell(net, complement(mutant.cell(net).kind));
    osss::gate::EquivOptions eo;
    eo.sequences = kEquivSequences;
    eo.cycles = kEquivCycles;
    eo.seed = derive(rseed, "fault/" + items[i].id);
    osss::gate::EquivResult r;
    {
      auto s = tr_.span("verify.mutant");
      r = osss::gate::check_equivalence(items[i].pre, mutant, eo);
    }
    if (!r.equivalent) c["verify.mutants_caught"] += 1;
    tally.check(!r.equivalent, "planted fault in " + items[i].id + " net " +
                                   std::to_string(net) + " went uncaught");
  }
};

// --- jit ---------------------------------------------------------------------

class JitWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setup(Tally&, Counts&) override {
    designs_ = build_designs(tr_, kJitComponents);
    std::erase_if(designs_, [](const Design& d) { return d.flow != "osss"; });
    std::vector<const Netlist*> nls;
    for (const Design& d : designs_) nls.push_back(&d.netlist);
    const auto [area, fmax] = qor(nls, tr_);
    samples_["area_ge"] = {area};
    samples_["fmax_mhz"] = {fmax};
    for (const Design& d : designs_)
      stim_.push_back(make_stimulus(derive(opt_.seed, "jit/" + d.id()), d,
                                    kJitCheckCycles, kJitLanes));
  }

  void round(bool steady, Tally& tally, Counts& c) override {
    const double start = now_s();
    // No live engines and an empty disk cache of the round's own.
    const fs::path dir = fs::path(opt_.work_dir) / "jit-cold" /
                         (std::to_string(::getpid()) + "-" +
                          std::to_string(round_++));
    fs::remove_all(dir);
    fs::create_directories(dir);
    ::setenv("OSSS_JIT_CACHE_DIR", dir.c_str(), 1);
    const osss::jit::CacheStats jit0 = osss::jit::cache_stats();
    const osss::par::Pool::Stats pool0 = pool().stats();
    const std::uint64_t parent = Tracer::current();

    // The front half of each engine constructor, timed on its own.  Index
    // i < designs is the gate engine of design i, the rest the RTL ones.
    std::vector<double> bytes(designs_.size() * 2);
    for (std::size_t di = 0; di < designs_.size(); ++di) {
      const Design& d = designs_[di];
      const osss::rtl::tape::Program p = [&] {
        auto s = tr_.span("rtl.tape_compile");
        return osss::rtl::tape::Program::compile(d.module, kJitLanes);
      }();
      std::string src;
      {
        auto s = tr_.span("jit.rtl_emit");
        src = osss::rtl::tape::emit_cpp(p);
      }
      bytes[designs_.size() + di] = static_cast<double>(src.size());
      {
        auto s = tr_.span("jit.gate_emit");
        src = osss::gate::emit_netlist_cpp(d.netlist, kJitLanes);
      }
      bytes[di] = static_cast<double>(src.size());
    }
    c["jit.source_bytes"] += std::accumulate(bytes.begin(), bytes.end(), 0.0);

    // Cold construction to first step(), one engine at a time as a user
    // building a simulator gets it: no compile competes with another.
    const std::size_t n = designs_.size() * 2;
    std::vector<std::unique_ptr<LaneEngine>> eng(n);
    std::vector<double> took(n);
    for (std::size_t i = 0; i < n; ++i) {
      const bool gate_level = i < designs_.size();
      auto s = tr_.span(gate_level ? "jit.gate_engine" : "jit.rtl_engine");
      const double t0 = now_s();
      eng[i] = make_engine(designs_[i % designs_.size()], gate_level,
                           kJitLanes, {});
      eng[i]->step();
      took[i] = now_s() - t0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const bool gate_level = i < designs_.size();
      const Design& d = designs_[i % designs_.size()];
      c["jit." + d.id() + "_s"] += took[i];
      const bool native = eng[i]->native();
      c[native ? "jit.native_engines" : "jit.fallback_engines"] += 1;
      tally.check(native, d.id() + (gate_level ? " gate" : " rtl") +
                              " engine fell back to the interpreter");
      // Every round builds cold, the first one included.
      first_cycle(d.id() + (gate_level ? ".gate" : ".rtl"), took[i]);
    }

    // Seeded run on every engine, then the oracles replay a few lanes.
    for (std::size_t i = 0; i < n; ++i) {
      auto s = tr_.span(i < designs_.size() ? "gate.native" : "rtl.native");
      (void)run_block(*eng[i], stim_[i % designs_.size()]);
    }
    const double lane_cycles =
        static_cast<double>(designs_.size()) * kJitCheckCycles * kJitLanes;
    c["rtl.lane_cycles"] += lane_cycles;
    c["gate.lane_cycles"] += lane_cycles;
    std::vector<std::string> verdict(n);
    run_longest_first(bytes, [&](std::size_t i) {
      const bool gate_level = i < designs_.size();
      const std::size_t di = i % designs_.size();
      auto s = tr_.span("verify.oracle", parent);
      verdict[i] = oracle_check(*eng[i], designs_[di], gate_level, stim_[di],
                                kJitOracleCycles, {0, 41, 63});
    });
    for (const std::string& v : verdict) tally.check(v.empty(), v);
    eng.clear();
    fs::remove_all(dir);
    lane_rate(steady, 2.0 * lane_cycles, start);
    add_jit_delta(jit0, c);
    add_pool_delta(pool0, c);
  }

 private:
  std::vector<Design> designs_;
  std::vector<Stimulus> stim_;
  unsigned round_ = 0;
};

// --- sim / nojit -------------------------------------------------------------

class SimWorkload final : public Workload {
 public:
  SimWorkload(const Options& opt, Tracer& tr, bool fallback)
      : Workload(opt, tr), fallback_(fallback) {}

  void setup(Tally& tally, Counts& c) override {
    designs_ = build_designs(tr_, {});
    std::vector<const Netlist*> nls;
    for (const Design& d : designs_) nls.push_back(&d.netlist);
    const auto [area, fmax] = qor(nls, tr_);
    samples_["area_ge"] = {area};
    samples_["fmax_mhz"] = {fmax};
    if (!fallback_)
      ::setenv("OSSS_JIT_CACHE_DIR",
               (fs::path(opt_.work_dir) / "jit-warm").c_str(), 1);
    cg_.force_fallback = fallback_;
    for (const Design& d : designs_)
      stim_.push_back(make_stimulus(derive(opt_.seed, "sim/" + d.id()), d,
                                    kSimCycles, kSimLanes));

    const osss::jit::CacheStats jit0 = osss::jit::cache_stats();
    const std::size_t n = designs_.size() * 2;
    eng_.resize(n);
    build_engines(kBuildReps, tally);
    const std::uint64_t parent = Tracer::current();
    // Oracle sample: a few lanes of the first cycles against kInterp/kEvent.
    std::vector<std::string> verdict(n);
    cost_ = run_longest_first(std::vector<double>(n), [&](std::size_t i) {
      auto s = tr_.span("verify.oracle", parent);
      verdict[i] = oracle_check(*eng_[i], designs_[i / 2], i % 2 == 1,
                                stim_[i / 2], kOracleCycles, kOracleLanes);
    });
    for (const std::string& v : verdict) tally.check(v.empty(), v);
    add_jit_delta(jit0, c);
  }

  void round(bool steady, Tally& tally, Counts& c) override {
    const osss::jit::CacheStats jit0 = osss::jit::cache_stats();
    const osss::par::Pool::Stats pool0 = pool().stats();
    const std::uint64_t parent = Tracer::current();
    const unsigned reps = fallback_ ? kNojitReps : kSimReps;
    const std::size_t n = eng_.size();
    std::vector<std::vector<std::uint64_t>> hash(
        n, std::vector<std::uint64_t>(reps));
    const char* rtl_span = fallback_ ? "rtl.fallback" : "rtl.native";
    const char* gate_span = fallback_ ? "gate.fallback" : "gate.native";
    // Longest first by the previous round's task times (the set-up's
    // oracle sample before the first round).
    const double t0 = now_s();
    cost_ = run_longest_first(cost_, [&](std::size_t i) {
      auto s = tr_.span(i % 2 ? gate_span : rtl_span, parent);
      for (unsigned r = 0; r < reps; ++r)
        hash[i][r] = run_block(*eng_[i], stim_[i / 2]);
    });
    for (std::size_t d = 0; d < designs_.size(); ++d)
      for (unsigned r = 0; r < reps; ++r)
        tally.check(hash[2 * d][r] == hash[2 * d + 1][r],
                    designs_[d].id() + " block " + std::to_string(r) +
                        ": RTL and gate outputs disagree");
    const double per_level = static_cast<double>(designs_.size()) * reps *
                             kSimCycles * kSimLanes;
    c["rtl.lane_cycles"] += per_level;
    c["gate.lane_cycles"] += per_level;
    lane_rate(steady, 2.0 * per_level, t0);
    const osss::jit::CacheStats jit1 = osss::jit::cache_stats();
    if (!fallback_)
      tally.check(jit1.compiles == jit0.compiles,
                  "a sim round invoked the compiler");
    add_jit_delta(jit0, c);
    add_pool_delta(pool0, c);
  }

  /// The engines are loaded and checked against the oracles once, at
  /// set-up; a round only simulates (and must not compile).
  /// Reload every engine, so the first_cycle_s samples spread over the
  /// whole run instead of one instant at set-up.
  void between_rounds(Tally& tally) override { build_engines(1, tally); }

  bool setup_row(const std::string& name) const override {
    return name != "jit.compiles" &&
           (name.starts_with("jit.") || name.starts_with("verify."));
  }

 private:
  const bool fallback_;
  osss::jit::CompileOptions cg_;
  std::vector<Design> designs_;
  std::vector<Stimulus> stim_;
  std::vector<std::unique_ptr<LaneEngine>> eng_;  ///< [2 * design + gate]
  std::vector<double> cost_;  ///< seconds per engine task, last measured

  /// Builds every engine `reps` times, one at a time (the last build is
  /// kept), each build one first_cycle_s sample: loads never contend for
  /// the dynamic loader, and once an engine is dropped its object is
  /// unloaded, so every `sim` build is a load from the disk cache.
  void build_engines(unsigned reps, Tally& tally) {
    for (unsigned rep = 0; rep < reps; ++rep)
      for (std::size_t i = 0; i < eng_.size(); ++i) {
        const Design& d = designs_[i / 2];
        eng_[i].reset();
        auto s = tr_.span(fallback_ ? "engine.build" : "jit.warm_load");
        const double t0 = now_s();
        eng_[i] = make_engine(d, i % 2 == 1, kSimLanes, cg_);
        eng_[i]->step();
        first_cycle(d.id() + (i % 2 ? ".gate" : ".rtl"), now_s() - t0);
      }
    if (!fallback_)
      for (std::size_t i = 0; i < eng_.size(); ++i)
        tally.check(eng_[i]->native(),
                    designs_[i / 2].id() + " engine is not native");
  }
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& opt, Tracer& tr) {
  if (opt.workload == "flow") return std::make_unique<FlowWorkload>(opt, tr);
  if (opt.workload == "jit") return std::make_unique<JitWorkload>(opt, tr);
  if (opt.workload == "sim")
    return std::make_unique<SimWorkload>(opt, tr, false);
  if (opt.workload == "nojit")
    return std::make_unique<SimWorkload>(opt, tr, true);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_rows() {
  static const std::vector<std::pair<std::string, std::string>> rows = [] {
    std::vector<std::pair<std::string, std::string>> r = {
        {"expocu.build_s", "s"},      {"gate.lower_s", "s"},
        {"lint.dataflow_s", "s"},     {"gate.timing_s", "s"},
        {"opt.pipeline_s", "s"},      {"opt.rewrite_ms", "ms"},
        {"opt.satsweep_ms", "ms"},    {"opt.retime_ms", "ms"},
        {"opt.techmap_ms", "ms"},     {"opt.rounds", "count"},
        {"opt.verified_passes", "count"},
        {"opt.cells_out", "count"},   {"opt.merges", "count"},
        {"opt.fact_merges", "count"}, {"opt.odc_merges", "count"},
        {"verify.equiv_s", "s"},      {"verify.equiv_vectors", "count"},
        {"verify.mutants_caught", "count"},
        {"verify.oracle_s", "s"},     {"rtl.tape_compile_s", "s"},
        {"jit.rtl_emit_s", "s"},      {"jit.gate_emit_s", "s"},
        {"jit.source_bytes", "bytes"},
        {"jit.rtl_engine_s", "s"},    {"jit.gate_engine_s", "s"},
        {"jit.compiles", "count"},    {"jit.cache_hits", "count"},
        {"jit.disk_hits", "count"},   {"jit.disk_misses", "count"},
        {"jit.native_engines", "count"},
        {"jit.fallback_engines", "count"},
        {"jit.warm_load_s", "s"},     {"rtl.native_s", "s"},
        {"gate.native_s", "s"},       {"rtl.fallback_s", "s"},
        {"gate.fallback_s", "s"},     {"rtl.lane_cycles", "count"},
        {"gate.lane_cycles", "count"},
        {"par.executed", "count"},    {"par.steals", "count"},
        {"par.stolen_tasks", "count"},
        // Filled by pipeline_bench: traced minus untraced median round_s.
        {"trace.overhead_s", "s"},
    };
    for (const std::string& comp : kJitComponents)
      r.emplace_back("jit.osss." + comp + "_s", "s");
    return r;
  }();
  return rows;
}

}  // namespace perfbench
