// satsweep's proof budgets at their boundaries.  A merge whose support sits
// exactly at a budget is proven; one free variable past it is not: the
// classic sweep falls back to random resolution (counted in
// PassStats::sampled_merges) and an observability candidate stays
// unmerged.  The cone walks stop early once a budget is exceeded, so these
// pin the early-exit verdicts to the ones a full walk gives.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gate/equiv.hpp"
#include "gate/netlist.hpp"
#include "opt/satsweep.hpp"

namespace osss::opt {
namespace {

using gate::NetId;

std::string numbered(const char* prefix, unsigned i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

/// Two parity chains over k inputs that share no inner net: one folds
/// x[0], x[1], ... upward, the other x[k-1], x[k-2], ... downward.  Their
/// roots are the same function with union support k; no inner pair is.
gate::Netlist twin_parity(unsigned k) {
  gate::Netlist nl("twin_parity");
  const std::vector<NetId> x = nl.add_input("x", k);
  NetId up = x[0];
  NetId down = x[k - 1];
  for (unsigned i = 1; i < k; ++i) {
    up = nl.xor2(up, x[i]);
    down = nl.xor2(down, x[k - 1 - i]);
  }
  nl.add_output("up", {up});
  nl.add_output("down", {down});
  return nl;
}

/// An observability candidate: a = x & y drives mux(y, a, z), and with
/// two observation points also mux(y, a, w); inputs p[0..] are xor-ed onto
/// the mux outputs, split evenly between them.  a differs from the input x
/// only where y = 0, and there no mux selects it, so replacing a with x is
/// legal.  The observation cones have union support {x, y, z, (w,) p...}:
/// `support` inputs.  With two points each cone alone stays narrower, so
/// only the union bound can reject the merge; with one point the cone walk
/// itself reaches the budget.
gate::Netlist odc_candidate(unsigned support, unsigned points) {
  gate::Netlist nl("odc_candidate");
  const NetId x = nl.add_input("x", 1)[0];
  const NetId y = nl.add_input("y", 1)[0];
  const NetId a = nl.and2(x, y);
  std::vector<NetId> outs;
  for (unsigned i = 0; i < points; ++i)
    outs.push_back(nl.mux2(y, a, nl.add_input(numbered("z", i), 1)[0]));
  const std::vector<NetId> p = nl.add_input("p", support - 2 - points);
  for (std::size_t i = 0; i < p.size(); ++i) {
    NetId& out = outs[i * points / p.size()];
    out = nl.xor2(out, p[i]);
  }
  for (unsigned i = 0; i < points; ++i)
    nl.add_output(numbered("out", i), {outs[i]});
  return nl;
}

/// Classic sweep only: once the roots merge, one chain is dead logic the
/// ODC phase would merge away as unobservable.
SatSweepOptions classic_only() {
  SatSweepOptions opt;
  opt.odc_max_merges = 0;
  return opt;
}

PassStats sweep(const gate::Netlist& in, const SatSweepOptions& opt,
                gate::Netlist* out = nullptr) {
  PassStats st;
  gate::Netlist res = SatSweepPass(opt).run(in, st);
  if (out != nullptr) *out = std::move(res);
  return st;
}

TEST(OptSatSweep, UnionSupportAtExhaustiveBitsIsProven) {
  const SatSweepOptions opt = classic_only();
  const PassStats st = sweep(twin_parity(opt.exhaustive_bits), opt);
  EXPECT_EQ(st.changes, 1u);
  EXPECT_EQ(st.sampled_merges, 0u);
}

TEST(OptSatSweep, UnionSupportPastExhaustiveBitsIsSampled) {
  const SatSweepOptions opt = classic_only();
  const gate::Netlist in = twin_parity(opt.exhaustive_bits + 1);
  gate::Netlist out("out");
  const PassStats st = sweep(in, opt, &out);
  EXPECT_EQ(st.changes, 1u);
  EXPECT_EQ(st.sampled_merges, 1u);
  EXPECT_NE(st.format().find("1 sampled"), std::string::npos) << st.format();
  EXPECT_TRUE(gate::check_equivalence(in, out).equivalent);
}

TEST(OptSatSweep, OdcSupportAtBudgetIsMerged) {
  const SatSweepOptions opt;
  for (const unsigned points : {1u, 2u}) {
    const gate::Netlist in = odc_candidate(opt.odc_exhaustive_bits, points);
    gate::Netlist out("out");
    const PassStats st = sweep(in, opt, &out);
    EXPECT_EQ(st.odc_merges, 1u) << points << " point(s)";
    EXPECT_EQ(st.changes, 1u) << points << " point(s)";
    EXPECT_EQ(st.sampled_merges, 0u) << points << " point(s)";
    EXPECT_EQ(out.gate_count() + 1, in.gate_count()) << points << " point(s)";
    EXPECT_TRUE(gate::check_equivalence(in, out).equivalent);
  }
}

TEST(OptSatSweep, OdcSupportPastBudgetIsNotMerged) {
  const SatSweepOptions opt;
  for (const unsigned points : {1u, 2u}) {
    const PassStats st =
        sweep(odc_candidate(opt.odc_exhaustive_bits + 1, points), opt);
    EXPECT_EQ(st.odc_merges, 0u) << points << " point(s)";
    EXPECT_EQ(st.changes, 0u) << points << " point(s)";
  }
}

}  // namespace
}  // namespace osss::opt
