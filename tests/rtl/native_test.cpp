// native_test.cpp — differential tests for the tape native-code backend.
//
// Three-way checks (interpreter oracle vs interpreted tape vs NativeEngine)
// over the random_module fuzz corpus and both design flows' ExpoCU
// components.  The fuzz sweep runs the threaded-code fallback (no compile
// cost per case); a subset plus the ExpoCU components exercise the real
// compile + dlopen path.  A bogus-compiler test proves the silent fallback
// keeps results bit-identical, and a temp-dir fixture proves the backend
// leaves nothing behind on disk.

#include "rtl/codegen.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "expocu/flows.hpp"
#include "rtl/builder.hpp"
#include "rtl/sim.hpp"
#include "verify/cosim.hpp"
#include "verify/random_module.hpp"
#include "verify/stimgen.hpp"

namespace osss::rtl {
namespace {

namespace tp = tape;

/// True when the environment disables the JIT (e.g. the TSan CI job, which
/// cannot instrument dlopen'd code) — real-compile assertions are skipped.
bool jit_disabled() {
  const char* nj = std::getenv("OSSS_NO_JIT");
  return nj != nullptr && *nj != '\0' && *nj != '0';
}

/// Interpreter (reference) vs interpreted tape vs native backend.
void expect_three_way_match(const Module& m, std::uint64_t seed,
                            unsigned cycles, unsigned lanes,
                            tp::CodegenOptions opt) {
  verify::CoSim cs;
  cs.add(std::make_unique<verify::RtlModel>(m));  // reference: interpreter
  cs.add(std::make_unique<verify::RtlModel>(
      m, SimMode::kTape, std::min(lanes, 64u)));
  cs.add(std::make_unique<verify::RtlModel>(m, SimMode::kNative, lanes,
                                            std::move(opt), "rtl:native"));
  cs.declare_io(m);
  verify::StimGen gen(seed);
  cs.declare_stimulus(gen);
  const verify::RunResult r = cs.run(gen, cycles, 2);
  EXPECT_TRUE(r.ok) << r.mismatch.describe(cs.inputs(), lanes > 1) << " seed "
                    << seed;
}

// --- differential fuzz over random_module shapes (fallback dispatch) -------

class NativeFuzz : public ::testing::TestWithParam<unsigned> {};

void run_fuzz_case(const char* variant,
                   const verify::RandomModuleOptions& opt, unsigned index,
                   unsigned lanes) {
  const std::uint64_t seed = verify::StimGen::derive(
      verify::env_seed(7301),
      std::string("native/") + variant + "/" + std::to_string(index));
  std::mt19937_64 rng(seed);
  const Module m = verify::random_module(rng, opt);
  tp::CodegenOptions copt;
  copt.force_fallback = true;  // corpus sweep: no per-case compile cost
  expect_three_way_match(m, seed, 100, lanes, std::move(copt));
}

TEST_P(NativeFuzz, MatchesInterpreter) {
  run_fuzz_case("base", {40, false, false, false}, GetParam(), 1);
}

TEST_P(NativeFuzz, WithMemories) {
  run_fuzz_case("mem", {32, true, false, false}, GetParam(), 1);
}

TEST_P(NativeFuzz, WithSharedMuxShapes) {
  run_fuzz_case("shared", {32, false, true, false}, GetParam(), 1);
}

TEST_P(NativeFuzz, WithPolymorphicDispatch) {
  run_fuzz_case("poly", {32, false, false, true}, GetParam(), 1);
}

TEST_P(NativeFuzz, WithEverything) {
  run_fuzz_case("all", {48, true, true, true}, GetParam(), 1);
}

/// 64-lane fallback: the CoSim scores all 64 lanes against the interpreted
/// tape and the scalar interpreter.
TEST_P(NativeFuzz, SixtyFourLanes) {
  run_fuzz_case("lanes64", {32, true, false, false}, GetParam(), 64);
}

/// Wider than the interpreted engine's cap: 256 lanes join the co-sim as a
/// broadcast scalar model, so lane 0 of the wide arena is checked and the
/// multi-word enable masks in step() get exercised.
TEST_P(NativeFuzz, WideLanes) {
  run_fuzz_case("lanes256", {32, true, false, false}, GetParam(), 256);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NativeFuzz,
                         ::testing::Range(0u, verify::env_iters(8)));

// --- real compile + dlopen -------------------------------------------------

/// One random shape through the actual JIT: emit, compile, dlopen, and
/// compare against both interpreters.  Asserts the native path really
/// loaded (this is what the -mavx2 CI leg runs).
TEST(NativeJit, CompilesAndMatchesInterpreter) {
  const std::uint64_t seed =
      verify::StimGen::derive(verify::env_seed(7301), "native/jit");
  std::mt19937_64 rng(seed);
  const Module m = verify::random_module(
      rng, verify::RandomModuleOptions{48, true, true, true});
  Simulator probe(m, SimMode::kNative, 8);
  if (!jit_disabled()) {
    ASSERT_TRUE(probe.native().native()) << probe.native().compile_log();
  }
  expect_three_way_match(m, seed, 120, 8, {});
}

/// Wide SIMD lanes through the real JIT (the 8-lane vector drivers).
TEST(NativeJit, WideLanesCompileAndMatch) {
  const std::uint64_t seed =
      verify::StimGen::derive(verify::env_seed(7301), "native/jit-wide");
  std::mt19937_64 rng(seed);
  const Module m = verify::random_module(
      rng, verify::RandomModuleOptions{40, true, false, false});
  expect_three_way_match(m, seed, 80, 192, {});
}

/// Both flows' ExpoCU components through the real JIT, three-way checked.
/// One compile per component; the OSSS flow and the hand-written VHDL flow
/// cover the same six components from different RTL.
TEST(NativeJit, ExpoCuComponentsBothFlows) {
  for (const bool osss : {true, false}) {
    const std::vector<expocu::FlowComponent> flow =
        osss ? expocu::build_osss_flow() : expocu::build_vhdl_flow();
    for (const expocu::FlowComponent& c : flow) {
      const std::uint64_t seed = verify::StimGen::derive(
          verify::env_seed(7301),
          std::string("native/expocu/") + (osss ? "osss/" : "vhdl/") + c.name);
      SCOPED_TRACE((osss ? "osss flow: " : "vhdl flow: ") + c.name);
      expect_three_way_match(c.module, seed, 150, 4, {});
    }
  }
}

#if defined(__x86_64__)
/// The JIT's default flags enable every vector extension the host has, so
/// an AVX-512 host always compiles the generated vectors as zmm code.
/// These flags, appended after the defaults, compile the same source as a
/// host with AVX2 but no AVX-512 (ymm) and one with neither (-mno-avx2
/// also drops the AVX the probed -mavx2 implied, leaving baseline SSE2).
struct NarrowIsa {
  const char* name;
  const char* flags;
};
constexpr NarrowIsa kNarrowIsas[] = {
    {"avx2", "-mno-avx512f"},
    {"sse2", "-mno-avx2 -mno-avx512f"}};
void PrintTo(const NarrowIsa& isa, std::ostream* os) { *os << isa.name; }

/// (target, lanes)
class NativeIsa
    : public ::testing::TestWithParam<std::tuple<NarrowIsa, unsigned>> {};

/// Every random_module shape plus two ExpoCU components, param_calc (wide
/// arithmetic) and histogram (memories), compiled for the narrower target.
TEST_P(NativeIsa, CorpusMatchesInterpreter) {
  const auto [isa, lanes] = GetParam();
  std::vector<std::pair<std::string, Module>> corpus;
  const verify::RandomModuleOptions shapes[] = {{40, false, false, false},
                                                {32, true, false, false},
                                                {32, false, true, false},
                                                {32, false, false, true},
                                                {48, true, true, true}};
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    std::mt19937_64 rng(verify::StimGen::derive(
        verify::env_seed(7301), "native/isa/" + std::to_string(i)));
    corpus.emplace_back("random " + std::to_string(i),
                        verify::random_module(rng, shapes[i]));
  }
  for (expocu::FlowComponent& c : expocu::build_osss_flow())
    if (c.name == "param_calc" || c.name == "histogram")
      corpus.emplace_back(c.name, std::move(c.module));

  tp::CodegenOptions opt;
  opt.extra_flags = isa.flags;
  for (const auto& [name, m] : corpus) {
    SCOPED_TRACE(name);
    Simulator probe(m, SimMode::kNative, lanes, opt);
    if (!jit_disabled()) {
      ASSERT_TRUE(probe.native().native()) << probe.native().compile_log();
    }
    expect_three_way_match(
        m, verify::StimGen::derive(verify::env_seed(7301), "native/isa/" + name),
        100, lanes, opt);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Flags, NativeIsa,
    ::testing::Combine(::testing::ValuesIn(kNarrowIsas),
                       ::testing::Values(64u, 256u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_x" +
             std::to_string(std::get<1>(info.param));
    });
#endif  // __x86_64__

// --- fallback robustness ---------------------------------------------------

/// A compiler that cannot exist: the backend must fall back silently (no
/// throw), report why, and stay bit-identical to the interpreter.
TEST(NativeFallback, BogusCompilerFallsBackSilently) {
  const std::uint64_t seed =
      verify::StimGen::derive(verify::env_seed(7301), "native/bogus-cc");
  std::mt19937_64 rng(seed);
  const Module m = verify::random_module(
      rng, verify::RandomModuleOptions{36, true, false, false});
  tp::CodegenOptions opt;
  opt.compiler = "/nonexistent/osss-cc";
  Simulator probe(m, SimMode::kNative, 4, opt);
  EXPECT_FALSE(probe.native().native());
  EXPECT_FALSE(probe.native().compile_log().empty());
  expect_three_way_match(m, seed, 100, 4, opt);
}

/// force_fallback (the OSSS_NO_JIT path) never touches the filesystem.
TEST(NativeFallback, ForcedFallbackMatchesJitResults) {
  Builder b("acc");
  Wire a = b.input("a", 32);
  Wire q = b.reg("q", 32);
  b.connect(q, b.add(q, a));
  b.output("o", q);
  const Module m = b.take();

  tp::CodegenOptions forced;
  forced.force_fallback = true;
  Simulator jit(m, SimMode::kNative, 2);
  Simulator fb(m, SimMode::kNative, 2, forced);
  EXPECT_FALSE(fb.native().native());
  const InputHandle ia = jit.input_handle("a");
  const OutputHandle oo = jit.output_handle("o");
  std::mt19937_64 rng(99);
  for (unsigned c = 0; c < 200; ++c) {
    const std::uint64_t v = rng();
    jit.set_input(ia, v);
    fb.set_input(fb.input_handle("a"), v);
    jit.step();
    fb.step();
    ASSERT_EQ(jit.output_u64(oo), fb.output_u64(fb.output_handle("o")))
        << "cycle " << c;
  }
}

/// The backend owns a private temp directory for source/so/log and must
/// remove it when the engine dies — keeps ASan/LSan runs artifact-clean.
TEST(NativeFallback, TempDirIsCleanedUp) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("osss-native-test-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  char* old_tmp = std::getenv("TMPDIR");
  const std::string saved = old_tmp != nullptr ? old_tmp : "";
  ::setenv("TMPDIR", dir.c_str(), 1);
  {
    Builder b("t");
    b.output("o", b.add(b.input("a", 16), b.input("b", 16)));
    Simulator sim(b.take(), SimMode::kNative, 1);
    sim.set_input("a", std::uint64_t{1});
    sim.set_input("b", std::uint64_t{2});
    sim.step();
    EXPECT_EQ(sim.output("o").to_u64(), 3u);
  }
  if (old_tmp != nullptr)
    ::setenv("TMPDIR", saved.c_str(), 1);
  else
    ::unsetenv("TMPDIR");
  EXPECT_TRUE(fs::is_empty(dir)) << "native backend left artifacts in "
                                 << dir;
  fs::remove_all(dir);
}

// --- generated source sanity ----------------------------------------------

TEST(NativeEmit, GeneratedSourceExportsTheTapeAbi) {
  Builder b("emit");
  Wire a = b.input("a", 8);
  Wire c = b.input("b", 8);
  b.output("o", b.xor_(a, c));
  const Module m = b.take();
  for (const unsigned lanes : {1u, 4u, 64u, 256u}) {
    SCOPED_TRACE(lanes);
    const std::string src = tp::emit_cpp(tp::Program::compile(m, lanes));
    EXPECT_NE(src.find("osss_tape_eval"), std::string::npos);
    EXPECT_NE(src.find("osss_tape_abi"), std::string::npos);
    EXPECT_NE(src.find("osss_tape_lanes"), std::string::npos);
    EXPECT_NE(src.find("osss_tape_arena"), std::string::npos);
    // One vector-type prelude: no intrinsics and no ISA tests, the
    // compile flags alone pick the instructions.
    for (const char* isa : {"immintrin", "_mm", "__m256i", "__m512i", "__AVX"})
      EXPECT_EQ(src.find(isa), std::string::npos) << isa;
  }
}

// --- run_batch over wide native lanes --------------------------------------

/// The same stimulus through scalar interpreter blocks and one 128-lane
/// native block must produce identical per-lane outputs.
TEST(NativeBatch, WideLaneBlocksMatchScalarBlocks) {
  const std::uint64_t seed =
      verify::StimGen::derive(verify::env_seed(7301), "native/batch");
  std::mt19937_64 rng(seed);
  const Module m = verify::random_module(
      rng, verify::RandomModuleOptions{30, false, false, false});
  constexpr unsigned kLanes = 128, kCycles = 40;
  const unsigned lw = kLanes / 64;

  std::vector<unsigned> in_widths, out_widths;
  for (const PortRef& p : m.inputs()) in_widths.push_back(m.node(p.node).width);
  for (const PortRef& p : m.outputs())
    out_widths.push_back(m.node(p.node).width);
  unsigned in_bits = 0, out_bits = 0;
  for (unsigned w : in_widths) in_bits += w;
  for (unsigned w : out_widths) out_bits += w;

  // Scalar reference: one block per lane.
  std::vector<par::StimulusBlock> scalar(kLanes);
  for (auto& b : scalar)
    b = par::StimulusBlock::make(kCycles,
                                 static_cast<unsigned>(in_widths.size()));
  for (unsigned l = 0; l < kLanes; ++l)
    for (unsigned c = 0; c < kCycles; ++c)
      for (unsigned s = 0; s < in_widths.size(); ++s)
        scalar[l].in_at(c, s) = rng();
  run_batch(m, SimMode::kInterp, scalar);

  // One wide-lane native block carrying the same stimulus.
  par::StimulusBlock wide =
      par::StimulusBlock::make(kCycles, in_bits * lw, kLanes);
  for (unsigned c = 0; c < kCycles; ++c) {
    unsigned slot = 0;
    for (unsigned s = 0; s < in_widths.size(); ++s) {
      for (unsigned bit = 0; bit < in_widths[s]; ++bit) {
        for (unsigned l = 0; l < kLanes; ++l) {
          const std::uint64_t masked =
              scalar[l].in_at(c, s) &
              (in_widths[s] >= 64 ? ~0ull
                                  : ((std::uint64_t{1} << in_widths[s]) - 1));
          wide.in_at(c, slot + bit * lw + l / 64) |=
              ((masked >> bit) & 1u) << (l % 64);
        }
      }
      slot += in_widths[s] * lw;
    }
  }
  std::vector<par::StimulusBlock> wide_batch;
  wide_batch.push_back(std::move(wide));
  run_batch(m, SimMode::kNative, wide_batch);

  const par::StimulusBlock& w = wide_batch.front();
  for (unsigned c = 0; c < kCycles; ++c) {
    unsigned slot = 0;
    for (unsigned s = 0; s < out_widths.size(); ++s) {
      for (unsigned bit = 0; bit < out_widths[s]; ++bit)
        for (unsigned l = 0; l < kLanes; ++l)
          ASSERT_EQ((w.out_at(c, slot + bit * lw + l / 64) >> (l % 64)) & 1u,
                    (scalar[l].out_at(c, s) >> bit) & 1u)
              << "cycle " << c << " output " << s << " bit " << bit
              << " lane " << l;
      slot += out_widths[s] * lw;
    }
  }
}

// --- value-per-lane I/O ----------------------------------------------------

/// set_input_values/output_values (one value per lane, no bit transpose)
/// must agree with the bit-sliced set_input_lanes/output_words path on
/// both engines, at 64 lanes (tape + native) and 256 lanes (native only).
TEST(NativeLaneValues, ValueApiMatchesBitSlicedApi) {
  Builder b("vals");
  Wire a = b.input("a", 16);
  Wire q = b.reg("q", 16);
  b.connect(q, b.add(q, a));
  b.output("o", b.xor_(q, a));
  const Module m = b.take();

  tp::CodegenOptions fb;
  fb.force_fallback = true;
  for (const unsigned lanes : {64u, 256u}) {
    SCOPED_TRACE(lanes);
    const unsigned lw = lanes / 64;
    std::vector<std::unique_ptr<Simulator>> sims;
    sims.push_back(std::make_unique<Simulator>(m, SimMode::kNative, lanes, fb));
    if (lanes <= 64)
      sims.push_back(std::make_unique<Simulator>(m, SimMode::kTape, lanes));
    Simulator bitsliced(m, SimMode::kNative, lanes, fb);

    std::mt19937_64 rng(1234 + lanes);
    std::vector<std::uint64_t> values(lanes);
    std::vector<std::uint64_t> bit_lanes(16 * lw);
    for (unsigned c = 0; c < 50; ++c) {
      for (unsigned l = 0; l < lanes; ++l) values[l] = rng() & 0xffff;
      std::fill(bit_lanes.begin(), bit_lanes.end(), 0);
      for (unsigned l = 0; l < lanes; ++l)
        for (unsigned bit = 0; bit < 16; ++bit)
          bit_lanes[std::size_t{bit} * lw + l / 64] |=
              ((values[l] >> bit) & 1u) << (l % 64);
      bitsliced.set_input_lanes(bitsliced.input_handle("a"), bit_lanes);
      bitsliced.step();
      const std::vector<std::uint64_t> ref_words =
          bitsliced.output_words(bitsliced.output_handle("o"));
      for (auto& sim : sims) {
        sim->set_input_values(sim->input_handle("a"), values);
        sim->step();
        ASSERT_EQ(sim->output_words(sim->output_handle("o")), ref_words)
            << "cycle " << c;
        const std::vector<std::uint64_t> vals =
            sim->output_values(sim->output_handle("o"));
        ASSERT_EQ(vals.size(), lanes);
        for (unsigned l = 0; l < lanes; ++l) {
          std::uint64_t expected = 0;
          for (unsigned bit = 0; bit < 16; ++bit)
            expected |=
                ((ref_words[std::size_t{bit} * lw + l / 64] >> (l % 64)) & 1u)
                << bit;
          ASSERT_EQ(vals[l], expected) << "cycle " << c << " lane " << l;
        }
      }
    }
  }
}

/// Ports wider than one word reject the value API.
TEST(NativeLaneValues, WidePortsThrow) {
  Builder b("wide");
  b.output("o", b.not_(b.input("a", 80)));
  const Module m = b.take();
  tp::CodegenOptions fb;
  fb.force_fallback = true;
  Simulator sim(m, SimMode::kNative, 2, fb);
  std::vector<std::uint64_t> values(2, 0);
  EXPECT_THROW(sim.set_input_values(sim.input_handle("a"), values),
               std::logic_error);
  EXPECT_THROW(sim.output_values(sim.output_handle("o")), std::logic_error);
  // Lane-count mismatches are rejected too.
  Builder b2("ok16");
  b2.output("o", b2.not_(b2.input("a", 16)));
  Simulator s16(b2.take(), SimMode::kNative, 2, fb);
  EXPECT_THROW(
      s16.set_input_values(s16.input_handle("a"), {1, 2, 3}),
      std::logic_error);
}

/// Lane-count validation: 65 is not a lane-word multiple, wide blocks need
/// the native backend, and the interpreted engine stays capped at 64.
TEST(NativeBatch, LaneValidation) {
  Builder b("v");
  b.output("o", b.not_(b.input("a", 4)));
  const Module m = b.take();
  EXPECT_THROW(Simulator(m, SimMode::kNative, tp::kMaxLanes + 1),
               std::logic_error);
  std::vector<par::StimulusBlock> blocks;
  blocks.push_back(par::StimulusBlock::make(1, 4 * 2, 128));
  EXPECT_THROW(run_batch(m, SimMode::kTape, blocks), std::invalid_argument);
  blocks.front().lanes = 65;
  EXPECT_THROW(run_batch(m, SimMode::kNative, blocks),
               std::invalid_argument);
}

// --- lane bounds -----------------------------------------------------------
// Reads past an engine's lane count must throw, not return a neighbouring
// arena slot's words.

/// Four lanes of a memory design: input 1 is `data`, memory 0 is `m`.
Module lane_probe() {
  Builder b("lanes");
  Wire addr = b.input("addr", 2);
  Wire data = b.input("data", 8);
  Wire we = b.input("we", 1);
  auto mh = b.memory("m", 4, 8);
  b.mem_write(mh, addr, data, we);
  b.output("o", b.xor_(b.mem_read(mh, addr), data));
  return b.take();
}

tp::CodegenOptions fallback_only() {
  tp::CodegenOptions fb;
  fb.force_fallback = true;
  return fb;
}

TEST(TapeLaneBounds, OutputRejectsOutOfRangeLane) {
  const Module m = lane_probe();
  tp::Engine e(m, 4);
  EXPECT_NO_THROW(e.output(0, 3));
  EXPECT_THROW(e.output(0, 4), std::logic_error);
}

TEST(TapeLaneBounds, NodeValueRejectsOutOfRangeLane) {
  const Module m = lane_probe();
  tp::Engine e(m, 4);
  const NodeId data = m.inputs()[1].node;
  EXPECT_NO_THROW(e.node_value(data, 3));
  EXPECT_THROW(e.node_value(data, 4), std::logic_error);
}

TEST(TapeLaneBounds, MemWordRejectsOutOfRangeLane) {
  const Module m = lane_probe();
  tp::Engine e(m, 4);
  EXPECT_NO_THROW(e.mem_word(0, 1, 3));
  EXPECT_THROW(e.mem_word(0, 1, 4), std::logic_error);
}

TEST(NativeLaneBounds, OutputRejectsOutOfRangeLane) {
  const Module m = lane_probe();
  tp::NativeEngine e(m, 4, fallback_only());
  EXPECT_NO_THROW(e.output(0, 3));
  EXPECT_THROW(e.output(0, 4), std::logic_error);
}

TEST(NativeLaneBounds, NodeValueRejectsOutOfRangeLane) {
  const Module m = lane_probe();
  tp::NativeEngine e(m, 4, fallback_only());
  const NodeId data = m.inputs()[1].node;
  EXPECT_NO_THROW(e.node_value(data, 3));
  EXPECT_THROW(e.node_value(data, 4), std::logic_error);
}

TEST(NativeLaneBounds, MemWordRejectsOutOfRangeLane) {
  const Module m = lane_probe();
  tp::NativeEngine e(m, 4, fallback_only());
  EXPECT_NO_THROW(e.mem_word(0, 1, 3));
  EXPECT_THROW(e.mem_word(0, 1, 4), std::logic_error);
}

/// The simulator facade checks too: a one-lane native simulator used to
/// answer output_lane(h, 5) from the next arena slot, and the interpreter
/// answered any lane with lane 0.
TEST(NativeLaneBounds, SimulatorRejectsOutOfRangeLane) {
  for (const SimMode mode : {SimMode::kInterp, SimMode::kNative}) {
    Simulator sim(lane_probe(), mode, 1, fallback_only());
    const OutputHandle h = sim.output_handle("o");
    const NodeId data = sim.module().inputs()[1].node;
    EXPECT_NO_THROW(sim.output_lane(h, 0));
    EXPECT_THROW(sim.output_lane(h, 5), std::logic_error);
    EXPECT_NO_THROW(sim.get(data, 0));
    EXPECT_THROW(sim.get(data, 1), std::logic_error);
  }
}

}  // namespace
}  // namespace osss::rtl
