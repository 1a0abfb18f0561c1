#include "opt/satsweep.hpp"

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "gate/equiv.hpp"
#include "opt/rebuild.hpp"
#include "verify/stimgen.hpp"

namespace osss::opt {

using gate::kInvalidNet;
using gate::MemMacro;

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t eval_word(CellKind k, std::uint64_t a, std::uint64_t b,
                        std::uint64_t c) {
  switch (k) {
    case CellKind::kBuf: return a;
    case CellKind::kInv: return ~a;
    case CellKind::kAnd2: return a & b;
    case CellKind::kOr2: return a | b;
    case CellKind::kNand2: return ~(a & b);
    case CellKind::kNor2: return ~(a | b);
    case CellKind::kXor2: return a ^ b;
    case CellKind::kXnor2: return ~(a ^ b);
    case CellKind::kMux2: return (a & b) | (~a & c);
    default: return 0;
  }
}

bool is_free_leaf(CellKind k) {
  return k == CellKind::kInput || k == CellKind::kDff ||
         k == CellKind::kMemQ;
}

bool is_source_kind(CellKind k) {
  return k == CellKind::kConst0 || k == CellKind::kConst1 ||
         k == CellKind::kInput || k == CellKind::kDff;
}

/// Canonical 64-lane enumeration tiles: variable v < 6 toggles with period
/// 2^v lanes, so six variables cover all 64 assignments in one word.
constexpr std::uint64_t kTile[6] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};

/// Exhaustive enumeration of k variables takes this many 64-lane blocks.
std::size_t block_count(std::size_t k) {
  return k > 6 ? std::size_t{1} << (k - 6) : 1;
}

/// Sorted union of two ascending, duplicate-free id lists into `out`.
void merge_support(const std::vector<NetId>& x, const std::vector<NetId>& y,
                   std::vector<NetId>& out) {
  out.clear();
  std::set_union(x.begin(), x.end(), y.begin(), y.end(),
                 std::back_inserter(out));
}

/// "prefix/p0/p1/..." — a StimGen::derive tag.  Built by appending: GCC
/// 12 flags std::string operator+ chains with false -Wrestrict positives.
std::string tag(const char* prefix,
                std::initializer_list<std::uint64_t> parts) {
  std::string s = prefix;
  for (const std::uint64_t p : parts) {
    s += '/';
    s += std::to_string(p);
  }
  return s;
}

/// Visit marks over net ids, cleared in O(1) by bumping a stamp.
class Marks {
 public:
  explicit Marks(std::size_t n) : mark_(n, 0) {}

  void clear() {
    if (++stamp_ == 0) {
      std::fill(mark_.begin(), mark_.end(), 0);
      stamp_ = 1;
    }
  }
  bool test(NetId id) const { return mark_[id] == stamp_; }
  /// Mark `id`; false when it was already marked.
  bool set(NetId id) {
    if (mark_[id] == stamp_) return false;
    mark_[id] = stamp_;
    return true;
  }

 private:
  std::vector<std::uint32_t> mark_;
  std::uint32_t stamp_ = 1;
};

/// Union-find whose root is always the member that the rebuild scaffold may
/// use as class representative: sources before combinational cells, then
/// ascending (level, id).
class UnionFind {
 public:
  UnionFind(const Netlist& nl, const std::vector<std::uint32_t>& levels)
      : nl_(nl), levels_(levels), parent_(nl.cells().size()) {
    for (NetId i = 0; i < parent_.size(); ++i) parent_[i] = i;
  }

  NetId find(NetId id) const {
    while (parent_[id] != id) {
      parent_[id] = parent_[parent_[id]];
      id = parent_[id];
    }
    return id;
  }

  /// Merge the classes of a and b; returns false when already one class.
  bool unite(NetId a, NetId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (better(b, a)) std::swap(a, b);
    parent_[b] = a;
    return true;
  }

  /// Strict "a is a better representative than b" in rebuild's order.
  bool better(NetId a, NetId b) const { return rank(a) < rank(b); }

  /// Sort key of that order: sources by id, then combinational cells by
  /// (level, id).
  std::uint64_t rank(NetId id) const {
    const bool src = is_source_kind(nl_.cells()[id].kind);
    return (src ? 0 : std::uint64_t{levels_[id]} + 1) << 32 | id;
  }

 private:
  const Netlist& nl_;
  const std::vector<std::uint32_t>& levels_;
  mutable std::vector<NetId> parent_;
};

/// How resolve() settled a candidate pair.
enum class Verdict { kRefuted, kProven, kSampled };

class Sweeper {
 public:
  Sweeper(const Netlist& nl, const SatSweepOptions& opt, std::uint64_t seed)
      : nl_(nl),
        opt_(opt),
        seed_(seed),
        levels_(nl.topo_levels()),
        order_(level_order(nl)),
        uf_(nl, levels_),
        seen_(nl.cells().size()),
        aff_(nl.cells().size()),
        point_(nl.cells().size()),
        lane_(nl.cells().size(), 0) {
    lane_[1] = ~0ull;
  }

  std::size_t sweep() {
    std::size_t merges = 0;
    // Iterate: a register or memory-port merge can equalize further cones.
    for (unsigned iter = 0; iter < 8; ++iter) {
      std::size_t round = dedup_memq();
      round += dedup_dffs();
      round += const_regs(iter);
      round += merge_comb(iter);
      merges += round;
      if (round == 0) break;
    }
    return merges;
  }

  NetId find(NetId id) const { return uf_.find(id); }

  /// Merges accepted on random resolution alone (no exhaustive proof).
  std::size_t sampled_merges() const { return sampled_merges_; }

  /// SDC phase: re-prove the externally supplied per-bit register constants
  /// by netlist induction, then unite the survivors into the constant-net
  /// classes.  Mirrors const_regs' structure; the value added by the facts
  /// is the random-resolution fallback for cones whose free support exceeds
  /// the exhaustive prover — the RTL-level abstract interpreter already
  /// proved the invariant, so a sampled netlist-level confirmation (plus
  /// the in-pass differential check) carries the name-mapping trust
  /// boundary.  Returns the number of registers merged.
  std::size_t sweep_facts() {
    if (!opt_.facts || opt_.facts->empty()) return 0;
    std::vector<char> cand(nl_.cells().size(), 0);
    std::vector<NetId> regs;
    for (NetId id = 0; id < nl_.cells().size(); ++id) {
      const Cell& c = nl_.cells()[id];
      if (c.kind != CellKind::kDff || uf_.find(id) != id || c.ins.empty())
        continue;
      const auto it = opt_.facts->find(c.name);
      // A valid invariant always covers the reset state, so a claim that
      // disagrees with the init value is a stale or mismapped fact: drop.
      if (it == opt_.facts->end() || it->second != (c.init != 0)) continue;
      cand[id] = 1;
      regs.push_back(id);
    }
    if (regs.empty()) return 0;

    // Simulation filter with every claimed register pinned at init.
    std::vector<std::uint64_t> val;
    for (bool changed = true; changed;) {
      changed = false;
      for (unsigned r = 0; r < 4; ++r) {
        simulate_round(val,
                       verify::StimGen::derive(seed_, tag("factreg", {r})),
                       &cand);
        for (const NetId q : regs) {
          if (cand[q] == 0) continue;
          if (val[nl_.cells()[q].ins[0]] != init_word(q)) {
            cand[q] = 0;
            changed = true;
          }
        }
      }
    }
    // Induction step per survivor: exhaustive when the free support fits,
    // random resolution otherwise.
    std::vector<char> sampled(nl_.cells().size(), 0);
    for (bool changed = true; changed;) {
      changed = false;
      for (const NetId q : regs) {
        if (cand[q] == 0) continue;
        const std::uint64_t want = init_word(q);
        bool ok = cone_of(nl_.cells()[q].ins[0], ca_);
        if (ok) pin_support(ca_, cand);
        sampled[q] = ok && free_.size() > opt_.exhaustive_bits;
        if (ok && sampled[q] == 0) {
          ok = constant_over(ca_, free_, want);
        } else if (ok) {
          for (unsigned r = 0; r < opt_.resolution_rounds && ok; ++r) {
            std::uint64_t s =
                verify::StimGen::derive(seed_, tag("factres", {q, r}));
            for (const NetId v : free_) lane_[v] = splitmix64(s);
            ok = eval(ca_) == want;
          }
        }
        if (!ok) {
          cand[q] = 0;
          changed = true;
        }
      }
    }
    std::size_t merges = 0;
    for (const NetId q : regs)
      if (cand[q] != 0 && uf_.unite(q, nl_.cells()[q].init ? 1 : 0)) {
        ++merges;
        sampled_merges_ += sampled[q] != 0 ? 1 : 0;
      }
    return merges;
  }

  /// Sequential phase: a 64-lane trajectory from reset samples the
  /// reachable state space (so reachable-state structure — saturating
  /// counters, one-hot guards, mirrored registers — is in scope, not just
  /// combinational identities).  The trajectory only *nominates*; every
  /// merge is proven:
  ///
  ///   * register equivalences (van Eijk): register pairs with equal init
  ///     that agreed on every sampled cycle are assumed equal as a set —
  ///     the leader substitutes for the follower in every next-state cone —
  ///     and each pair's D cones are then proven equal exhaustively over
  ///     the remaining free support; failures drop out of the assumption
  ///     set and the rest re-prove, to a fixpoint.  Survivors are sound by
  ///     induction from reset.
  ///   * observability merges: nets that differ only where the chain-rule
  ///     mask says nobody is watching are accepted only on an exact proof —
  ///     exhaustive enumeration of the union free support of every affected
  ///     observation cone, comparing each cone with and without the
  ///     replacement.
  ///
  /// The netlist is fully resimulated after each comb merge.  Returns the
  /// number of merges applied.
  std::size_t sweep_odc() {
    if (opt_.odc_max_merges == 0 || opt_.odc_cycles == 0) return 0;
    const std::size_t n = nl_.cells().size();
    if (n > opt_.odc_max_cells) return 0;
    simulate_trajectory();
    std::size_t merges = sweep_seq_regs();
    std::vector<NetId> cands;
    while (merges < opt_.odc_max_merges) {
      simulate_trajectory();
      prepare_scan();
      NetId ma = kInvalidNet;
      NetId mb = kInvalidNet;
      for (NetId a = 0; a < n && ma == kInvalidNet; ++a) {
        if (uf_.find(a) != a) continue;
        const CellKind ka = nl_.cells()[a].kind;
        if (is_free_leaf(ka) || is_source_kind(ka)) continue;
        if (levels_[a] == gate::kNoLevel) continue;
        // Every affected observation cone's support is a superset of a's
        // own (the cone runs through a), so a wide-support a can never be
        // proven — skip before the quadratic candidate scan.
        if (!walk(a, opt_.odc_exhaustive_bits, support_)) continue;
        // Nominees: the class reps better than a (a prefix of odc_reps_)
        // that agree with a wherever a is observed on the trajectory,
        // filtered one observed cycle at a time, tried in ascending id
        // order.
        const auto better_end = std::lower_bound(
            odc_rank_.begin(), odc_rank_.end(), uf_.rank(a));
        cands.assign(odc_reps_.begin(),
                     odc_reps_.begin() + (better_end - odc_rank_.begin()));
        for (unsigned t = 0; t < opt_.odc_cycles && !cands.empty(); ++t) {
          const std::uint64_t mask = odc_obs_[t][a];
          if (mask == 0) continue;
          const std::vector<std::uint64_t>& v = odc_val_[t];
          std::erase_if(cands, [&](NetId b) {
            return ((v[a] ^ v[b]) & mask) != 0;
          });
        }
        if (cands.empty()) continue;
        std::sort(cands.begin(), cands.end());
        if (!odc_ctx(a)) continue;
        for (const NetId b : cands)
          if (prove_odc(a, b)) {
            ma = a;
            mb = b;
            break;
          }
      }
      if (ma == kInvalidNet) break;
      uf_.unite(ma, mb);
      ++merges;
    }
    return merges;
  }

 private:
  static constexpr std::size_t kConeCap = 4096;
  static constexpr std::size_t kNoBound =
      std::numeric_limits<std::size_t>::max();

  /// One combinational cell with resolved operands: the class
  /// representatives it reads in the merged view, 0 (the constant-0 net)
  /// for an absent input.  Compiled cones index lane_ with them, the
  /// trajectory (merged_) its per-cycle value arrays.
  struct Op {
    CellKind kind;
    NetId dst, a, b, c;
  };

  /// A cone lowered by cone_of: its cells as a flat op list in ascending
  /// (level, id) order over lane_.  eval() runs it once the caller has
  /// written every support leaf's lane word.
  struct Cone {
    std::vector<Op> ops;
    std::vector<NetId> support;  ///< free-leaf class representatives, ascending
    NetId root = 0;              ///< lane_ slot holding the cone's value
  };

  /// Per-candidate proof context for observability merges: the observation
  /// points in a's transitive fanout, their cones and the union free
  /// support — all independent of the replacement net b, so built once per
  /// a and reused across the candidate scan.  `cones` only grows; the
  /// first points.size() entries are live.
  struct OdcCtx {
    std::vector<NetId> points;
    std::vector<Cone> cones;
    std::vector<NetId> support;  ///< ascending
  };

  const Netlist& nl_;
  const SatSweepOptions& opt_;
  std::uint64_t seed_;
  std::vector<std::uint32_t> levels_;
  std::vector<NetId> order_;
  UnionFind uf_;
  std::size_t sampled_merges_ = 0;
  /// Trial substitution overlay for sweep_seq_regs: maps a class rep onto
  /// the register it is assumed equal to.  Empty = inactive.  Applied by
  /// res() after find(), so cone extraction and evaluation see the merged
  /// netlist *plus* the assumption set under test.
  std::vector<NetId> trial_;

  // --- proof scratch, allocated once per Sweeper ---------------------------
  Marks seen_;                    ///< cone walk visits, then emitted slots
  Marks aff_;                     ///< odc_ctx: a's transitive fanout
  Marks point_;                   ///< odc_ctx: observation points taken
  std::vector<NetId> stack_;      ///< cone walk / fanout traversal stack
  std::vector<NetId> walk_;       ///< comb cells of the last walk
  std::vector<NetId> support_;    ///< union-support scratch
  std::vector<NetId> free_;       ///< pin_support's free variables
  /// One lane word per net: constants at 0/1, support leaves as written by
  /// the caller, cone cells as computed by eval().
  std::vector<std::uint64_t> lane_;
  Cone ca_, cb_;
  OdcCtx ctx_;

  NetId res(NetId id) const {
    id = uf_.find(id);
    return trial_.empty() ? id : trial_[id];
  }

  std::uint64_t init_word(NetId id) const {
    return nl_.cells()[id].init ? ~0ull : 0ull;
  }

  // --- ODC phase state: one entry per trajectory cycle --------------------
  std::vector<std::vector<std::uint64_t>> odc_val_;  ///< net values
  std::vector<std::vector<std::uint64_t>> odc_obs_;  ///< chain-rule obs masks
  // --- the merged netlist, see lower_merged -------------------------------
  std::vector<Op> merged_;
  std::vector<NetId> rep_inputs_;
  std::vector<std::pair<NetId, NetId>> rep_regs_;  ///< (Q, resolved D)
  std::vector<NetId> obs_points_;  ///< resolved, with duplicates
  // --- per-scan views of the merged netlist (see prepare_scan) ------------
  std::vector<std::uint32_t> fan_off_;  ///< CSR offsets into fan_
  std::vector<NetId> fan_;              ///< comb consumers per class rep
  std::vector<NetId> odc_reps_;         ///< replacement candidates b
  std::vector<std::uint64_t> odc_rank_; ///< uf_.rank() of each odc_reps_

  /// Read one memory bit against explicit contents, with the same per-lane
  /// semantics as gate::Simulator::eval_memq: lanes whose address is out of
  /// range read 0.  Bit-sliced: lane-select masks per word.
  std::uint64_t memq_eval(const std::vector<std::uint64_t>& mem,
                          const Cell& c,
                          const std::vector<std::uint64_t>& val) const {
    const MemMacro& m = nl_.memories()[c.param];
    std::uint64_t out = 0;
    for (unsigned w = 0; w < m.depth; ++w) {
      std::uint64_t eq = ~0ull;
      for (std::size_t i = 0; i < c.ins.size() && eq; ++i) {
        const std::uint64_t bit = val[uf_.find(c.ins[i])];
        eq &= ((w >> i) & 1u) ? bit : ~bit;
      }
      if (eq) out |= eq & mem[static_cast<std::size_t>(w) * m.width + c.param2];
    }
    return out;
  }

  /// Lower the *merged* view of the netlist, resolved through find() —
  /// exactly the wiring rebuild will emit — for as long as the union-find
  /// stays fixed: merged_ (every class-rep cell of order_), the class-rep
  /// inputs and registers (with resolved D, kInvalidNet when unconnected),
  /// and obs_points_: the for_each_obs_point nets, then memory read
  /// addresses, which redirect reads the combinational cut does not model.
  void lower_merged() {
    merged_.clear();
    for (const NetId id : order_) {
      if (uf_.find(id) != id) continue;
      const Cell& c = nl_.cells()[id];
      const auto in = [&](std::size_t j) {
        return j < c.ins.size() ? uf_.find(c.ins[j]) : NetId{0};
      };
      merged_.push_back({c.kind, id, in(0), in(1), in(2)});
    }
    obs_points_.clear();
    for_each_obs_point([&](NetId p) { obs_points_.push_back(p); });
    rep_inputs_.clear();
    rep_regs_.clear();
    for (NetId id = 0; id < nl_.cells().size(); ++id) {
      const Cell& c = nl_.cells()[id];
      if (uf_.find(id) != id) continue;
      if (c.kind == CellKind::kInput) rep_inputs_.push_back(id);
      if (c.kind == CellKind::kDff)
        rep_regs_.emplace_back(
            id, c.ins.empty() ? kInvalidNet : uf_.find(c.ins[0]));
      if (c.kind == CellKind::kMemQ)
        for (const NetId in : c.ins) obs_points_.push_back(uf_.find(in));
    }
  }

  /// One combinational evaluation of merged_.  Free leaves (inputs, DFF
  /// state) must already be set in `val`; kMemQ cells read `mem`.
  void eval_resolved(std::vector<std::uint64_t>& val,
                     const std::vector<std::vector<std::uint64_t>>& mem) const {
    for (const Op& op : merged_) {
      if (op.kind == CellKind::kMemQ) {
        const Cell& c = nl_.cells()[op.dst];
        val[op.dst] = memq_eval(mem[c.param], c, val);
        continue;
      }
      val[op.dst] = eval_word(op.kind, val[op.a], val[op.b], val[op.c]);
    }
  }

  /// The nets whose values define external/sequential behavior: outputs,
  /// DFF D pins, memory write ports.  Resolved through find(); duplicates
  /// are harmless.
  template <typename F>
  void for_each_obs_point(F&& f) const {
    for (const auto& bus : nl_.outputs())
      for (const NetId net : bus.nets) f(uf_.find(net));
    for (NetId id = 0; id < nl_.cells().size(); ++id) {
      const Cell& c = nl_.cells()[id];
      if (c.kind == CellKind::kDff && uf_.find(id) == id && !c.ins.empty())
        f(uf_.find(c.ins[0]));
    }
    for (const MemMacro& m : nl_.memories())
      for (const auto& wp : m.writes) {
        for (const NetId a : wp.addr) f(uf_.find(a));
        for (const NetId d : wp.data) f(uf_.find(d));
        f(uf_.find(wp.enable));
      }
  }

  /// Chain-rule observability masks for cycle `t`: observation points are
  /// fully observable, and a cell input inherits (flip-sensitivity AND the
  /// cell's own mask) in reverse topological order.  Reconvergent fanout
  /// makes this approximate in both directions, which is fine: it is only
  /// the candidate filter, never the proof.
  void compute_obs(unsigned t) {
    std::vector<std::uint64_t>& obs = odc_obs_[t];
    const std::vector<std::uint64_t>& val = odc_val_[t];
    obs.assign(nl_.cells().size(), 0);
    for (const NetId p : obs_points_) obs[p] = ~0ull;
    // An input's flip sensitivity is the cell's Boolean difference with
    // respect to it, written out per kind.
    for (auto it = merged_.rbegin(); it != merged_.rend(); ++it) {
      const Op& op = *it;
      const std::uint64_t m = obs[op.dst];
      if (m == 0) continue;
      switch (op.kind) {
        case CellKind::kBuf:
        case CellKind::kInv:
          obs[op.a] |= m;
          break;
        case CellKind::kAnd2:
        case CellKind::kNand2:
          obs[op.a] |= val[op.b] & m;
          obs[op.b] |= val[op.a] & m;
          break;
        case CellKind::kOr2:
        case CellKind::kNor2:
          obs[op.a] |= ~val[op.b] & m;
          obs[op.b] |= ~val[op.a] & m;
          break;
        case CellKind::kXor2:
        case CellKind::kXnor2:
          obs[op.a] |= m;
          obs[op.b] |= m;
          break;
        case CellKind::kMux2:
          obs[op.a] |= (val[op.b] ^ val[op.c]) & m;
          obs[op.b] |= val[op.a] & m;
          obs[op.c] |= ~val[op.a] & m;
          break;
        default:  // kMemQ: its addresses are observation points
          break;
      }
    }
  }

  /// Simulate `odc_cycles` cycles of the merged netlist from power-on reset
  /// under deterministic random inputs, recording per-cycle values and
  /// observability masks.
  void simulate_trajectory() {
    const std::size_t n = nl_.cells().size();
    const unsigned cycles = opt_.odc_cycles;
    odc_val_.resize(cycles);
    odc_obs_.resize(cycles);
    lower_merged();
    const std::uint64_t base = verify::StimGen::derive(seed_, "odc/traj");

    std::vector<std::vector<std::uint64_t>> mem(nl_.memories().size());
    for (std::size_t mi = 0; mi < mem.size(); ++mi) {
      const MemMacro& m = nl_.memories()[mi];
      mem[mi].assign(static_cast<std::size_t>(m.depth) * m.width, 0);
    }
    std::vector<std::uint64_t> state(n, 0);
    for (const auto& [q, d] : rep_regs_) state[q] = init_word(q);

    for (unsigned t = 0; t < cycles; ++t) {
      std::vector<std::uint64_t>& val = odc_val_[t];
      val.assign(n, 0);
      val[1] = ~0ull;
      for (const NetId id : rep_inputs_) {
        std::uint64_t s = base +
                          0x6a09e667f3bcc909ull *
                              (static_cast<std::uint64_t>(id) + 1) +
                          0x3c6ef372fe94f82bull * (t + 1);
        val[id] = splitmix64(s);
      }
      for (const auto& [q, d] : rep_regs_) val[q] = state[q];
      eval_resolved(val, mem);
      compute_obs(t);

      // Commit: write ports in declaration order (later ports win a
      // same-word collision, matching gate::Simulator), then DFF state.
      // Both sample pre-edge values, so ordering between them is moot.
      for (std::size_t mi = 0; mi < mem.size(); ++mi) {
        const MemMacro& m = nl_.memories()[mi];
        for (const auto& wp : m.writes) {
          const std::uint64_t en = val[uf_.find(wp.enable)];
          if (!en) continue;
          for (unsigned w = 0; w < m.depth; ++w) {
            std::uint64_t eq = en;
            for (std::size_t i = 0; i < wp.addr.size() && eq; ++i) {
              const std::uint64_t bit = val[uf_.find(wp.addr[i])];
              eq &= ((w >> i) & 1u) ? bit : ~bit;
            }
            if (!eq) continue;
            for (unsigned b = 0; b < m.width; ++b) {
              std::uint64_t& word =
                  mem[mi][static_cast<std::size_t>(w) * m.width + b];
              word = (word & ~eq) | (val[uf_.find(wp.data[b])] & eq);
            }
          }
        }
      }
      for (const auto& [q, d] : rep_regs_)
        if (d != kInvalidNet) state[q] = val[d];
    }
  }

  /// Build the views the ODC candidate scan reads while the union-find
  /// stays fixed (until the next merge): each class rep's combinational
  /// consumers as CSR over merged_ (memory reads cut the fanout, as in the
  /// proof), and the replacement candidates — class reps other than
  /// memory reads — best first, so the reps better than any a form a
  /// prefix.
  void prepare_scan() {
    const std::size_t n = nl_.cells().size();
    const auto each_edge = [&](auto&& f) {
      for (const Op& op : merged_) {
        if (op.kind == CellKind::kMemQ) continue;
        const NetId in[3] = {op.a, op.b, op.c};
        for (std::size_t j = 0; j < nl_.cells()[op.dst].ins.size(); ++j)
          f(in[j], op.dst);
      }
    };
    fan_off_.assign(n + 1, 0);
    each_edge([&](NetId from, NetId) { ++fan_off_[from + 1]; });
    std::partial_sum(fan_off_.begin(), fan_off_.end(), fan_off_.begin());
    fan_.resize(fan_off_[n]);
    std::vector<std::uint32_t> pos(fan_off_.begin(), fan_off_.end() - 1);
    each_edge([&](NetId from, NetId to) { fan_[pos[from]++] = to; });

    odc_reps_.clear();
    for (NetId id = 0; id < n; ++id)
      if (uf_.find(id) == id && nl_.cells()[id].kind != CellKind::kMemQ)
        odc_reps_.push_back(id);
    std::sort(odc_reps_.begin(), odc_reps_.end(),
              [&](NetId x, NetId y) { return uf_.better(x, y); });
    odc_rank_.clear();
    for (const NetId id : odc_reps_) odc_rank_.push_back(uf_.rank(id));
  }

  /// Van Eijk sequential register equivalence.  Candidate pairs: rep
  /// registers with equal init whose Q values agreed on every sampled
  /// trajectory cycle.  All candidates are assumed equal at once (the
  /// trial substitution maps each follower onto its leader inside every
  /// cone), then each pair's next-state cones must be proven equal
  /// exhaustively over the remaining free support — a pair that cannot be
  /// proven (support too wide, or a real mismatch) is dropped and the
  /// survivors re-prove under the smaller assumption set, to a fixpoint.
  /// Base case (equal init) plus inductive step (equal D under the
  /// assumption, for *all* states and inputs) make the surviving merges
  /// sound from reset, with no reliance on sampling.
  std::size_t sweep_seq_regs() {
    const std::size_t n = nl_.cells().size();
    std::unordered_map<std::uint64_t, std::vector<NetId>> groups;
    for (NetId q = 0; q < n; ++q) {
      const Cell& c = nl_.cells()[q];
      if (c.kind != CellKind::kDff || uf_.find(q) != q || c.ins.empty())
        continue;
      std::uint64_t h = c.init ? 0x9e3779b97f4a7c15ull : 0xcbf29ce484222325ull;
      for (unsigned t = 0; t < opt_.odc_cycles; ++t)
        h = (h ^ odc_val_[t][q]) * 0x100000001b3ull;
      groups[h].push_back(q);
    }
    std::vector<std::pair<NetId, NetId>> pairs;  // (leader, follower)
    for (auto& [h, members] : groups) {
      if (members.size() < 2) continue;
      std::sort(members.begin(), members.end(),
                [&](NetId x, NetId y) { return uf_.better(x, y); });
      for (std::size_t i = 1; i < members.size(); ++i)
        if (nl_.cells()[members[i]].init == nl_.cells()[members[0]].init)
          pairs.emplace_back(members[0], members[i]);
    }
    if (pairs.empty()) return 0;

    const std::size_t bits = opt_.exhaustive_bits;
    std::vector<char> alive(pairs.size(), 1);
    for (bool changed = true; changed;) {
      changed = false;
      trial_.resize(n);
      for (NetId id = 0; id < n; ++id) trial_[id] = id;
      for (std::size_t i = 0; i < pairs.size(); ++i)
        if (alive[i] != 0) trial_[pairs[i].second] = pairs[i].first;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (alive[i] == 0) continue;
        bool ok = cone_of(nl_.cells()[pairs[i].first].ins[0], ca_, bits) &&
                  cone_of(nl_.cells()[pairs[i].second].ins[0], cb_, bits);
        if (ok) {
          merge_support(ca_.support, cb_.support, support_);
          ok = support_.size() <= bits;
        }
        for (std::size_t blk = 0;
             ok && blk < block_count(support_.size()); ++blk) {
          set_block(support_, blk);
          ok = eval(ca_) == eval(cb_);
        }
        if (!ok) {
          alive[i] = 0;
          changed = true;
        }
      }
    }
    trial_.clear();
    std::size_t merges = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i)
      if (alive[i] != 0 && uf_.unite(pairs[i].first, pairs[i].second))
        ++merges;
    return merges;
  }

  /// Build ctx_ for candidate a.  False as soon as the context cannot
  /// support a proof: more than 64 observation points, a cone past the
  /// cell cap, or a union support past odc_exhaustive_bits — each cone walk
  /// stops at that budget and the union is checked after every cone.
  bool odc_ctx(NetId a) {
    OdcCtx& ctx = ctx_;
    ctx.points.clear();
    ctx.support.clear();
    // a's transitive combinational fanout in the merged view.
    aff_.clear();
    aff_.set(a);
    stack_.assign(1, a);
    while (!stack_.empty()) {
      const NetId id = stack_.back();
      stack_.pop_back();
      for (std::uint32_t i = fan_off_[id]; i < fan_off_[id + 1]; ++i)
        if (aff_.set(fan_[i])) stack_.push_back(fan_[i]);
    }
    point_.clear();
    for (const NetId p : obs_points_)
      if (aff_.test(p) && point_.set(p)) ctx.points.push_back(p);
    if (ctx.points.size() > 64) return false;
    if (ctx.cones.size() < ctx.points.size())
      ctx.cones.resize(ctx.points.size());
    for (std::size_t i = 0; i < ctx.points.size(); ++i) {
      if (!cone_of(ctx.points[i], ctx.cones[i], opt_.odc_exhaustive_bits))
        return false;
      merge_support(ctx.support, ctx.cones[i].support, support_);
      ctx.support.swap(support_);
      if (ctx.support.size() > opt_.odc_exhaustive_bits) return false;
    }
    return true;
  }

  /// Observability merge proof against ctx_ (built by odc_ctx(a)): a and b
  /// genuinely differ, so the replacement is legal only if the difference
  /// can *never* reach an observation point — and the chain-rule mask that
  /// nominated the pair is approximate, so this is proven, not sampled.
  /// Enumerate the union free support of b's cone and every affected
  /// observation cone exhaustively, and require each cone to be
  /// bit-identical with and without a forced to b's value.  DFF D pins and
  /// memory ports cut the fanout traversal, so the proof is combinational
  /// and therefore sequentially sound.
  bool prove_odc(NetId a, NetId b) {
    const OdcCtx& ctx = ctx_;
    if (ctx.points.empty()) return true;  // provably unobservable
    if (!cone_of(b, cb_, opt_.odc_exhaustive_bits)) return false;
    merge_support(ctx.support, cb_.support, support_);
    if (support_.size() > opt_.odc_exhaustive_bits) return false;
    for (std::size_t blk = 0; blk < block_count(support_.size()); ++blk) {
      set_block(support_, blk);
      const std::uint64_t bv = eval(cb_);
      for (std::size_t i = 0; i < ctx.points.size(); ++i)
        if (eval(ctx.cones[i]) != eval(ctx.cones[i], a, bv)) return false;
    }
    return true;
  }

  /// Structural dedup of memory read bits: same memory, same data bit and
  /// class-equal address nets read the same value.
  std::size_t dedup_memq() {
    std::unordered_map<std::string, NetId> seen;
    std::size_t merges = 0;
    for (const NetId id : order_) {
      const Cell& c = nl_.cells()[id];
      if (c.kind != CellKind::kMemQ) continue;
      std::string key = std::to_string(c.param);
      key += ':';
      key += std::to_string(c.param2);
      for (const NetId in : c.ins) {
        key += ',';
        key += std::to_string(uf_.find(in));
      }
      const auto [it, inserted] = seen.emplace(std::move(key), id);
      if (!inserted && uf_.unite(it->second, id)) ++merges;
    }
    return merges;
  }

  /// Register dedup: class-equal D nets + equal init value => equal Q, by
  /// induction from reset.
  std::size_t dedup_dffs() {
    std::unordered_map<std::uint64_t, NetId> seen;
    std::size_t merges = 0;
    for (NetId id = 0; id < nl_.cells().size(); ++id) {
      const Cell& c = nl_.cells()[id];
      if (c.kind != CellKind::kDff) continue;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(uf_.find(c.ins.at(0))) << 1) |
          (c.init ? 1u : 0u);
      const auto [it, inserted] = seen.emplace(key, id);
      if (!inserted && uf_.unite(it->second, id)) ++merges;
    }
    return merges;
  }

  /// Sequential constant propagation: a register equals its initial value
  /// forever when its next-state function yields that value whenever every
  /// candidate register holds its initial value — induction from reset.
  /// Candidates shrink to a simulation fixpoint; each survivor is then
  /// proven exactly by exhaustive enumeration over its cone's free support
  /// (survivors whose free support is too wide are dropped, never guessed),
  /// and merges into the constant-net class.
  std::size_t const_regs(unsigned iter) {
    std::vector<char> cand(nl_.cells().size(), 0);
    std::vector<NetId> regs;
    for (NetId id = 0; id < nl_.cells().size(); ++id) {
      const Cell& c = nl_.cells()[id];
      if (c.kind != CellKind::kDff || uf_.find(id) != id || c.ins.empty())
        continue;
      cand[id] = 1;
      regs.push_back(id);
    }
    // Cheap filter: 64-lane rounds with the candidates pinned at init; a
    // candidate whose D deviates is out.  Every pass either removes a
    // candidate or reaches the fixpoint, so the loop terminates.
    std::vector<std::uint64_t> val;
    for (bool changed = true; changed;) {
      changed = false;
      for (unsigned r = 0; r < 4; ++r) {
        simulate_round(
            val, verify::StimGen::derive(seed_, tag("constreg", {iter, r})),
            &cand);
        for (const NetId q : regs) {
          if (cand[q] == 0) continue;
          if (val[nl_.cells()[q].ins[0]] != init_word(q)) {
            cand[q] = 0;
            changed = true;
          }
        }
      }
    }
    // Exact step proofs.  Each proof assumes the other survivors are
    // constant, so re-prove until no survivor drops.
    for (bool changed = true; changed;) {
      changed = false;
      for (const NetId q : regs) {
        if (cand[q] == 0) continue;
        bool ok = cone_of(nl_.cells()[q].ins[0], ca_);
        if (ok) {
          pin_support(ca_, cand);
          ok = free_.size() <= opt_.exhaustive_bits &&
               constant_over(ca_, free_, init_word(q));
        }
        if (!ok) {
          cand[q] = 0;
          changed = true;
        }
      }
    }
    std::size_t merges = 0;
    for (const NetId q : regs)
      if (cand[q] != 0 && uf_.unite(q, nl_.cells()[q].init ? 1 : 0)) ++merges;
    return merges;
  }

  /// Random value of a free leaf's class this round (one stream per class,
  /// so merged registers agree).  Registers flagged in `pinned` are held at
  /// their initial value instead (sequential constant candidates).
  void assign_free(std::vector<std::uint64_t>& val, std::uint64_t round_seed,
                   const std::vector<char>* pinned = nullptr) {
    for (NetId id = 0; id < nl_.cells().size(); ++id) {
      const Cell& c = nl_.cells()[id];
      if (!is_free_leaf(c.kind)) continue;
      const NetId rep = uf_.find(id);
      if (rep == id) {
        if (pinned != nullptr && (*pinned)[id] != 0) {
          val[id] = c.init ? ~0ull : 0ull;
          continue;
        }
        std::uint64_t s = round_seed + 0x6a09e667f3bcc909ull *
                                           (static_cast<std::uint64_t>(id) + 1);
        val[id] = splitmix64(s);
      }
    }
    for (NetId id = 0; id < nl_.cells().size(); ++id)
      if (is_free_leaf(nl_.cells()[id].kind)) val[id] = val[uf_.find(id)];
  }

  /// Simulate one 64-lane round over the whole netlist.
  void simulate_round(std::vector<std::uint64_t>& val,
                      std::uint64_t round_seed,
                      const std::vector<char>* pinned = nullptr) {
    val.assign(nl_.cells().size(), 0);
    val[1] = ~0ull;
    assign_free(val, round_seed, pinned);
    for (const NetId id : order_) {
      const Cell& c = nl_.cells()[id];
      if (c.kind == CellKind::kMemQ) continue;  // free leaf, assigned above
      val[id] = eval_word(c.kind, val[c.ins[0]],
                          c.ins.size() > 1 ? val[c.ins[1]] : 0,
                          c.ins.size() > 2 ? val[c.ins[2]] : 0);
    }
  }

  /// Walk root's cone over the merged view (res() on every edge): its comb
  /// cells into walk_, its free-leaf class reps into `support`, both in
  /// visit order.  Returns false as soon as the cone has more than
  /// kConeCap cells or more than `max_support` free leaves, so a size
  /// bound costs no more than the walk up to where it fails.
  bool walk(NetId root, std::size_t max_support, std::vector<NetId>& support) {
    seen_.clear();
    walk_.clear();
    support.clear();
    stack_.clear();
    const auto visit = [&](NetId id) {
      if (seen_.set(id)) stack_.push_back(id);
    };
    visit(res(root));
    while (!stack_.empty()) {
      const NetId id = stack_.back();
      stack_.pop_back();
      const Cell& c = nl_.cells()[id];
      if (c.kind == CellKind::kConst0 || c.kind == CellKind::kConst1) continue;
      if (is_free_leaf(c.kind)) {
        support.push_back(id);
        if (support.size() > max_support) return false;
        continue;
      }
      walk_.push_back(id);
      if (walk_.size() > kConeCap) return false;
      for (const NetId in : c.ins) visit(res(in));
    }
    return true;
  }

  /// Lower root's cone into `cone` (see Cone); false, leaving `cone`
  /// unusable, when the walk hits the cell cap or `max_support` free
  /// leaves (see walk()) — a proof that cannot use a wider cone passes its
  /// budget.  Operands are resolved here, once per cone: one that is
  /// neither a constant, a support leaf nor an earlier op would read a
  /// stale lane word, so it throws.
  bool cone_of(NetId root, Cone& cone, std::size_t max_support = kNoBound) {
    cone.ops.clear();
    if (!walk(root, max_support, cone.support)) return false;
    std::sort(walk_.begin(), walk_.end(), [&](NetId a, NetId b) {
      if (levels_[a] != levels_[b]) return levels_[a] < levels_[b];
      return a < b;
    });
    std::sort(cone.support.begin(), cone.support.end());
    seen_.clear();
    for (const NetId s : cone.support) seen_.set(s);
    const auto operand = [&](const Cell& c, std::size_t j) -> NetId {
      if (j >= c.ins.size()) return 0;
      const NetId r = res(c.ins[j]);
      if (r > 1 && !seen_.test(r)) {
        std::string msg = "satsweep: the cone of net ";
        msg += std::to_string(root);
        msg += " reads net ";
        msg += std::to_string(r);
        msg += " before evaluating it";
        throw std::logic_error(msg);
      }
      return r;
    };
    for (const NetId id : walk_) {
      const Cell& c = nl_.cells()[id];
      cone.ops.push_back(
          {c.kind, id, operand(c, 0), operand(c, 1), operand(c, 2)});
      seen_.set(id);
    }
    cone.root = res(root);
    return true;
  }

  /// Run a compiled cone over lane_; the caller has written every support
  /// leaf's word.  `forced` (when != kInvalidNet) is held at `forced_val`
  /// instead of being recomputed — the replacement under test in
  /// prove_odc.
  std::uint64_t eval(const Cone& cone, NetId forced = kInvalidNet,
                     std::uint64_t forced_val = 0) {
    for (const Op& op : cone.ops)
      lane_[op.dst] = op.dst == forced
                          ? forced_val
                          : eval_word(op.kind, lane_[op.a], lane_[op.b],
                                      lane_[op.c]);
    return lane_[cone.root];
  }

  /// Exhaustive block `blk` over `vars`: variables 0..5 take the canonical
  /// 64-lane tiles, variables >= 6 sweep over block-index bits.
  void set_block(const std::vector<NetId>& vars, std::size_t blk) {
    for (std::size_t v = 0; v < vars.size(); ++v)
      lane_[vars[v]] =
          v < 6 ? kTile[v] : ((blk >> (v - 6)) & 1u ? ~0ull : 0ull);
  }

  /// Split `cone`'s support: registers flagged in `cand` get their init
  /// word in lane_, the rest become free_ (ascending).
  void pin_support(const Cone& cone, const std::vector<char>& cand) {
    free_.clear();
    for (const NetId s : cone.support) {
      if (cand[s] != 0)
        lane_[s] = init_word(s);
      else
        free_.push_back(s);
    }
  }

  /// Whether `cone` yields `want` under every assignment of `vars` (the
  /// rest of its support already written).
  bool constant_over(const Cone& cone, const std::vector<NetId>& vars,
                     std::uint64_t want) {
    for (std::size_t blk = 0; blk < block_count(vars.size()); ++blk) {
      set_block(vars, blk);
      if (eval(cone) != want) return false;
    }
    return true;
  }

  /// Resolve a signature-collision pair: exhaustive proof when the union
  /// support is small enough, random resolution otherwise.
  Verdict resolve(NetId a, NetId b, unsigned iter) {
    if (!cone_of(a, ca_) || !cone_of(b, cb_)) return Verdict::kRefuted;
    merge_support(ca_.support, cb_.support, support_);
    if (support_.size() <= opt_.exhaustive_bits) {
      // Enumerate all 2^k assignments.
      for (std::size_t blk = 0; blk < block_count(support_.size()); ++blk) {
        set_block(support_, blk);
        if (eval(ca_) != eval(cb_)) return Verdict::kRefuted;
      }
      return Verdict::kProven;
    }
    // Random resolution over the union support only.
    for (unsigned r = 0; r < opt_.resolution_rounds; ++r) {
      std::uint64_t s =
          verify::StimGen::derive(seed_, tag("resolve", {iter, r, a, b}));
      for (const NetId v : support_) lane_[v] = splitmix64(s);
      if (eval(ca_) != eval(cb_)) return Verdict::kRefuted;
    }
    // Accepted on samples alone.  Only the pipeline self-check, which is
    // off by default under NDEBUG, would catch a wrong one; the merge is
    // counted in PassStats::sampled_merges.
    return Verdict::kSampled;
  }

  /// One signature/merge sweep over combinational nets.
  std::size_t merge_comb(unsigned iter) {
    const unsigned rounds = std::max(1u, opt_.rounds);
    std::vector<std::vector<std::uint64_t>> sig(
        nl_.cells().size(), std::vector<std::uint64_t>());
    std::vector<std::uint64_t> val;
    for (unsigned r = 0; r < rounds; ++r) {
      simulate_round(val,
                     verify::StimGen::derive(seed_, tag("round", {iter, r})));
      for (NetId id = 0; id < nl_.cells().size(); ++id)
        if (uf_.find(id) == id) sig[id].push_back(val[id]);
    }

    // Group class representatives by full signature.
    std::unordered_map<std::uint64_t, std::vector<NetId>> groups;
    for (NetId id = 0; id < nl_.cells().size(); ++id) {
      if (uf_.find(id) != id) continue;
      const CellKind kind = nl_.cells()[id].kind;
      const bool comb = levels_[id] != gate::kNoLevel;
      const bool constant =
          kind == CellKind::kConst0 || kind == CellKind::kConst1;
      if (!comb && !constant && !is_free_leaf(kind)) continue;
      std::uint64_t h = 0xcbf29ce484222325ull;
      if (constant) {
        for (unsigned r = 0; r < rounds; ++r)
          h = (h ^ (kind == CellKind::kConst1 ? ~0ull : 0ull)) *
              0x100000001b3ull;
      } else {
        for (const std::uint64_t w : sig[id]) h = (h ^ w) * 0x100000001b3ull;
      }
      groups[h].push_back(id);
    }

    std::size_t merges = 0;
    for (auto& [h, members] : groups) {
      if (members.size() < 2) continue;
      std::sort(members.begin(), members.end(),
                [&](NetId x, NetId y) { return uf_.better(x, y); });
      const NetId rep = members.front();
      for (std::size_t i = 1; i < members.size(); ++i) {
        const NetId cand = members[i];
        if (uf_.find(cand) == uf_.find(rep)) continue;
        // Only merge pairs with at least one combinational side; two free
        // leaves with colliding signatures are distinct variables (the
        // exhaustive check below would reject them anyway).
        if (is_free_leaf(nl_.cells()[rep].kind) &&
            is_free_leaf(nl_.cells()[cand].kind))
          continue;
        const Verdict v = resolve(rep, cand, iter);
        if (v != Verdict::kRefuted && uf_.unite(rep, cand)) {
          ++merges;
          if (v == Verdict::kSampled) ++sampled_merges_;
        }
      }
    }
    return merges;
  }
};

}  // namespace

gate::Netlist SatSweepPass::run(const gate::Netlist& in,
                                PassStats& stats) const {
  const std::uint64_t seed =
      opt_.seed != 0 ? opt_.seed
                     : verify::StimGen::derive(0x5a77, "satsweep/" + in.name());
  Sweeper sweeper(in, opt_, seed);
  const std::size_t fact_merges = sweeper.sweep_facts();
  std::size_t classic_merges = sweeper.sweep();
  const std::size_t odc_merges = sweeper.sweep_odc();
  // A register equivalence proven by the sequential phase can equalize
  // further combinational cones — give the classic sweep one more look.
  if (odc_merges != 0) classic_merges += sweeper.sweep();
  RebuildHooks hooks;
  hooks.replace = [&](NetId id) { return sweeper.find(id); };
  gate::Netlist out = rebuild(in, hooks);

  if (fact_merges + odc_merges != 0) {
    // A fact merge past the exhaustive budget is accepted on random
    // resolution alone; ODC and register-equivalence merges are proven
    // exhaustively but rest on the phase's most intricate code.  Every run
    // that applied either is differentially verified here — even when the
    // pipeline-level self-check is off — and falls back to the
    // deterministic classic sweep if the check disagrees.  The pass never
    // throws on a speculative merge gone wrong; it just forgoes it.
    gate::EquivOptions eopt;
    eopt.sequences = 4;
    eopt.cycles = 128;
    eopt.seed = verify::StimGen::derive(seed, "verify");
    if (!gate::check_equivalence(in, out, eopt)) {
      Sweeper classic(in, opt_, seed);
      stats.changes += classic.sweep();
      stats.sampled_merges += classic.sampled_merges();
      RebuildHooks fallback;
      fallback.replace = [&](NetId id) { return classic.find(id); };
      return rebuild(in, fallback);
    }
  }
  stats.changes += fact_merges + classic_merges + odc_merges;
  stats.fact_merges += fact_merges;
  stats.odc_merges += odc_merges;
  stats.sampled_merges += sweeper.sampled_merges();
  return out;
}

}  // namespace osss::opt
