#include "netlist/iscas85.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace sva {
namespace {

/// Cell-mix weights, indexed like build_standard_library() masters:
/// INV_X1, INV_X2, BUF_X1, NAND2_X1, NAND3_X1, NOR2_X1, NOR3_X1,
/// AOI21_X1, OAI21_X1, XOR2_X1.  Roughly the mix a 2-input-NAND-heavy
/// technology mapper produces.
const std::vector<double> kCellMix = {0.16, 0.04, 0.04, 0.24, 0.10,
                                      0.12, 0.06, 0.08, 0.08, 0.08};

}  // namespace

const std::vector<BenchmarkSpec>& iscas85_specs() {
  static const std::vector<BenchmarkSpec> specs = {
      {"C432", 36, 7, 160},    {"C499", 41, 32, 202},
      {"C880", 60, 26, 383},   {"C1355", 41, 32, 546},
      {"C1908", 33, 25, 880},  {"C2670", 233, 140, 1193},
      {"C3540", 50, 22, 1669}, {"C5315", 178, 123, 2307},
      {"C6288", 32, 32, 2406}, {"C7552", 207, 108, 3512},
  };
  return specs;
}

const BenchmarkSpec& iscas85_spec(const std::string& name) {
  std::string upper = name;
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  for (const auto& s : iscas85_specs())
    if (s.name == upper) return s;
  throw PreconditionError("unknown ISCAS85 benchmark: " + name);
}

Netlist generate_iscas85_like(const BenchmarkSpec& spec,
                              const CellLibrary& library) {
  SVA_REQUIRE(spec.primary_inputs > 0);
  SVA_REQUIRE(spec.primary_outputs > 0);
  SVA_REQUIRE(spec.gate_count > 0);

  Rng rng(spec.name);  // deterministic per-benchmark stream
  Netlist netlist(library, spec.name);
  netlist.reserve(spec.primary_inputs + spec.gate_count, spec.gate_count);

  // --- Level plan: depth grows slowly with size (ISCAS85 depths are
  // roughly 17..47 for 160..3500 gates); gate counts per level follow a
  // raised-cosine profile (wide middle, narrow ends).
  const std::size_t depth = static_cast<std::size_t>(std::clamp(
      8.0 + 5.5 * std::log2(static_cast<double>(spec.gate_count) / 32.0),
      10.0, 48.0));
  std::vector<double> profile(depth);
  for (std::size_t l = 0; l < depth; ++l) {
    const double t = (static_cast<double>(l) + 0.5) /
                     static_cast<double>(depth);
    profile[l] = 0.35 + std::sin(t * 3.14159265358979);
  }
  double profile_sum = 0.0;
  for (double p : profile) profile_sum += p;
  std::vector<std::size_t> per_level(depth, 0);
  std::size_t assigned = 0;
  for (std::size_t l = 0; l < depth; ++l) {
    per_level[l] = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::floor(
               static_cast<double>(spec.gate_count) * profile[l] /
               profile_sum)));
    assigned += per_level[l];
  }
  // Distribute the rounding remainder over the widest levels.
  while (assigned < spec.gate_count) {
    const std::size_t l = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(depth) - 1));
    ++per_level[l];
    ++assigned;
  }
  while (assigned > spec.gate_count) {
    const std::size_t l = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(depth) - 1));
    if (per_level[l] > 1) {
      --per_level[l];
      --assigned;
    }
  }

  // --- Primary inputs.
  std::vector<std::size_t> pi_nets;
  pi_nets.reserve(spec.primary_inputs);
  for (std::size_t i = 0; i < spec.primary_inputs; ++i)
    pi_nets.push_back(
        netlist.add_primary_input("pi" + std::to_string(i)));

  // Candidate fanin pool per level: nets produced at that level
  // (level 0 = PIs).  Locality: a fanin comes from one of the previous
  // few levels with geometrically decaying probability, which yields
  // ISCAS-like shallow reconvergence rather than global spaghetti.
  std::vector<std::vector<std::size_t>> level_nets(depth + 1);
  level_nets[0] = pi_nets;

  // Track nets not yet used as a fanin so we can prefer them and keep the
  // number of dangling outputs near zero.  Sized for every net up front:
  // each gate adds exactly one.
  std::vector<std::size_t> fanout_count(
      spec.primary_inputs + spec.gate_count, 0);

  std::size_t gate_id = 0;
  std::vector<std::size_t> fanins;
  for (std::size_t l = 1; l <= depth; ++l) {
    const std::size_t count = per_level[l - 1];
    level_nets[l].reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t cell = rng.weighted_index(kCellMix);
      const std::size_t n_inputs = netlist.input_pin_count(cell);
      fanins.clear();
      for (std::size_t f = 0; f < n_inputs; ++f) {
        // Pick the source level: previous level with p=0.6, then decay.
        std::size_t src_level = l - 1;
        while (src_level > 0 && rng.bernoulli(0.4)) --src_level;
        const auto& pool = level_nets[src_level].empty()
                               ? level_nets[0]
                               : level_nets[src_level];
        // Prefer a not-yet-consumed net from the pool (two tries), else
        // uniform.
        std::size_t net = pool[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(pool.size()) - 1))];
        if (fanout_count[net] > 0) {
          const std::size_t retry =
              pool[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(pool.size()) - 1))];
          if (fanout_count[retry] == 0) net = retry;
        }
        // Avoid duplicate fanins on one gate when possible.
        if (std::find(fanins.begin(), fanins.end(), net) != fanins.end() &&
            pool.size() > 1) {
          net = pool[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(pool.size()) - 1))];
        }
        fanins.push_back(net);
        ++fanout_count[net];
      }
      const std::size_t out = netlist.add_gate(
          "g" + std::to_string(gate_id++), cell, fanins);
      level_nets[l].push_back(out);
    }
  }

  // --- Primary outputs: prefer deep, unconsumed nets.
  std::vector<std::size_t> candidates;
  for (std::size_t l = depth + 1; l-- > 1;)
    for (std::size_t net : level_nets[l])
      if (fanout_count[net] == 0) candidates.push_back(net);
  std::size_t po_marked = 0;
  for (std::size_t net : candidates) {
    if (po_marked == spec.primary_outputs) break;
    netlist.mark_primary_output(net);
    ++po_marked;
  }
  // Not enough dangling nets: take the deepest driven nets as well.
  for (std::size_t l = depth + 1; l-- > 1 && po_marked < spec.primary_outputs;)
    for (std::size_t net : level_nets[l]) {
      if (po_marked == spec.primary_outputs) break;
      if (!netlist.nets()[net].is_primary_output) {
        netlist.mark_primary_output(net);
        ++po_marked;
      }
    }
  SVA_ASSERT(po_marked == spec.primary_outputs);

  netlist.validate();
  return netlist;
}

Netlist generate_iscas85_like(const std::string& name,
                              const CellLibrary& library) {
  return generate_iscas85_like(iscas85_spec(name), library);
}

}  // namespace sva
