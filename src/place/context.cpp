#include "place/context.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace sva {
namespace {

/// A single hypothetical x-position override (SIZE_MAX => no override).
struct XOverride {
  std::size_t gate = static_cast<std::size_t>(-1);
  Nm x = 0.0;
};

Nm x_of(const Placement& placement, std::size_t gi, const XOverride& ov) {
  return gi == ov.gate ? ov.x : placement.instances()[gi].x;
}

/// Clear distance from `own_edge` to the nearest facing poly edge of a
/// neighbour placed at `n_x` (its right edges when it sits on the left),
/// clamped to `roi`.
Nm facing_spacing(const std::vector<std::pair<Nm, Nm>>& n_poly, Nm n_x,
                  Nm own_edge, bool left, Nm roi) {
  Nm best = roi;
  for (const auto& [x_lo, x_hi] : n_poly) {
    if (left) {
      const Nm edge = n_x + x_hi;
      if (edge <= own_edge) best = std::min(best, own_edge - edge);
    } else {
      const Nm edge = n_x + x_lo;
      if (edge >= own_edge) best = std::min(best, edge - own_edge);
    }
  }
  return best;
}

/// All four spacings of one instance under an optional x override; a side
/// without a row neighbour measures as isolated (`roi`).  The one nps
/// measurement behind extract_nps and nps_after_shift.
InstanceNps measure_instance(const Placement& placement, std::size_t gi,
                             Nm roi, const XOverride& ov = {}) {
  const std::vector<GateInst>& gates = placement.netlist().gates();
  const MasterPolyProfile& own = placement.poly_profile(gates[gi].cell_index);
  const Nm x = x_of(placement, gi, ov);
  InstanceNps nps{roi, roi, roi, roi};

  const std::size_t l = placement.left_neighbor(gi);
  if (l != static_cast<std::size_t>(-1)) {
    const MasterPolyProfile& n = placement.poly_profile(gates[l].cell_index);
    const Nm n_x = x_of(placement, l, ov);
    const Nm edge = x + own.left_edge;
    nps.lt = facing_spacing(n.pmos, n_x, edge, /*left=*/true, roi);
    nps.lb = facing_spacing(n.nmos, n_x, edge, /*left=*/true, roi);
  }
  const std::size_t r = placement.right_neighbor(gi);
  if (r != static_cast<std::size_t>(-1)) {
    const MasterPolyProfile& n = placement.poly_profile(gates[r].cell_index);
    const Nm n_x = x_of(placement, r, ov);
    const Nm edge = x + own.right_edge;
    nps.rt = facing_spacing(n.pmos, n_x, edge, /*left=*/false, roi);
    nps.rb = facing_spacing(n.nmos, n_x, edge, /*left=*/false, roi);
  }
  return nps;
}

}  // namespace

std::vector<InstanceNps> extract_nps(const Placement& placement) {
  const Netlist& netlist = placement.netlist();
  const Nm roi = netlist.library().master(0).tech().radius_of_influence;

  std::vector<InstanceNps> out(netlist.gates().size());
  for (std::size_t gi = 0; gi < netlist.gates().size(); ++gi)
    out[gi] = measure_instance(placement, gi, roi);
  return out;
}

std::vector<NpsUpdate> nps_after_shift(const Placement& placement,
                                       std::size_t gate, Nm dx) {
  const Netlist& netlist = placement.netlist();
  SVA_REQUIRE(gate < netlist.gates().size());
  const auto [lo, hi] = placement.shift_range(gate);
  SVA_REQUIRE_MSG(dx >= lo - 1e-9 && dx <= hi + 1e-9,
                  "shift outside the legal range");
  const Nm roi = netlist.library().master(0).tech().radius_of_influence;
  const XOverride ov{gate, placement.instances()[gate].x + dx};

  std::vector<std::size_t> affected;
  const std::size_t l = placement.left_neighbor(gate);
  const std::size_t r = placement.right_neighbor(gate);
  if (l != static_cast<std::size_t>(-1)) affected.push_back(l);
  affected.push_back(gate);
  if (r != static_cast<std::size_t>(-1)) affected.push_back(r);
  std::sort(affected.begin(), affected.end());

  std::vector<NpsUpdate> out;
  out.reserve(affected.size());
  for (std::size_t gi : affected)
    out.push_back({gi, measure_instance(placement, gi, roi, ov)});
  return out;
}

VersionKey nps_to_version(const InstanceNps& nps, const ContextBins& bins) {
  VersionKey key;
  key.lt = static_cast<std::uint8_t>(bins.bin_of(nps.lt));
  key.rt = static_cast<std::uint8_t>(bins.bin_of(nps.rt));
  key.lb = static_cast<std::uint8_t>(bins.bin_of(nps.lb));
  key.rb = static_cast<std::uint8_t>(bins.bin_of(nps.rb));
  return key;
}

std::vector<VersionKey> assign_versions(const std::vector<InstanceNps>& nps,
                                        const ContextBins& bins) {
  std::vector<VersionKey> out;
  out.reserve(nps.size());
  for (const InstanceNps& n : nps) out.push_back(nps_to_version(n, bins));
  return out;
}

}  // namespace sva
