#include "place/placement.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace sva {
namespace {

/// x-intervals of the master's poly features that vertically overlap the
/// strip [y_lo, y_hi].
std::vector<std::pair<Nm, Nm>> poly_in_strip(const CellMaster& master,
                                             Nm y_lo, Nm y_hi) {
  std::vector<std::pair<Nm, Nm>> out;
  const Rect strip = Rect::make(-1e9, y_lo, 1e9, y_hi);
  for (std::size_t gi = 0; gi < master.gates().size(); ++gi) {
    const Rect r = master.gate_rect(gi);
    if (r.y_overlaps(strip)) out.emplace_back(r.x_lo, r.x_hi);
  }
  for (const Rect& s : master.poly_stubs())
    if (s.y_overlaps(strip)) out.emplace_back(s.x_lo, s.x_hi);
  return out;
}

MasterPolyProfile poly_profile_of(const CellMaster& master,
                                  const CellTech& tech) {
  MasterPolyProfile p;
  p.left_edge = master.gates()[master.leftmost_gate()].x_lo();
  p.right_edge = master.gates()[master.rightmost_gate()].x_hi();
  p.pmos = poly_in_strip(master, tech.pmos_y_lo, tech.pmos_y_hi);
  p.nmos = poly_in_strip(master, tech.nmos_y_lo, tech.nmos_y_hi);
  return p;
}

}  // namespace

Placement::Placement(const Netlist& netlist, const PlacementConfig& config)
    : netlist_(&netlist) {
  SVA_REQUIRE(config.utilization > 0.0 && config.utilization <= 1.0);
  SVA_REQUIRE(config.abut_probability >= 0.0 &&
              config.abut_probability <= 1.0);
  SVA_REQUIRE_MSG(!netlist.gates().empty(), "cannot place an empty netlist");

  const CellLibrary& lib = netlist.library();
  const CellTech& tech = lib.master(0).tech();
  Rng rng(config.seed);

  poly_profiles_.reserve(lib.size());
  for (const CellMaster& master : lib.masters())
    poly_profiles_.push_back(poly_profile_of(master, tech));

  // Total cell width and square-ish die dimensioning.
  Nm total_width = 0.0;
  for (const GateInst& g : netlist.gates())
    total_width += lib.master(g.cell_index).width();
  const Nm placed_width = total_width / config.utilization;
  const auto n_rows = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             std::sqrt(placed_width / tech.cell_height))));
  row_width_ = placed_width / static_cast<double>(n_rows);

  // Assign gates to rows in topological-order chunks: neighbouring logic
  // lands in the same or adjacent rows.
  const auto& topo = netlist.topological_order();
  rows_.resize(n_rows);
  instances_.resize(netlist.gates().size());
  position_in_row_.resize(netlist.gates().size());

  std::size_t row = 0;
  Nm used = 0.0;
  const Nm target_cell_width_per_row = total_width / static_cast<double>(n_rows);
  for (std::size_t gi : topo) {
    const Nm w = lib.master(netlist.gates()[gi].cell_index).width();
    if (used + w > target_cell_width_per_row && row + 1 < n_rows &&
        !rows_[row].empty()) {
      ++row;
      used = 0.0;
    }
    rows_[row].push_back(gi);
    used += w;
  }

  // Distribute whitespace within each row: gaps are site multiples; a
  // fraction of neighbours abut.
  for (std::size_t r = 0; r < n_rows; ++r) {
    Nm cells_w = 0.0;
    for (std::size_t gi : rows_[r])
      cells_w += lib.master(netlist_->gates()[gi].cell_index).width();
    Nm remaining = std::max(0.0, row_width_ - cells_w);
    Nm x = 0.0;
    for (std::size_t pos = 0; pos < rows_[r].size(); ++pos) {
      const std::size_t gi = rows_[r][pos];
      if (pos > 0 && remaining >= tech.site_width &&
          !rng.bernoulli(config.abut_probability)) {
        const auto max_sites = std::min<std::int64_t>(
            6, static_cast<std::int64_t>(remaining / tech.site_width));
        const Nm gap =
            static_cast<double>(rng.uniform_int(1, max_sites)) *
            tech.site_width;
        x += gap;
        remaining -= gap;
      }
      instances_[gi] = {gi, r, x};
      position_in_row_[gi] = pos;
      x += lib.master(netlist_->gates()[gi].cell_index).width();
    }
  }
}

std::size_t Placement::left_neighbor(std::size_t gate) const {
  SVA_REQUIRE(gate < instances_.size());
  const std::size_t pos = position_in_row_[gate];
  if (pos == 0) return static_cast<std::size_t>(-1);
  return rows_[instances_[gate].row][pos - 1];
}

std::size_t Placement::right_neighbor(std::size_t gate) const {
  SVA_REQUIRE(gate < instances_.size());
  const std::size_t pos = position_in_row_[gate];
  const auto& row = rows_[instances_[gate].row];
  if (pos + 1 >= row.size()) return static_cast<std::size_t>(-1);
  return row[pos + 1];
}

Nm Placement::gap_left(std::size_t gate, Nm fallback) const {
  const std::size_t n = left_neighbor(gate);
  if (n == static_cast<std::size_t>(-1)) return fallback;
  const CellLibrary& lib = netlist_->library();
  const Nm n_right =
      instances_[n].x + lib.master(netlist_->gates()[n].cell_index).width();
  return instances_[gate].x - n_right;
}

Nm Placement::gap_right(std::size_t gate, Nm fallback) const {
  const std::size_t n = right_neighbor(gate);
  if (n == static_cast<std::size_t>(-1)) return fallback;
  const CellLibrary& lib = netlist_->library();
  const Nm g_right = instances_[gate].x +
                     lib.master(netlist_->gates()[gate].cell_index).width();
  return instances_[n].x - g_right;
}

std::pair<Nm, Nm> Placement::shift_range(std::size_t gate) const {
  SVA_REQUIRE(gate < instances_.size());
  const CellLibrary& lib = netlist_->library();
  const Nm width = lib.master(netlist_->gates()[gate].cell_index).width();
  const Nm x = instances_[gate].x;

  Nm min_x = 0.0;
  const std::size_t l = left_neighbor(gate);
  if (l != static_cast<std::size_t>(-1))
    min_x = instances_[l].x +
            lib.master(netlist_->gates()[l].cell_index).width();
  Nm max_x = row_width_ - width;
  const std::size_t r = right_neighbor(gate);
  if (r != static_cast<std::size_t>(-1)) max_x = instances_[r].x - width;
  return {min_x - x, max_x - x};
}

void Placement::shift_instance(std::size_t gate, Nm dx) {
  const auto [lo, hi] = shift_range(gate);
  SVA_REQUIRE_MSG(dx >= lo - 1e-9 && dx <= hi + 1e-9,
                  "shift would overlap a neighbour or leave the row");
  instances_[gate].x += dx;
}

Layout Placement::row_layout(std::size_t row,
                             std::vector<long>* shape_tags) const {
  SVA_REQUIRE(row < rows_.size());
  Layout out;
  if (shape_tags != nullptr) shape_tags->clear();
  const CellLibrary& lib = netlist_->library();
  for (std::size_t gi : rows_[row]) {
    const CellMaster& master =
        lib.master(netlist_->gates()[gi].cell_index);
    const Layout cell = master.layout();
    SVA_REQUIRE_MSG(master.gates().size() <
                        static_cast<std::size_t>(kTagStride),
                    "master has too many poly gates for the tag encoding");
    const Nm dx = instances_[gi].x;
    out.merge_translated(cell, dx, 0.0);
    if (shape_tags != nullptr) {
      for (std::size_t si = 0; si < cell.size(); ++si) {
        const bool is_gate_stripe = si < master.gates().size();
        shape_tags->push_back(
            is_gate_stripe
                ? static_cast<long>(gi) * kTagStride + static_cast<long>(si)
                : -1L);
      }
    }
  }
  return out;
}

}  // namespace sva
