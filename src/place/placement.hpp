#pragma once
// Row-based standard-cell placement.
//
// The methodology needs placements only for their proximity statistics:
// which cells abut, and how much whitespace separates neighbours.  The
// placer assigns gates to rows in topological order chunks (a crude
// locality heuristic) and distributes the row's whitespace over the gaps
// between cells with a mix of abutments and 1..6-site gaps, site-aligned,
// reproducing the whitespace distribution a utilization-constrained P&R
// run yields.

#include <cstdint>
#include <utility>
#include <vector>

#include "geom/layout.hpp"
#include "netlist/netlist.hpp"

namespace sva {

struct PlacementConfig {
  double utilization = 0.70;   ///< total cell width / total row width
  double abut_probability = 0.45;  ///< chance two neighbours abut (gap 0)
  std::uint64_t seed = 1;      ///< whitespace-distribution seed
};

/// One master's poly as nps measurement sees it, in cell coordinates: the
/// outer edges of its boundary gate stripes, and the x-intervals of every
/// poly feature (gate stripes and stubs) that crosses each diffusion strip.
struct MasterPolyProfile {
  Nm left_edge = 0.0;   ///< x_lo of the left-most gate stripe
  Nm right_edge = 0.0;  ///< x_hi of the right-most gate stripe
  std::vector<std::pair<Nm, Nm>> pmos;  ///< poly crossing the PMOS strip
  std::vector<std::pair<Nm, Nm>> nmos;  ///< poly crossing the NMOS strip
};

struct PlacedInstance {
  std::size_t gate = 0;  ///< netlist gate index
  std::size_t row = 0;
  Nm x = 0.0;            ///< left edge of the cell
};

class Placement {
 public:
  /// Place every gate of the netlist.  The netlist (and its library) must
  /// outlive the placement.
  Placement(const Netlist& netlist, const PlacementConfig& config);

  const Netlist& netlist() const { return *netlist_; }

  /// One entry per netlist gate, index-aligned.
  const std::vector<PlacedInstance>& instances() const { return instances_; }

  /// Gate indices of one row, ordered left to right.
  const std::vector<std::vector<std::size_t>>& rows() const { return rows_; }

  Nm row_width() const { return row_width_; }

  /// Poly profile of a library master, computed once per placement so
  /// that nps measurement (initial extraction and ECO re-measurement
  /// alike) never re-derives master geometry.
  const MasterPolyProfile& poly_profile(std::size_t cell_index) const {
    return poly_profiles_[cell_index];
  }

  /// Left / right neighbour gate of an instance within its row, or
  /// SIZE_MAX if it is first/last.
  std::size_t left_neighbor(std::size_t gate) const;
  std::size_t right_neighbor(std::size_t gate) const;

  /// Clear gap between an instance and its neighbour cell outline on one
  /// side; returns `fallback` when there is no neighbour.
  Nm gap_left(std::size_t gate, Nm fallback) const;
  Nm gap_right(std::size_t gate, Nm fallback) const;

  /// Assembled flat layout of one row (all masters instantiated at their
  /// x positions, y = 0) together with per-shape tags:
  /// tag = gate_index * kTagStride + poly_gate_index for gate stripes,
  /// -1 for everything else.
  static constexpr long kTagStride = 16;
  Layout row_layout(std::size_t row, std::vector<long>* shape_tags) const;

  /// Decode a row-layout tag.
  static std::size_t tag_gate(long tag) { return static_cast<std::size_t>(tag) / kTagStride; }
  static std::size_t tag_poly(long tag) { return static_cast<std::size_t>(tag) % kTagStride; }

  /// Legal horizontal move range of an instance within its row: how far it
  /// can shift left (negative) and right (positive) without overlapping
  /// its neighbours or leaving the row.
  std::pair<Nm, Nm> shift_range(std::size_t gate) const;

  /// Move an instance by dx within its row.  Throws if the move is
  /// outside shift_range().  Used by variation-aware detailed-placement
  /// optimizations (whitespace re-distribution changes the neighbour
  /// spacings and with them the smile/frown labels).
  void shift_instance(std::size_t gate, Nm dx);

 private:
  const Netlist* netlist_;
  std::vector<PlacedInstance> instances_;
  std::vector<std::vector<std::size_t>> rows_;
  std::vector<std::size_t> position_in_row_;  // per gate
  std::vector<MasterPolyProfile> poly_profiles_;  // per library master
  Nm row_width_ = 0.0;
};

}  // namespace sva
