#pragma once
// Data-oriented flat STA kernel: the levelized timing graph compiled once
// into structure-of-arrays arc records plus a packed, deduplicated NLDM
// table arena ("timing bytecode").
//
// A scalar interpreter (the test-only oracle in tests/sta_scalar_oracle.*)
// walks the netlist on every pass: it chases GateInst -> CharacterizedCell
// -> NldmTable -> LookupTable2D pointers and calls through four
// non-inlined interpolation helpers per table lookup.  CompiledTiming
// flattens everything those lookups need -- fanin net, precomputed wire
// delay, arena offsets of the (shared-axis) delay/slew tables -- into one
// contiguous ArcRec per (gate, fanin pin), grouped per gate and per
// topological level.  A full-graph pass is then a single tight loop over
// flat arrays with a branch-free segment search and inlined bilinear
// interpolation.
//
// Bit-identity by construction: every delay/slew value is computed with
// exactly the FP operation sequence of LookupTable2D::at (segment index =
// upper_bound semantics; lerp over the load axis at both slew-axis grid
// lines, then lerp over the slew axis; each lerp is y0 + ((x-x0)/(x1-x0))
// * (y1-y0)), and the per-gate worst-arrival reduction visits arcs in the
// same fanin order.  tests/sta_test.cpp asserts the equivalence bitwise
// against the scalar oracle across circuits, scales, and thread counts.
// evaluate_gate runs the same per-gate kernel on one gate at a time for
// Sta's incremental dirty-cone routine.
//
// The arena deduplicates tables by FNV-1a content hash (equal axes and
// values verified bytewise on hash hit): symmetric arcs of one master and
// width-scaled drive variants share table content, so the arena stays a
// fraction of the naive per-arc copy.  Compile stats are published as
// sta.kernel.* metrics.

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "sta/sta.hpp"

namespace sva {

class CompiledTiming {
 public:
  /// Packed reference to one deduplicated NLDM table pair in the arena.
  /// x is the input-slew axis, y the load axis; delay and slew values are
  /// row-major (ix * ny + iy) exactly like LookupTable2D.
  struct TableRef {
    std::uint32_t x_off = 0, y_off = 0;  ///< axis offsets into the arena
    std::uint32_t d_off = 0, s_off = 0;  ///< delay/slew value offsets
    std::uint32_t nx = 0, ny = 0;
    std::uint32_t arc_index = 0;  ///< index into the master's arcs()
  };

  /// One flat timing-arc record: everything the inner loop needs, plus
  /// the (gate, arc_index) pair the per-run factor gather feeds to the
  /// ArcScaleProvider.
  struct ArcRec {
    std::uint32_t in_net = 0;
    std::uint32_t gate = 0;       ///< netlist gate index (factor gather)
    std::uint32_t arc_index = 0;  ///< master arc index (factor gather)
    std::uint32_t x_off = 0, y_off = 0, d_off = 0, s_off = 0;
    std::uint32_t nx = 0, ny = 0;
    double wire_delay = 0.0;  ///< precomputed per-sink wire delay (ps)
  };

  /// One gate: a contiguous arc span plus the output net it writes.
  struct GateRec {
    std::uint32_t first_arc = 0;
    std::uint32_t arc_count = 0;
    std::uint32_t out_net = 0;
  };

  /// Contiguous [begin, end) gate-record range of one topological level.
  struct LevelSpan {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// Compile the program.  `levels` is the level-bucketed topological
  /// order the Sta constructor builds; gate records are laid out in that
  /// order so a level is always a contiguous span.
  CompiledTiming(const Netlist& netlist, const CharacterizedLibrary& library,
                 const StaConfig& config,
                 const std::vector<std::vector<std::size_t>>& levels);

  /// Bind the per-net loads the kernel will evaluate against: for each
  /// net, the load-axis segment and interpolation parameter are resolved
  /// once here instead of once per arc per run (loads only change on
  /// committed master swaps).  Must be called before evaluate_span and
  /// re-called (or update_net_load'ed) whenever a bound load changes.
  void bind_loads(const double* loads, std::size_t count);
  void update_net_load(std::size_t net, double load);

  /// Resolve the per-arc scale factors for one run (one virtual call per
  /// arc, the same count the scalar path pays).  Throws InvariantError on
  /// a non-positive factor, like the scalar path.
  void gather_factors(const ArcScaleProvider& scale,
                      std::vector<double>& out) const;

  /// Evaluate gate records [first, last): for each gate, the worst
  /// arrival/slew/fanin over its arcs, written to result's arrays.  All
  /// fanins of a gate live at strictly lower levels and each gate writes
  /// only its own output net, so disjoint ranges of one level may be
  /// evaluated concurrently.
  void evaluate_span(std::size_t first, std::size_t last,
                     const double* factors, const double* loads,
                     StaResult& result) const;

  /// Evaluate one gate as an instance of `cell_index` (its own master, or
  /// a pin-compatible what-if override) through that cell's interned
  /// tables, with per-arc factors from `scale` (checked positive).  A
  /// non-null `load_override` replaces the gate's bound output load; its
  /// axis segment and parameter are resolved exactly as update_net_load
  /// does.  `loads` are the bound loads (the generic path reads them).
  /// Same per-gate kernel, hence the same doubles, as evaluate_span.
  void evaluate_gate(std::size_t gate, std::size_t cell_index,
                     const ArcScaleProvider& scale, const double* loads,
                     const double* load_override, StaResult& result) const;

  /// Re-point one gate's arc records at another master's tables after an
  /// in-place pin-compatible swap (Netlist::set_gate_cell).
  void refresh_gate(std::size_t gate, std::size_t cell_index);

  const std::vector<LevelSpan>& level_spans() const { return level_spans_; }
  std::size_t gate_count() const { return gates_.size(); }
  std::size_t arc_count() const { return arcs_.size(); }

  /// Compile stats (also published as sta.kernel.* metrics).
  std::size_t tables_total() const { return tables_total_; }
  std::size_t tables_unique() const { return tables_unique_; }
  std::size_t arena_bytes() const { return arena_.size() * sizeof(double); }

 private:
  TableRef intern_table(const NldmTable& nldm, std::uint32_t arc_index);
  std::uint32_t intern_axis(const std::vector<double>& axis);
  /// A load's segment on the shared load axis and its interpolation
  /// parameter (uniform axes only).
  std::pair<std::uint32_t, double> resolve_load(double load) const;

  std::vector<double> arena_;    ///< packed axes + values, deduplicated
  std::vector<ArcRec> arcs_;     ///< grouped per gate, gates level-major
  std::vector<GateRec> gates_;   ///< level-major topological order
  std::vector<LevelSpan> level_spans_;
  std::vector<std::uint32_t> gate_rec_of_;  ///< netlist gate -> GateRec
  /// Per library cell, the interned tables of its arcs in input-pin
  /// order; refresh_gate copies from here on master swaps.
  std::vector<std::vector<TableRef>> cell_tables_;
  /// content hash -> indices into unique_tables_ (collision chain).
  std::vector<std::pair<std::uint64_t, TableRef>> unique_tables_;
  /// (content hash, arena offset, length) of each interned axis.  Axes
  /// are deduplicated independently of values: every characterized table
  /// uses the same slew/load axes, so after interning the whole library
  /// shares ONE x-axis and ONE y-axis copy -- which is what lets the
  /// kernel hoist the load-axis segment search out of the arc loop.
  std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>>
      unique_axes_;
  std::size_t tables_total_ = 0;
  std::size_t tables_unique_ = 0;
  /// True when every arc shares one (x_off, y_off, nx, ny): the fast
  /// evaluate_span path then uses the bound per-net load interpolants.
  bool uniform_axes_ = false;
  std::uint32_t x_off_ = 0, y_off_ = 0, nx_ = 0, ny_ = 0;
  /// Per net: load-axis segment index and interpolation parameter
  /// (load - y0) / (y1 - y0), resolved by bind_loads.  The parameter is
  /// the exact double interp::lerp would derive, so reusing it across
  /// every arc of the run preserves bit-identity.
  std::vector<std::uint32_t> load_seg_;
  std::vector<double> load_t_;
};

}  // namespace sva
