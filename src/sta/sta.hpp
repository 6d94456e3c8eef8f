#pragma once
// Static timing analysis over a mapped combinational netlist.
//
// Standard late-mode block-based STA: arrival times and slews propagate in
// topological order through NLDM lookups; the design delay is the worst
// arrival over primary outputs.  Corners are realized by running the same
// propagation with different ArcScaleProviders (traditional uniform
// corners, or the paper's context/classification-aware corners).
//
// Every analysis runs on the compiled flat kernel (see sta/compiled.hpp):
// the levelized graph flattened once into structure-of-arrays arc records
// over a deduplicated NLDM table arena, evaluated as a tight branch-free
// loop.  A scalar netlist interpreter survives as a test-only oracle
// (tests/sta_scalar_oracle.*) the kernel is differentially fuzzed against.
//
// Incremental re-analysis has one routine behind four entry points
// (run_incremental, run_what_if, price_what_if, apply_what_if): dirty
// gates are walked level by level from per-level buckets, each evaluated
// in place through the compiled per-gate kernel, touching O(cone) gates
// instead of scanning the full topological order per edit.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cell/characterize.hpp"
#include "engine/thread_pool.hpp"
#include "netlist/netlist.hpp"
#include "sta/scale.hpp"

namespace sva {

class CompiledTiming;

struct StaConfig {
  double input_slew_ps = 20.0;      ///< slew at primary inputs
  double po_load_ff = 4.0;          ///< load on primary outputs
  double wire_cap_per_sink_ff = 0.4;  ///< lumped net wire cap per sink
  /// Interconnect delay added per net, per sink (ps).  Wire delay does not
  /// depend on poly CD, so it is *not* scaled by any corner -- exactly why
  /// the CD-corner spread is a fraction of total path delay in real
  /// designs (the paper's corner libraries likewise vary only the process
  /// parameters, holding everything else fixed).
  double wire_delay_per_sink_ps = 6.0;
};

struct StaResult {
  std::vector<double> arrival_ps;  ///< per net
  std::vector<double> slew_ps;     ///< per net
  double critical_delay_ps = 0.0;  ///< worst arrival over POs
  std::size_t critical_po_net = 0;
  /// Critical path as gate indices from inputs to the critical PO.
  std::vector<std::size_t> critical_path;
  /// Arrival-setting fanin net per net (kNoDriver for PIs); the
  /// backtracking state run_incremental() needs to stay exact.
  std::vector<std::size_t> from_net;
};

/// Arrival + required-time + slack view of one analysis.
struct SlackResult {
  StaResult timing;
  std::vector<double> required_ps;  ///< per net (clock at POs)
  std::vector<double> slack_ps;     ///< required - arrival, per net
  double worst_slack_ps = 0.0;
  std::size_t worst_slack_net = 0;

  bool meets_timing() const { return worst_slack_ps >= 0.0; }
};

class Sta {
 public:
  /// The netlist and characterized library must outlive the Sta object;
  /// the characterized library must be index-aligned with the netlist's
  /// cell library.  Construction compiles the flat timing program
  /// (sta.kernel.* metrics record compile time and arena stats).
  Sta(const Netlist& netlist, const CharacterizedLibrary& library,
      const StaConfig& config = {});
  ~Sta();
  Sta(Sta&&) noexcept;
  Sta& operator=(Sta&&) noexcept;

  /// Late-mode analysis with the given per-arc delay scaling, executed on
  /// the compiled flat kernel.
  StaResult run(const ArcScaleProvider& scale) const;

  /// Levelized parallel analysis on the compiled kernel: every topological
  /// level is partitioned across the pool with parallel_for.  A gate's
  /// fanins all live at strictly lower levels and each gate writes only
  /// its own output net, so the result is bit-identical to run(scale) at
  /// any thread count and under any task schedule.  Small levels run
  /// inline (task overhead would dominate).  A non-null `cancel` is
  /// polled once per level (throwing CancelledError); the per-gate inner
  /// loop stays unchecked.
  StaResult run_parallel(const ArcScaleProvider& scale, ThreadPool& pool,
                         const CancelToken* cancel = nullptr) const;

  /// Late-mode analysis plus required times and slacks against a clock
  /// period (backward min-propagation of required times through the same
  /// arc delays the forward pass used).
  SlackResult run_with_slack(const ArcScaleProvider& scale,
                             double clock_period_ps) const;

  /// Incremental re-analysis: starting from `previous` (computed with a
  /// scale that differed only at `changed_gates`), re-propagate arrivals
  /// and slews from the changed gates forward level by level, pruning
  /// fan-out cones as soon as a gate's outputs stop changing.  Exact: the
  /// result equals run(scale).  Worst case degenerates to a full pass;
  /// typical what-if edits touch a small cone, and only that cone is
  /// visited.  A copy of `previous` plus apply_what_if.
  StaResult run_incremental(const ArcScaleProvider& scale,
                            const StaResult& previous,
                            const std::vector<std::size_t>& changed_gates)
      const;

  /// A hypothetical master swap for candidate evaluation: analyze as if
  /// `gate` were an instance of `cell_index` (a pin-compatible
  /// drive-strength variant) without mutating the netlist.
  struct GateCellOverride {
    std::size_t gate = 0;
    std::size_t cell_index = 0;
  };

  /// Candidate-scoped what-if analysis: incremental re-propagation from
  /// `previous` as if the overridden gates had swapped masters (their own
  /// arcs change AND the pin caps they present to their fanin nets change,
  /// so the fanin drivers are re-evaluated too) and as if `scale` had
  /// additionally changed at `scale_changed_gates`.  Exact: equals a full
  /// run() on a mutated netlist.  A copy of `previous` plus apply_what_if.
  StaResult run_what_if(const ArcScaleProvider& scale,
                        const StaResult& previous,
                        const std::vector<GateCellOverride>& cell_overrides,
                        const std::vector<std::size_t>& scale_changed_gates)
      const;

  class Workspace;

  /// The what-if edit of run_what_if applied to `timing` in place: the
  /// dirty cone is re-evaluated into it and its critical delay, PO and
  /// path are refreshed.  Committing a priced candidate this way yields
  /// exactly the delay price_what_if reported for it.
  void apply_what_if(const ArcScaleProvider& scale,
                     std::span<const GateCellOverride> cell_overrides,
                     std::span<const std::size_t> scale_changed_gates,
                     StaResult& timing, Workspace& workspace) const;

  /// Price a what-if edit without keeping it: propagate into `mirror` in
  /// place (logging each overwritten net), fold the critical delay over
  /// the primary outputs with finalize's rule, then roll `mirror` back
  /// bit for bit.  Returns the critical delay run_what_if would report.
  /// `mirror` is a caller-owned copy of the timing being priced against,
  /// so any number of candidates can be priced against one copy.
  double price_what_if(const ArcScaleProvider& scale,
                       std::span<const GateCellOverride> cell_overrides,
                       std::span<const std::size_t> scale_changed_gates,
                       StaResult& mirror, Workspace& workspace) const;

  /// Required times + slacks for an already-computed forward result (the
  /// backward min-propagation of run_with_slack without re-running the
  /// forward pass).  `timing` must come from this Sta with this `scale`.
  SlackResult slack_from(const ArcScaleProvider& scale, StaResult timing,
                         double clock_period_ps) const;

  /// Re-sync the cached net loads and the compiled arc records after the
  /// netlist swapped `gate`'s master in place (Netlist::set_gate_cell):
  /// the gate's fanin nets see different pin caps and the gate evaluates
  /// through different tables.  Call after every committed sizing move.
  void update_gate_master(std::size_t gate);

  /// Capacitive load seen by a net's driver (fF).
  double net_load_ff(std::size_t net) const;

  /// A library cell's characterized arcs in input-pin (fanin) order.
  const std::vector<const CharacterizedArc*>& cell_arcs(
      std::size_t cell_index) const {
    return cell_arcs_[cell_index];
  }

  const StaConfig& config() const { return config_; }

  /// Gates bucketed by logic level, each bucket in topological-order
  /// sequence: the partition run_parallel() splits across the pool.
  const std::vector<std::vector<std::size_t>>& levels() const {
    return levels_;
  }
  /// Logic level of each gate (index into levels()).
  const std::vector<std::size_t>& gate_levels() const { return gate_level_; }

  /// The compiled flat program (compile stats for benches/reports).
  const CompiledTiming& compiled() const { return *compiled_; }

 private:
  /// One what-if edit's hypothetical cell swaps plus the net loads they
  /// induce.  Indexed once per edit (sorted by gate / by net) so per-gate
  /// lookups binary-search instead of scanning every override on every
  /// evaluation.
  struct WhatIfOverlay {
    std::vector<GateCellOverride> cells;               ///< sorted by gate
    /// (net, absolute load fF): the affected fanin nets' loads recomputed
    /// from scratch with the hypothetical masters' pin caps, in the exact
    /// summation order compute_net_load uses -- so a what-if result is
    /// bit-identical to a fresh analysis of a really-mutated netlist.
    std::vector<std::pair<std::size_t, double>> load;

    /// Sort the override list by gate.  Must be called before any
    /// cell_of lookup (build_what_if recomputes loads through cell_of).
    void build_index();

    std::size_t cell_of(std::size_t gate, std::size_t base) const;
    /// The net's load under this overlay, or nullptr when unaffected.
    const double* find_load(std::size_t net) const;
  };

 public:
  /// Reusable buffers of the incremental routine: per-level dirty
  /// buckets, epoch-stamped dirty marks, the undo log of price_what_if,
  /// and the what-if overlay and seed lists.  Sized on first use; no
  /// allocation per call after that.  Not thread-safe: one workspace per
  /// concurrent caller (e.g. per parallel_for chunk).
  class Workspace {
    friend class Sta;
    struct Undo {
      std::size_t net;
      double arrival;
      double slew;
      std::size_t from;
    };
    std::vector<std::vector<std::uint32_t>> buckets;  ///< per level
    std::vector<std::uint32_t> stamp;  ///< per gate: epoch when marked
    std::uint32_t epoch = 0;
    std::vector<Undo> undo;
    WhatIfOverlay overlay;
    std::vector<std::size_t> seeds;
    std::vector<std::size_t> affected_nets;
  };

 private:
  /// compute_net_load with the overlay's hypothetical masters swapped in
  /// (identical FP summation order, so hypothetical == committed bitwise).
  double compute_net_load_overlay(std::size_t net,
                                  const WhatIfOverlay& overlay) const;
  /// Fill `ws`'s overlay and seed list for one what-if edit; returns the
  /// overlay, or nullptr when the edit swaps no master.
  const WhatIfOverlay* build_what_if(
      std::span<const GateCellOverride> cell_overrides,
      std::span<const std::size_t> scale_changed_gates, Workspace& ws) const;
  /// The one incremental routine: walk the dirty gates seeded by `seeds`
  /// level by level, re-evaluating each in place in `timing` through the
  /// compiled per-gate kernel and marking the fanout of every gate whose
  /// arrival or slew changed.  With `record_undo`, every overwritten
  /// net's old (arrival, slew, from) goes to ws.undo.  Does not finalize.
  void propagate(const ArcScaleProvider& scale,
                 std::span<const std::size_t> seeds,
                 const WhatIfOverlay* overlay, StaResult& timing,
                 Workspace& ws, bool record_undo) const;
  /// Worst PO arrival and its net under finalize's `>=` rule.
  std::pair<double, std::size_t> worst_po(
      const std::vector<double>& arrival_ps) const;
  /// Fill critical delay / PO / path from arrivals and from_net.
  void finalize_result(StaResult& result) const;
  StaResult make_result() const;
  double compute_net_load(std::size_t net) const;

  const Netlist* netlist_;
  const CharacterizedLibrary* library_;
  StaConfig config_;
  std::vector<double> load_cache_;  ///< per net, precomputed
  /// Per net: wire_delay_per_sink_ps * sink count, the same FP product
  /// the compiled arc records carry (slack_from's backward pass).
  std::vector<double> wire_delay_cache_;
  /// Per library cell, its characterized arcs in input-pin order.  Kills
  /// the per-evaluation input_pins_of() string-vector allocation and the
  /// string-compare arc_for() resolution on every lookup path.
  std::vector<std::vector<const CharacterizedArc*>> cell_arcs_;
  /// Per library cell, its input-pin caps in pin order (fF).
  std::vector<std::vector<double>> cell_pin_caps_;
  /// Gates bucketed by logic level, each bucket in topological-order
  /// sequence.  Built eagerly in the constructor (which also warms the
  /// netlist's lazy topological-order cache, making concurrent const use
  /// of the netlist race-free).
  std::vector<std::vector<std::size_t>> levels_;
  std::vector<std::size_t> gate_level_;  ///< per gate, for the dirty buckets
  std::vector<std::size_t> po_nets_;     ///< ascending, for finalize
  std::unique_ptr<CompiledTiming> compiled_;
  /// Cached metric handles (creation locks the registry; the what-if path
  /// is too hot to take that lock per candidate).
  class Counter* incr_touched_ = nullptr;
  class Counter* incr_total_ = nullptr;
};

}  // namespace sva
