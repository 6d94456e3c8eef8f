#pragma once
// Variation-aware ECO timing optimizer.
//
// A greedy slack-driven loop over the moves of opt/moves.hpp:
//
//   1. analyze worst slack under the configured sign-off corner (the SVA
//      worst case by default, or the traditional uniform corner for the
//      paper-style comparison);
//   2. enumerate candidate moves on the critical / near-critical cone:
//      upsizing near-critical gates, downsizing off-critical sinks that
//      load near-critical nets, and re-spacing near-critical gates inside
//      their row whitespace (SVA mode only -- a context-blind corner
//      prices every position identically, so re-spacing can never gain);
//   3. price every candidate exactly and concurrently with
//      Sta::price_what_if: each pricing chunk owns a mirror of the
//      committed timing, patches it in place along the candidate's dirty
//      cone, reads the critical delay and rolls it back (gains land in
//      pre-sized slots, so the outcome is schedule-independent);
//   4. commit the single best move (gain, then smallest area, then lowest
//      gate index -- a deterministic total order) by propagating it alone
//      into the committed timing (Sta::apply_what_if), whose gain must
//      equal the priced gain bit for bit;
//
// until the clock is met, the gain stalls below min_gain_ps, or max_moves
// is hit.  The headline experiment: driving this loop with the SVA corner
// meets timing with fewer/smaller upsizes than driving it with the
// traditional corner, because (a) the SVA corner is less pessimistic and
// (b) only it can monetize zero-area re-spacing moves.

#include <cstdint>
#include <string>
#include <vector>

#include "core/budget.hpp"
#include "core/classify.hpp"
#include "netlist/netlist.hpp"
#include "opt/moves.hpp"
#include "opt/sizing.hpp"
#include "place/context.hpp"
#include "place/placement.hpp"
#include "sta/sta.hpp"
#include "util/cancel.hpp"

namespace sva {

/// Which sign-off corner drives candidate pricing and the stop criterion.
enum class EcoCornerMode { SvaWorst, TraditionalWorst };

const char* eco_corner_mode_name(EcoCornerMode mode);

struct EcoConfig {
  /// Target clock period.  <= 0 means auto: auto_clock_fraction times the
  /// initial delay under the configured corner (a clock the unoptimized
  /// design misses by construction -- the standard ECO demo setup).
  double clock_period_ps = 0.0;
  double auto_clock_fraction = 0.97;
  EcoCornerMode mode = EcoCornerMode::SvaWorst;
  std::size_t max_moves = 64;
  /// Gates whose slack is within this window of the worst slack are the
  /// candidate cone.
  double near_critical_window_ps = 25.0;
  /// Stall threshold: stop when the best candidate gains less than this.
  double min_gain_ps = 0.01;
  /// Respace candidates per direction (shifts of 1..k placement sites,
  /// clipped to the instance's legal range).
  std::size_t respace_sites_each_way = 2;

  CdBudget budget;
  ArcLabelPolicy arc_policy = ArcLabelPolicy::Majority;
  StaConfig sta;
};

/// One committed move, as recorded in the trajectory.
struct EcoMoveRecord {
  std::size_t index = 0;  ///< 1-based commit order
  MoveKind kind = MoveKind::Upsize;
  std::size_t gate = 0;
  std::string gate_name;
  std::string detail;  ///< "NAND2_X1 -> NAND2_X1_W145" or "dx +340 nm"
  double gain_ps = 0.0;
  double worst_slack_ps = 0.0;  ///< after the move
  double area_delta = 0.0;      ///< width-multiplier delta (0 for respace)
};

struct EcoResult {
  std::string benchmark;
  EcoCornerMode mode = EcoCornerMode::SvaWorst;
  double clock_period_ps = 0.0;
  double initial_worst_slack_ps = 0.0;
  double final_worst_slack_ps = 0.0;
  bool met_timing = false;
  std::size_t upsizes = 0;
  std::size_t downsizes = 0;
  std::size_t respaces = 0;
  /// Total width-multiplier added by upsizes (the "how much bigger did
  /// the gates get" cost of closure; respace moves are free).
  double upsize_area_delta = 0.0;
  /// Net width-multiplier delta over all sizing moves.
  double total_area_delta = 0.0;
  std::size_t candidates_evaluated = 0;
  std::vector<EcoMoveRecord> trajectory;
  /// True when run() stopped because its CancelToken tripped (the
  /// committed state is a clean prefix -- checkpoint it and resume).
  bool cancelled = false;

  std::size_t moves_committed() const { return trajectory.size(); }
  double slack_recovered_ps() const {
    return final_worst_slack_ps - initial_worst_slack_ps;
  }
};

class EcoOptimizer {
 public:
  /// Takes ownership of `netlist` (it is mutated by committed sizing
  /// moves) and places it internally.  The netlist must be mapped onto
  /// `sized.library()`; `sized` must outlive the optimizer.
  EcoOptimizer(const SizedLibrary& sized, Netlist netlist,
               const PlacementConfig& placement, EcoConfig config);

  EcoOptimizer(const EcoOptimizer&) = delete;
  EcoOptimizer& operator=(const EcoOptimizer&) = delete;

  /// Run the loop to completion.  With a pool, candidate pricing fans out
  /// across it; the result is bit-identical at any thread count (slots +
  /// serial deterministic selection).  Repeated calls continue from the
  /// committed state (the first call does the work; a second is a no-op
  /// unless the config was loosened).
  ///
  /// A non-null `cancel` is polled at commit granularity (the top of each
  /// iteration and per pricing chunk).  On a trip the loop stops between
  /// commits -- never mid-commit -- and returns with result.cancelled set;
  /// the trajectory so far is exactly the prefix an uninterrupted run
  /// would have committed (checkpoint() it, then restore() + run() in a
  /// later process continues to a bit-identical final result).
  EcoResult run(ThreadPool* pool = nullptr,
                const CancelToken* cancel = nullptr);

  /// Identity of this optimization for checkpoint validation: context
  /// library content hash + benchmark + every config field that shapes
  /// the trajectory.  Restoring a journal whose hash differs is refused.
  std::uint64_t state_hash() const;

  /// Journal the committed state (the accepted-move sequence plus the
  /// counters the summary prints) to `path` as an "eco"-kind checkpoint
  /// envelope.  Valid at any point between run() calls.
  void checkpoint(const std::string& path) const;

  /// Reload `path` (written by checkpoint() for identical inputs -- the
  /// state hash is verified) and replay the journaled moves through the
  /// exact evaluate+commit pipeline.  What-if pricing is exact and
  /// deterministic, so the replayed state is bit-identical to the state
  /// that was checkpointed; each replayed move's worst slack is verified
  /// against the journal bit-for-bit as proof.  Must be called before the
  /// first run() (i.e. with no moves committed yet); a following run()
  /// continues the trajectory exactly where the interrupted run stopped.
  void restore(const std::string& path);

  const Netlist& netlist() const { return netlist_; }
  const Placement& placement() const { return placement_; }
  const EcoConfig& config() const { return config_; }
  /// The committed moves in commit order (the replay journal).
  const std::vector<Move>& committed_moves() const {
    return committed_moves_;
  }

  /// Worst slack of the committed state under the configured corner.
  double worst_slack_ps() const;

 private:
  struct Evaluation {
    Move move;
    double gain_ps = 0.0;
    double area_delta = 0.0;
    /// Respace commit data: re-measured spacings, the matching
    /// hypothetical factor rows of the affected gates, and the gates
    /// whose row actually changed (the what-if seeds).
    std::vector<NpsUpdate> nps_updates;
    std::vector<OverlayScale::Row> factor_rows;
    std::vector<std::size_t> changed;
  };

  /// Pricing state of one parallel_for chunk: a mirror of current_
  /// (synced once per chunk and iteration) and the incremental routine's
  /// reusable buffers.
  struct PricingScratch {
    StaResult mirror;
    Sta::Workspace work;
  };

  std::vector<double> committed_row(std::size_t gate) const;
  std::vector<Move> enumerate_candidates(
      const std::vector<double>& net_slack_ps, double threshold_ps) const;
  /// Price `move` against the committed state on `scratch` (whose mirror
  /// must equal current_; it does again on return).
  void evaluate(const Move& move, Evaluation& out,
                PricingScratch& scratch) const;
  /// Call fn(scale, cell_overrides, scale_changed_gates) with `e`'s
  /// what-if edit of the committed state.
  template <typename Fn>
  decltype(auto) with_edit(const Evaluation& e, Fn&& fn) const;
  /// Deterministic total order: larger gain, then smaller area, then
  /// lower gate, then kind, then target cell, then smaller |dx|.
  static bool better(const Evaluation& a, const Evaluation& b);
  /// Propagate `best` alone into current_ (asserting the realized gain is
  /// the priced one, bit for bit), then mutate the design to match.
  void commit(Evaluation&& best);
  /// Commit `chosen` and append its trajectory record / counters to
  /// result_.  The single bookkeeping path shared by run() and restore()
  /// -- which is what makes a replayed trajectory byte-identical.
  void apply_move(Evaluation&& chosen);

  const SizedLibrary* sized_;
  EcoConfig config_;
  Netlist netlist_;
  Placement placement_;
  Sta sta_;
  std::vector<InstanceNps> nps_;
  std::vector<VersionKey> versions_;
  std::vector<std::vector<double>> factors_;  // committed, [gate][arc]
  StaResult current_;                         // committed forward timing
  /// One per pricing chunk, reused across iterations (never shared by two
  /// chunks of one parallel_for).
  std::vector<PricingScratch> scratch_;
  Sta::Workspace commit_work_;  ///< commit's incremental buffers
  /// Committed-state accumulator: trajectory, counters, and the header
  /// fields the summary prints.  Lives on the optimizer (not run()'s
  /// stack) so checkpoint/restore and repeated run() calls all see one
  /// continuous history.
  EcoResult result_;
  /// The raw committed moves, in order -- the replay journal.  The
  /// trajectory records lack the target cell / dx needed to re-execute.
  std::vector<Move> committed_moves_;
};

}  // namespace sva
