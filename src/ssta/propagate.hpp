#pragma once
// Block-based SSTA propagation over the levelized timing graph.
//
// The paper's variation taxonomy maps onto the canonical basis as:
//
//  * through-pitch context  -> deterministic per-arc mean shift (the
//    context-predicted nominal length from core/classify, exactly the
//    systematic component ContextAwareSampler treats as deterministic);
//  * through-focus smile/frown -> sensitivity to ONE shared chip-level
//    defocus variable.  The Bossung response is quadratic (shift =
//    +-lvar_focus * f^2 with f ~ U(-1,1)), so the standardized variable
//    is X_F = (f^2 - 1/3) / sqrt(4/45): mean contribution s/3,
//    sensitivity s*sqrt(4/45), per arc class sign;
//  * chip-global CD -> a second shared variable taking `global_share`
//    of the residual sigma;
//  * the remaining residual budget -> an independent local term.
//
// Propagation: exact canonical sum over arcs, Clark moment-matched max
// at merge points (fold in fanin-pin order; the fold also yields the
// per-pin selection probabilities criticality needs).  Slew coupling is
// carried to first order: the deterministic base state (an Sta run at
// the mean factors) provides the NLDM operating points, and per-net
// slew sensitivity triples propagate through finite-difference
// derivatives of the delay/slew tables.
//
// Local terms are carried exactly, as one coefficient per independent
// residual, but each net stores them only over its fanin-cone support
// and only until its last reader's level has run: memory follows the
// live frontier of cones, not nets x residuals.  Slots outside a support
// hold exactly 0, so skipping them leaves every ascending-slot sum
// bit-identical to a dense per-net vector.
//
// The engine mirrors Sta's levelized structure, so run_parallel() is
// bit-identical to run() at any thread count: each gate reads only
// lower-level nets and writes only its own output state.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cell/context_library.hpp"
#include "core/budget.hpp"
#include "core/classify.hpp"
#include "engine/context_cache.hpp"
#include "engine/thread_pool.hpp"
#include "netlist/netlist.hpp"
#include "ssta/canonical.hpp"
#include "sta/sta.hpp"
#include "util/cancel.hpp"

namespace sva {

/// Variation model driving the canonical decomposition.
struct SstaVariationModel {
  CdBudget budget;
  ArcLabelPolicy policy = ArcLabelPolicy::Majority;
  /// Share of the residual sigma that is chip-global (the second shared
  /// variable); the rest is independent local.  0 matches the default
  /// ContextAwareSampler exactly.
  double global_share = 0.0;
};

/// First-order sensitivities of a net's slew (all ps).  `local_ps` is
/// the norm of the net's per-residual slew coefficients; the
/// coefficients live in the propagation state, not in the public result.
struct SlewSensitivity {
  double a_focus_ps = 0.0;
  double a_global_ps = 0.0;
  double local_ps = 0.0;
};

/// One SSTA analysis of the whole design.
struct SstaResult {
  std::vector<CanonicalDelay> arrival;     ///< per net
  std::vector<SlewSensitivity> slew_sens;  ///< per net
  /// Per gate, per fanin pin: probability that this pin's candidate sets
  /// the gate's output max (sums to 1 per gate by construction).
  std::vector<std::vector<double>> gate_pin_tightness;
  CanonicalDelay critical;                 ///< max over primary outputs
  std::vector<std::size_t> po_nets;        ///< POs in net-index order
  std::vector<double> po_tightness;        ///< endpoint criticality, sums to 1

  double quantile_ps(double q) const { return critical.quantile_ps(q); }
  /// Gaussian parametric yield at a clock period.
  double yield_at(double clock_period_ps) const {
    const double sigma = critical.sigma_ps();
    if (sigma <= 0.0) return clock_period_ps >= critical.mean_ps ? 1.0 : 0.0;
    return normal_cdf((clock_period_ps - critical.mean_ps) / sigma);
  }
};

/// Block-based SSTA engine over the same levelized graph Sta uses.
class SstaEngine {
 public:
  /// All references must outlive the engine.  `cache`, when given, memoizes
  /// the (cell, version) effective lengths exactly like the corner flow.
  SstaEngine(const Netlist& netlist, const CharacterizedLibrary& library,
             const ContextLibrary& context,
             const std::vector<VersionKey>& versions,
             const SstaVariationModel& model, const StaConfig& config = {},
             const ContextCache* cache = nullptr);

  /// Serial propagation.
  SstaResult run() const;

  /// Levelized-parallel propagation; bit-identical to run() at any
  /// thread count.  `cancel` is polled once per level.
  SstaResult run_parallel(ThreadPool& pool,
                          const CancelToken* cancel = nullptr) const;

  /// The deterministic mean-state run backing the NLDM operating points.
  const StaResult& base_result() const { return base_; }
  const Netlist& netlist() const { return *netlist_; }

  /// Canonical delay factor (dimensionless) of one (gate, master-arc).
  const CanonicalDelay& arc_factor(std::size_t gate,
                                   std::size_t arc_index) const;

 private:
  /// One net's local terms over its fanin-cone support.  `slots` lists,
  /// ascending, the residual slots (see res_offset_) the net's arrival
  /// depends on; `arr` and `slew` hold the arrival and slew coefficient
  /// at each.  Every slot outside the list has coefficient exactly 0.
  /// Slew support is a subset of arrival support (by induction over the
  /// levels), so one index list serves both.  `arrival[n].local_ps`
  /// equals the norm of `arr` by construction, and the dot product of
  /// two nets' coefficients is their exact first-order local covariance
  /// -- this is what keeps reconvergent merges honest.
  struct NetCoef {
    std::vector<std::uint32_t> slots;
    std::vector<double> arr;
    std::vector<double> slew;
  };

  struct State {
    std::vector<CanonicalDelay> arrival;
    std::vector<SlewSensitivity> slew_sens;
    std::vector<std::vector<double>> gate_pin_tightness;
    std::vector<NetCoef> coef;  ///< per net; freed after its last reader
  };

  void evaluate_gate(std::size_t gate, State& state) const;
  /// The level loop behind run() (`pool` null) and run_parallel().
  SstaResult propagate(ThreadPool* pool, const CancelToken* cancel) const;
  SstaResult finalize(State state) const;

  const Netlist* netlist_;
  StaConfig config_;
  /// Dimensionless canonical factor per (gate, master-arc), mirroring the
  /// MatrixScale layout.
  std::vector<std::vector<CanonicalDelay>> factors_;
  Sta sta_;           ///< graph/levelization + deterministic base engine
  StaResult base_;    ///< run at the mean factors (slews, operating points)
  std::vector<std::vector<std::size_t>> levels_;
  /// Residual index space: res_offset_[g] + arc_index addresses the CD
  /// residual of one (gate, master-arc); arc_total_ + g addresses the
  /// gate's max-noise slot.
  std::vector<std::size_t> res_offset_;
  std::size_t arc_total_ = 0;
  /// release_[l]: the non-PO nets last read on level l; their coefficient
  /// lists are freed once level l finishes, so only the live frontier
  /// holds memory.  POs stay live for the chip fold.
  std::vector<std::vector<std::size_t>> release_;
  class TimerStat* propagate_timer_ = nullptr;  ///< ssta.propagate
  class Counter* coef_peak_ = nullptr;          ///< ssta.coef_entries_peak
};

}  // namespace sva
