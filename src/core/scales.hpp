#pragma once
// Corner-aware ArcScaleProviders: the bridge from corner gate lengths to
// the STA engine.
//
// TraditionalCornerScale reproduces the sign-off flow the paper criticizes
// (every arc scaled by the full-budget corner length).  SvaCornerScale is
// the proposed flow: each placed instance is bound to its context version
// (one of the 81), every arc gets a context-predicted nominal length and a
// smile/frown/self-compensated label, and corners are computed with
// Eqs. (1)-(5).

#include <vector>

#include "cell/context_library.hpp"
#include "core/budget.hpp"
#include "core/classify.hpp"
#include "core/corners.hpp"
#include "engine/context_cache.hpp"
#include "netlist/netlist.hpp"
#include "place/context.hpp"
#include "sta/scale.hpp"

namespace sva {

/// Traditional corner: uniform scaling of every arc.
class TraditionalCornerScale final : public ArcScaleProvider {
 public:
  TraditionalCornerScale(Nm l_nom, const CdBudget& budget, Corner corner);

  double scale(std::size_t, std::size_t) const override { return factor_; }
  double factor() const { return factor_; }

 private:
  double factor_;
};

/// Per-(gate, arc) classification and corner data of the SVA flow.
struct ArcAnnotation {
  Nm l_nom_new = 0.0;           ///< context-predicted effective length
  ArcClass arc_class = ArcClass::SelfCompensated;
  CornerLengths corners;
};

/// The systematic-variation-aware corner scale.
class SvaCornerScale final : public ArcScaleProvider {
 public:
  /// `context` must outlive the scale; `versions` holds the bound version
  /// of each netlist gate (from place/context.hpp).
  SvaCornerScale(const Netlist& netlist, const ContextLibrary& context,
                 const std::vector<VersionKey>& versions,
                 const CdBudget& budget, Corner corner,
                 ArcLabelPolicy policy = ArcLabelPolicy::Majority,
                 const std::vector<InstanceNps>* measured_nps = nullptr,
                 const ContextCache* cache = nullptr);

  double scale(std::size_t gate, std::size_t arc_index) const override;

  /// Count of arcs per class over the whole design (for reports).
  std::vector<std::size_t> class_histogram() const;

 private:
  std::vector<std::vector<ArcAnnotation>> annotations_;  // [gate][arc]
  std::vector<std::vector<double>> factors_;             // [gate][arc]
};

/// Annotate every arc of a design (shared by the corner scales, the
/// statistical samplers, and the exposure analysis).
///
/// Effective lengths (the 81-version delay tables) always come from the
/// binned versions; device *classification* uses the measured nps values
/// when `measured_nps` is provided (the paper labels devices from the
/// physical layout, Sec. 3.2), falling back to the bin representatives
/// otherwise.
///
/// `spacing_shift` offsets every device's effective side spacing before
/// classification: exposure-dose errors widen or thin all printed lines,
/// shrinking or growing the clear spacings between them (Sec. 6: "Exposure
/// variation can alter the nature of devices (i.e. dense or isolated)").
///
/// When `cache` is given, effective lengths come from the memoized
/// (cell, version) slots instead of re-deriving them per instance --
/// bit-identical values, characterized once and shared across threads.
std::vector<std::vector<ArcAnnotation>> annotate_arcs(
    const Netlist& netlist, const ContextLibrary& context,
    const std::vector<VersionKey>& versions, const CdBudget& budget,
    ArcLabelPolicy policy, Nm spacing_shift = 0.0,
    const std::vector<InstanceNps>* measured_nps = nullptr,
    const ContextCache* cache = nullptr);

/// Annotate the arcs of a single gate (the per-gate body of
/// annotate_arcs).  ECO candidate evaluation re-annotates just the
/// instances whose placement context a move perturbs; `nps`, when given,
/// holds the (hypothetical) measured spacings of this one instance.
std::vector<ArcAnnotation> annotate_gate_arcs(
    const Netlist& netlist, std::size_t gate, const ContextLibrary& context,
    const VersionKey& version, const CdBudget& budget, ArcLabelPolicy policy,
    Nm spacing_shift = 0.0, const InstanceNps* nps = nullptr,
    const ContextCache* cache = nullptr);

/// Delay factors per (gate, arc) for one corner from annotations.
std::vector<std::vector<double>> corner_factors(
    const Netlist& netlist,
    const std::vector<std::vector<ArcAnnotation>>& annotations,
    const CdBudget& budget, Corner corner);

/// One gate's corner factor row (the per-gate body of corner_factors).
std::vector<double> gate_corner_factors(
    const Netlist& netlist, std::size_t gate,
    const std::vector<ArcAnnotation>& annotations, const CdBudget& budget,
    Corner corner);

}  // namespace sva
