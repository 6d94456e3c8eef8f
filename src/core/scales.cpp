#include "core/scales.hpp"

#include "util/error.hpp"

namespace sva {

namespace {

/// Non-CD process margin applied identically in both flows.
double other_process(const CdBudget& budget, Corner corner) {
  switch (corner) {
    case Corner::Worst: return budget.other_process_factor(/*worst=*/true);
    case Corner::Best: return budget.other_process_factor(/*worst=*/false);
    case Corner::Nominal: return 1.0;
  }
  return 1.0;
}

}  // namespace

TraditionalCornerScale::TraditionalCornerScale(Nm l_nom,
                                               const CdBudget& budget,
                                               Corner corner)
    : factor_(traditional_corners(l_nom, budget).at(corner) / l_nom *
              other_process(budget, corner)) {
  SVA_ASSERT(factor_ > 0.0);
}

std::vector<ArcAnnotation> annotate_gate_arcs(
    const Netlist& netlist, std::size_t gate, const ContextLibrary& context,
    const VersionKey& version, const CdBudget& budget, ArcLabelPolicy policy,
    Nm spacing_shift, const InstanceNps* nps, const ContextCache* cache) {
  SVA_REQUIRE(gate < netlist.gates().size());
  const std::size_t ci = netlist.gates()[gate].cell_index;
  const CellMaster& master = netlist.library().master(ci);
  const std::vector<TimingArc>& arcs = master.arcs();
  const std::vector<Device>& devices = master.devices();
  const Nm l_nom = master.tech().gate_length;
  const Nm contacted = master.tech().contacted_pitch;

  std::vector<ArcAnnotation> out(arcs.size());
  for (std::size_t ai = 0; ai < arcs.size(); ++ai) {
    ArcAnnotation& ann = out[ai];
    ann.l_nom_new = cache != nullptr
                        ? cache->arc_effective_length(ci, version, ai)
                        : context.arc_effective_length(ci, version, ai);

    DeviceClassTally tally;
    for (std::size_t di : arcs[ai].device_indices) {
      DeviceContext ctx;
      if (nps != nullptr) {
        const bool pmos = devices[di].type == DeviceType::Pmos;
        ctx = context.device_context_measured(
            ci, di, pmos ? nps->lt : nps->lb, pmos ? nps->rt : nps->rb);
      } else {
        ctx = context.device_context(ci, version, di);
      }
      tally.add(classify_device(ctx.s_left + spacing_shift,
                                ctx.s_right + spacing_shift, contacted));
    }
    ann.arc_class = classify_tally(tally, policy);
    ann.corners = sva_corners(l_nom, ann.l_nom_new, ann.arc_class, budget);
  }
  return out;
}

std::vector<std::vector<ArcAnnotation>> annotate_arcs(
    const Netlist& netlist, const ContextLibrary& context,
    const std::vector<VersionKey>& versions, const CdBudget& budget,
    ArcLabelPolicy policy, Nm spacing_shift,
    const std::vector<InstanceNps>* measured_nps,
    const ContextCache* cache) {
  SVA_REQUIRE(measured_nps == nullptr ||
              measured_nps->size() == netlist.gates().size());
  SVA_REQUIRE(versions.size() == netlist.gates().size());

  std::vector<std::vector<ArcAnnotation>> out(netlist.gates().size());
  for (std::size_t gi = 0; gi < netlist.gates().size(); ++gi)
    out[gi] = annotate_gate_arcs(
        netlist, gi, context, versions[gi], budget, policy, spacing_shift,
        measured_nps != nullptr ? &(*measured_nps)[gi] : nullptr, cache);
  return out;
}

std::vector<double> gate_corner_factors(
    const Netlist& netlist, std::size_t gate,
    const std::vector<ArcAnnotation>& annotations, const CdBudget& budget,
    Corner corner) {
  const Nm l_nom = netlist.library()
                       .master(netlist.gates()[gate].cell_index)
                       .tech()
                       .gate_length;
  std::vector<double> factors(annotations.size());
  for (std::size_t ai = 0; ai < annotations.size(); ++ai)
    factors[ai] = annotations[ai].corners.at(corner) / l_nom *
                  other_process(budget, corner);
  return factors;
}

std::vector<std::vector<double>> corner_factors(
    const Netlist& netlist,
    const std::vector<std::vector<ArcAnnotation>>& annotations,
    const CdBudget& budget, Corner corner) {
  std::vector<std::vector<double>> factors(annotations.size());
  for (std::size_t gi = 0; gi < annotations.size(); ++gi)
    factors[gi] = gate_corner_factors(netlist, gi, annotations[gi], budget,
                                      corner);
  return factors;
}

SvaCornerScale::SvaCornerScale(const Netlist& netlist,
                               const ContextLibrary& context,
                               const std::vector<VersionKey>& versions,
                               const CdBudget& budget, Corner corner,
                               ArcLabelPolicy policy,
                               const std::vector<InstanceNps>* measured_nps,
                               const ContextCache* cache)
    : annotations_(annotate_arcs(netlist, context, versions, budget, policy,
                                 0.0, measured_nps, cache)),
      factors_(corner_factors(netlist, annotations_, budget, corner)) {}

double SvaCornerScale::scale(std::size_t gate, std::size_t arc_index) const {
  SVA_REQUIRE(gate < factors_.size());
  SVA_REQUIRE(arc_index < factors_[gate].size());
  return factors_[gate][arc_index];
}

std::vector<std::size_t> SvaCornerScale::class_histogram() const {
  std::vector<std::size_t> counts(3, 0);
  for (const auto& gate : annotations_)
    for (const auto& ann : gate)
      ++counts[static_cast<std::size_t>(ann.arc_class)];
  return counts;
}

}  // namespace sva
