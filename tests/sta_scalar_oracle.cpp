#include "sta_scalar_oracle.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace sva {

ScalarSta::ScalarSta(const Sta& sta, const Netlist& netlist)
    : sta_(&sta), netlist_(&netlist) {
  const std::size_t n_nets = netlist.nets().size();
  load_.resize(n_nets);
  wire_delay_.resize(n_nets);
  for (std::size_t ni = 0; ni < n_nets; ++ni) {
    load_[ni] = sta.net_load_ff(ni);
    wire_delay_[ni] = sta.config().wire_delay_per_sink_ps *
                      static_cast<double>(netlist.nets()[ni].sinks.size());
    if (netlist.nets()[ni].is_primary_output) po_nets_.push_back(ni);
  }
}

void ScalarSta::evaluate_gate(const ArcScaleProvider& scale, std::size_t gi,
                              StaResult& result) const {
  const GateInst& gate = netlist_->gates()[gi];
  const std::vector<const CharacterizedArc*>& arcs =
      sta_->cell_arcs(gate.cell_index);
  const double load = load_[gate.output_net];

  double worst_arrival = -1.0;
  double worst_slew = 0.0;
  std::size_t worst_from = kNoDriver;
  for (std::size_t pi = 0; pi < gate.fanin_nets.size(); ++pi) {
    const std::size_t in_net = gate.fanin_nets[pi];
    const CharacterizedArc& arc = *arcs[pi];
    const double factor = scale.scale(gi, arc.arc_index);
    SVA_ASSERT_MSG(factor > 0.0, "arc scale must be positive");
    const double in_slew = result.slew_ps[in_net];
    const double arrival = result.arrival_ps[in_net] + wire_delay_[in_net] +
                           factor * arc.nldm.delay_ps(in_slew, load);
    if (arrival > worst_arrival) {
      worst_arrival = arrival;
      worst_slew = factor * arc.nldm.output_slew_ps(in_slew, load);
      worst_from = in_net;
    }
  }
  result.arrival_ps[gate.output_net] = worst_arrival;
  result.slew_ps[gate.output_net] = worst_slew;
  result.from_net[gate.output_net] = worst_from;
}

StaResult ScalarSta::run(const ArcScaleProvider& scale) const {
  const Netlist& nl = *netlist_;
  StaResult result;
  result.arrival_ps.assign(nl.nets().size(), 0.0);
  result.slew_ps.assign(nl.nets().size(), sta_->config().input_slew_ps);
  result.from_net.assign(nl.nets().size(), kNoDriver);
  for (std::size_t gi : nl.topological_order())
    evaluate_gate(scale, gi, result);

  // Critical PO: the last PO (ascending net order) attaining the worst
  // arrival, then the critical path by backtracking arrival-setting fanins.
  for (std::size_t ni : po_nets_) {
    if (result.arrival_ps[ni] >= result.critical_delay_ps) {
      result.critical_delay_ps = result.arrival_ps[ni];
      result.critical_po_net = ni;
    }
  }
  std::size_t net = result.critical_po_net;
  while (net != kNoDriver && !nl.nets()[net].is_primary_input()) {
    result.critical_path.push_back(nl.nets()[net].driver_gate);
    net = result.from_net[net];
  }
  std::reverse(result.critical_path.begin(), result.critical_path.end());
  return result;
}

}  // namespace sva
