#pragma once
// Scalar reference STA for differential tests and the kernel bench.
//
// The readable specification of late-mode block-based STA: walk the
// netlist in topological order and evaluate each gate through its
// characterized cell's NLDM tables (LookupTable2D::at), the worst arrival
// over the gate's fanin arcs setting its output arrival, slew and
// arrival-setting fanin.  It is built only from Sta's public surface --
// cell_arcs(), net_load_ff() and config() -- so it shares no evaluation
// code with the compiled kernel, which must match it bit for bit.

#include <vector>

#include "netlist/netlist.hpp"
#include "sta/scale.hpp"
#include "sta/sta.hpp"

namespace sva {

class ScalarSta {
 public:
  /// `netlist` must be the one `sta` was built over, with any committed
  /// master swaps already synced into `sta`; both must outlive this
  /// object.  Per-net loads and wire delays are read once, here.
  ScalarSta(const Sta& sta, const Netlist& netlist);

  /// Full scalar analysis under `scale`.
  StaResult run(const ArcScaleProvider& scale) const;

 private:
  /// Recompute one gate's output arrival/slew/from in `result`.
  void evaluate_gate(const ArcScaleProvider& scale, std::size_t gate,
                     StaResult& result) const;

  const Sta* sta_;
  const Netlist* netlist_;
  std::vector<double> load_;        ///< per net (fF)
  std::vector<double> wire_delay_;  ///< per net, per-sink wire delay (ps)
  std::vector<std::size_t> po_nets_;  ///< ascending
};

}  // namespace sva
