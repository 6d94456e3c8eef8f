// Figure 7 reproduction: distribution of per-device CD error after
// full-chip model-based OPC for the C3540 benchmark.
//
// Paper: "we measure CDs of simulated full-chip standard model-based OPC
// and compare it with simulated nominal gate length.  The distribution of
// error is given for an example circuit in Figure 7.  We see up to 20%
// variation in printed gate length after model-based OPC."
//
// Error here is (printed CD - drawn CD) / drawn CD after full-chip OPC:
// the residual the OPC flow could not correct (mask rules, model fidelity,
// finite iterations).

#include <cstdio>
#include <vector>

#include "core/flow.hpp"
#include "place/fullchip_opc.hpp"
#include "report/ascii_plot.hpp"
#include "report/csv.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

using namespace sva;

int main() {
  std::printf("=== Fig. 7: post-OPC CD error distribution (C3540) ===\n\n");

  const SvaFlow flow{FlowConfig{}};
  const LithoModels litho(flow.config());
  const Netlist netlist = flow.make_benchmark("C3540");
  const Placement placement = flow.make_placement(netlist);
  const FullChipOpcResult full = full_chip_opc(placement, litho.engine());

  const Nm drawn = flow.config().cell_tech.gate_length;
  std::vector<double> errors;
  std::size_t failures = 0;
  for (const auto& per_gate : full.device_cd)
    for (Nm cd : per_gate) {
      if (cd <= 0.0) {
        ++failures;
        continue;
      }
      errors.push_back(100.0 * (cd - drawn) / drawn);
    }

  const Histogram hist = make_histogram(errors, -22.0, 22.0, 22);
  std::printf("%s\n",
              render_histogram(hist, "% CD error (printed vs drawn), "
                                     "devices of C3540")
                  .c_str());

  const Summary s = summarize(errors);
  std::printf("devices: %zu (print failures: %zu)\n", errors.size(),
              failures);
  std::printf("mean %+.2f%%  stddev %.2f%%  min %+.2f%%  max %+.2f%%\n",
              s.mean, s.stddev, s.min, s.max);
  std::printf("within 5%%: %s   within 10%%: %s   within 20%%: %s\n",
              fmt_pct(fraction_within(errors, 5.0), 1).c_str(),
              fmt_pct(fraction_within(errors, 10.0), 1).c_str(),
              fmt_pct(fraction_within(errors, 20.0), 1).c_str());
  std::printf("paper shape: bulk of devices within a few %%, tails up to "
              "~+-20%%\n");

  std::string csv = "error_pct\n";
  for (double e : errors) csv += fmt(e, 4) + "\n";
  write_text_file("fig7_cd_error.csv", csv);
  std::printf("\nwrote fig7_cd_error.csv\n");
  return 0;
}
