// --record: regenerate perfbench/reference.tsv, the spec pools and the
// outputs their direct runs produce.  Run it only when the program's output
// is meant to change, and review the diff of the file.

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common.hpp"
#include "core/flow.hpp"
#include "engine/thread_pool.hpp"
#include "netlist/iscas85.hpp"
#include "opt/eco.hpp"
#include "opt/sizing.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sva;

namespace {

const std::vector<std::string> kTable2Orders = {
    "C432 C499 C880 C1355 C1908 C2670 C3540 C5315 C6288 C7552",
    "C7552 C6288 C5315 C3540 C2670 C1908 C1355 C880 C499 C432",
    "C432 C7552 C499 C6288 C880 C5315 C1355 C3540 C1908 C2670",
    "C880 C432 C1355 C499 C2670 C1908 C5315 C3540 C7552 C6288",
};
const std::string kSstaVariant = " --global-share 0.3 --quantile 0.99";
const std::vector<std::string> kSstaVariants = {"", kSstaVariant};
/// Five sizes spread over C432..C3540, one spec each: the median job falls
/// in the middle of the C1908 jobs and the 90th percentile in the middle of
/// the C3540 jobs, never on the edge between two specs of unequal cost.
const std::vector<std::string> kSstaSweep = {
    "C432", "C880" + kSstaVariant, "C1908", "C2670" + kSstaVariant, "C3540"};
const std::vector<std::string> kEcoCircuits = {"C432", "C499", "C880",
                                               "C1355", "C1908"};
/// Clock targets as a share of the unoptimised delay in the spec's corner.
const std::vector<double> kClockShares = {0.95, 0.97, 0.99};
const std::vector<std::string> kDaemonAnalyze = {
    "C432", "C880", "C1908", "C7552", "C499 C1355", "C2670 C432",
    "C3540 C880", "C6288 C5315", "C432 C499 C880", "C1355 C1908 C2670",
    "C3540 C5315 C6288", "C7552 C432 C1908"};
const std::vector<std::string> kDaemonSsta = {"C432", "C499", "C880", "C1355"};
const std::vector<std::string> kDaemonOptimize = {"C432", "C880"};

}  // namespace

void record_references(const std::string& path) {
  const SvaFlow flow{FlowConfig{}};
  const FlowConfig& fc = flow.config();
  const SizedLibrary sized(flow.library(), fc.electrical,
                           flow.library_opc_results(), flow.boundary_model(),
                           fc.bins);
  ThreadPool serial(1);
  ThreadPool wide(4);

  // Optimize clocks: shares of the unoptimised delay, which the optimizer's
  // auto clock (auto_clock_fraction of that delay) reveals.
  auto optimize_specs = [&](const std::vector<std::string>& circuits) {
    std::vector<std::string> out;
    for (const std::string& c : circuits)
      for (const char* mode : {"sva", "trad"}) {
        EcoConfig eco;
        eco.mode = std::string(mode) == "sva" ? EcoCornerMode::SvaWorst
                                              : EcoCornerMode::TraditionalWorst;
        eco.max_moves = 0;
        eco.budget = fc.budget;
        eco.arc_policy = fc.arc_policy;
        eco.sta = fc.sta;
        EcoOptimizer optimizer(sized, generate_iscas85_like(c, sized.library()),
                               fc.placement, eco);
        const double delay_ps =
            optimizer.run(&wide).clock_period_ps / eco.auto_clock_fraction;
        for (double share : kClockShares) {
          char clock[32];
          std::snprintf(clock, sizeof clock, "%.3f", delay_ps * share / 1000.0);
          out.push_back("optimize " + c + " --corner " + mode + " --clock " + clock);
        }
      }
    return out;
  };

  std::vector<std::pair<std::string, std::string>> rows;
  for (const std::string& order : kTable2Orders)
    rows.push_back({"table2_cli", "analyze " + order});
  for (const std::string& c : kSstaSweep)
    rows.push_back({"ssta_sweep", "ssta " + c});
  for (const std::string& spec : optimize_specs(kEcoCircuits))
    rows.push_back({"eco_closure", spec});
  for (const std::string& c : kDaemonAnalyze)
    rows.push_back({"daemon_mix", "analyze " + c});
  for (const std::string& c : kDaemonSsta)
    for (const std::string& v : kSstaVariants)
      rows.push_back({"daemon_mix", "ssta " + c + v});
  for (const std::string& spec : optimize_specs(kDaemonOptimize))
    rows.push_back({"daemon_mix", spec});

  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# perfbench reference outputs, written by `perfbench --record`.\n"
         "# workload<TAB>spec (CLI grammar)<TAB>exit code<TAB>FNV-1a digest of"
         " exit, error, output without the wall-time line and artifacts"
         "<TAB>digested bytes\n";
  for (const auto& [workload, text] : rows) {
    const PoolSpec spec = parse_spec(workload, text);
    const JobResult a = run_direct(flow, sized, serial, spec);
    const JobResult b = run_direct(flow, sized, wide, spec);
    const Digest da = digest_of(a);
    if (!(da == digest_of(b)))
      throw std::runtime_error(text + ": output depends on the thread count");
    if (!a.error.empty()) throw std::runtime_error(text + ": " + a.error);
    char digest[24];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(da.hash));
    out << workload << '\t' << text << '\t' << a.exit_code << '\t' << digest
        << '\t' << da.bytes << '\n';
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
  std::printf("wrote %zu reference rows to %s\n", rows.size(), path.c_str());
}

}  // namespace perfbench
