#include "ssta/report.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <system_error>
#include <vector>

#include "report/csv.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace sva {

namespace {

std::string num(double v, int decimals) { return fmt(v, decimals); }

/// Append `v` in fixed notation: the bytes fmt(v, decimals) returns
/// (fixed to_chars is specified as printf's %.*f in the C locale), without
/// a string per number.  A number too wide for fmt's 63 characters goes
/// through fmt itself, truncation included.
void append_fixed(std::string& out, double v, int decimals) {
  char buf[63];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v,
                                       std::chars_format::fixed, decimals);
  if (ec == std::errc())
    out.append(buf, end);
  else
    out += fmt(v, decimals);
}

}  // namespace

std::string criticality_csv(const Netlist& netlist, const SstaResult& ssta,
                            const CriticalityResult& crit) {
  // Input-pin names, looked up once per master.
  std::vector<std::vector<std::string>> pins(netlist.library().size());
  for (std::size_t ci = 0; ci < pins.size(); ++ci)
    pins[ci] = netlist.input_pins_of(ci);

  std::size_t rows = ssta.po_nets.size() + netlist.primary_input_count();
  for (const GateInst& gate : netlist.gates()) rows += gate.fanin_nets.size();
  std::string out;
  out.reserve(64 + 56 * rows);
  out += "kind,gate,pin,net,criticality,arrival_mean_ps,arrival_sigma_ps\n";
  // One row: kind,gate,pin,net,criticality, then the arrival columns.
  const auto start_row = [&out](std::string_view kind, std::string_view gate,
                                std::string_view pin, std::string_view net,
                                double criticality) {
    out += kind;
    out += ',';
    append_csv_cell(out, gate);
    out += ',';
    append_csv_cell(out, pin);
    out += ',';
    append_csv_cell(out, net);
    out += ',';
    append_fixed(out, criticality, 6);
    out += ',';
  };
  const auto end_row = [&out](const CanonicalDelay& arrival) {
    append_fixed(out, arrival.mean_ps, 3);
    out += ',';
    append_fixed(out, arrival.sigma_ps(), 3);
    out += '\n';
  };

  for (std::size_t i = 0; i < ssta.po_nets.size(); ++i) {
    const std::size_t ni = ssta.po_nets[i];
    start_row("endpoint", "", "", netlist.nets()[ni].name,
              ssta.po_tightness[i]);
    end_row(ssta.arrival[ni]);
  }

  for (std::size_t gi = 0; gi < netlist.gates().size(); ++gi) {
    const GateInst& gate = netlist.gates()[gi];
    const std::vector<std::string>& gate_pins = pins[gate.cell_index];
    for (std::size_t pi = 0; pi < gate.fanin_nets.size(); ++pi) {
      const std::size_t in_net = gate.fanin_nets[pi];
      start_row("arc", gate.name, gate_pins[pi], netlist.nets()[in_net].name,
                crit.arc_criticality[gi][pi]);
      end_row(ssta.arrival[in_net]);
    }
  }

  for (std::size_t ni = 0; ni < netlist.nets().size(); ++ni) {
    if (!netlist.nets()[ni].is_primary_input()) continue;
    start_row("input", "", "", netlist.nets()[ni].name,
              crit.net_criticality[ni]);
    out += "0.000,0.000\n";
  }
  return out;
}

std::string ssta_text_report(const Netlist& netlist, const SstaResult& ssta,
                             const CriticalityResult& crit, double quantile,
                             double clock_period_ps) {
  (void)crit;
  std::string out;
  const CanonicalDelay& c = ssta.critical;
  out += netlist.name() + ": block-based SSTA (" +
         std::to_string(netlist.gates().size()) + " gates, " +
         std::to_string(ssta.po_nets.size()) + " endpoints)\n";
  out += "  critical delay: mean " + num(units::ps_to_ns(c.mean_ps), 4) +
         " ns, sigma " + num(c.sigma_ps(), 2) + " ps (focus " +
         num(c.a_focus_ps, 2) + ", global " + num(c.a_global_ps, 2) +
         ", local " + num(c.local_ps, 2) + ")\n";
  out += "  q" + fmt_pct(quantile, 2) + ": " +
         num(units::ps_to_ns(ssta.quantile_ps(quantile)), 4) + " ns\n";
  if (clock_period_ps > 0.0)
    out += "  yield at clock " + num(units::ps_to_ns(clock_period_ps), 3) + " ns: " +
           fmt_pct(ssta.yield_at(clock_period_ps), 3) + "\n";

  // Top endpoints by criticality; net-index order breaks ties so the
  // listing is deterministic.
  std::vector<std::size_t> order(ssta.po_nets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ssta.po_tightness[a] > ssta.po_tightness[b];
                   });
  const std::size_t top = std::min<std::size_t>(5, order.size());
  out += "  top critical endpoints:\n";
  for (std::size_t i = 0; i < top; ++i) {
    const std::size_t k = order[i];
    const std::size_t ni = ssta.po_nets[k];
    out += "    " + pad_right(netlist.nets()[ni].name, 12) + " criticality " +
           num(ssta.po_tightness[k], 4) + "  mean " +
           num(units::ps_to_ns(ssta.arrival[ni].mean_ps), 4) + " ns  sigma " +
           num(ssta.arrival[ni].sigma_ps(), 2) + " ps\n";
  }
  return out;
}

}  // namespace sva
