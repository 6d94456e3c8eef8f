#include "ssta_dense_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ssta/canonical.hpp"

namespace sva {

SstaResult dense_ssta(const SstaEngine& engine,
                      const CharacterizedLibrary& library,
                      const StaConfig& config) {
  const Netlist& nl = engine.netlist();
  const Sta sta(nl, library, config);
  const StaResult& base = engine.base_result();

  // Residual index space: per-gate arc slots, then per-gate noise slots.
  std::vector<std::size_t> res_offset(nl.gates().size());
  std::size_t arc_total = 0;
  for (std::size_t gi = 0; gi < nl.gates().size(); ++gi) {
    res_offset[gi] = arc_total;
    arc_total += nl.library().master(nl.gates()[gi].cell_index).arcs().size();
  }
  const std::size_t n_res = arc_total + nl.gates().size();

  const std::size_t n_nets = nl.nets().size();
  std::vector<CanonicalDelay> arrival(n_nets);
  std::vector<SlewSensitivity> slew_sens(n_nets);
  std::vector<std::vector<double>> gate_pin_tightness(nl.gates().size());
  // Per-net dense coefficient vectors.  A net's pair is allocated by its
  // driver and dropped once its last sink has read it (POs are kept for
  // the chip fold); primary inputs read as all-zero vectors.  This only
  // bounds the oracle's memory -- every loop still spans all n_res slots.
  std::vector<std::vector<double>> arr_coef(n_nets);
  std::vector<std::vector<double>> slew_coef(n_nets);
  const std::vector<double> zeros(n_res, 0.0);
  std::vector<std::size_t> readers_left(n_nets);
  for (std::size_t ni = 0; ni < n_nets; ++ni)
    readers_left[ni] = nl.nets()[ni].sinks.size();

  for (std::size_t gi : nl.topological_order()) {
    const GateInst& gate = nl.gates()[gi];
    const CharacterizedCell& cell = library.cells[gate.cell_index];
    const double load = sta.net_load_ff(gate.output_net);
    const auto pins = nl.input_pins_of(gate.cell_index);
    const std::size_t n = gate.fanin_nets.size();

    CanonicalDelay acc;
    std::vector<double>& q = gate_pin_tightness[gi];
    q.assign(n, 0.0);
    std::vector<SlewSensitivity> cand_slew(n);
    std::vector<double> acc_coef(n_res, 0.0);
    std::vector<double> cand_coef(n_res, 0.0);
    std::vector<std::vector<double>> cand_slew_coef(n);

    for (std::size_t pi = 0; pi < n; ++pi) {
      const std::size_t in_net = gate.fanin_nets[pi];
      const CharacterizedArc& arc = cell.arc_for(pins[pi]);
      const CanonicalDelay& fac = engine.arc_factor(gi, arc.arc_index);
      const CanonicalDelay& ain = arrival[in_net];
      const SlewSensitivity& sin = slew_sens[in_net];

      const double s0 = base.slew_ps[in_net];
      const double d0 = arc.nldm.delay_ps(s0, load);
      const double so0 = arc.nldm.output_slew_ps(s0, load);
      const double ds = std::max(0.5, 0.05 * s0);
      const double dd_dslew = (arc.nldm.delay_ps(s0 + ds, load) -
                               arc.nldm.delay_ps(s0 - ds, load)) /
                              (2.0 * ds);
      const double dso_dslew = (arc.nldm.output_slew_ps(s0 + ds, load) -
                                arc.nldm.output_slew_ps(s0 - ds, load)) /
                               (2.0 * ds);
      const double wire_delay =
          config.wire_delay_per_sink_ps *
          static_cast<double>(nl.nets()[in_net].sinks.size());

      const double k = fac.mean_ps * dd_dslew;
      const std::vector<double>& ain_c =
          arr_coef[in_net].empty() ? zeros : arr_coef[in_net];
      const std::vector<double>& sin_c =
          slew_coef[in_net].empty() ? zeros : slew_coef[in_net];
      const std::size_t rid = res_offset[gi] + arc.arc_index;

      CanonicalDelay cand;
      cand.mean_ps = ain.mean_ps + wire_delay + fac.mean_ps * d0;
      cand.a_focus_ps =
          ain.a_focus_ps + fac.a_focus_ps * d0 + k * sin.a_focus_ps;
      cand.a_global_ps =
          ain.a_global_ps + fac.a_global_ps * d0 + k * sin.a_global_ps;
      double cand_var = 0.0;
      for (std::size_t j = 0; j < n_res; ++j) {
        cand_coef[j] = ain_c[j] + k * sin_c[j];
        if (j == rid) cand_coef[j] += fac.local_ps * d0;
        cand_var += cand_coef[j] * cand_coef[j];
      }
      cand.local_ps = std::sqrt(cand_var);

      const double ks = fac.mean_ps * dso_dslew;
      SlewSensitivity& cs = cand_slew[pi];
      cs.a_focus_ps = fac.a_focus_ps * so0 + ks * sin.a_focus_ps;
      cs.a_global_ps = fac.a_global_ps * so0 + ks * sin.a_global_ps;
      std::vector<double>& cs_c = cand_slew_coef[pi];
      cs_c.assign(n_res, 0.0);
      double cs_var = 0.0;
      for (std::size_t j = 0; j < n_res; ++j) {
        cs_c[j] = ks * sin_c[j];
        if (j == rid) cs_c[j] += fac.local_ps * so0;
        cs_var += cs_c[j] * cs_c[j];
      }
      cs.local_ps = std::sqrt(cs_var);

      if (pi == 0) {
        acc = cand;
        acc_coef.swap(cand_coef);
        cand_coef.assign(n_res, 0.0);
        q[0] = 1.0;
      } else {
        double lcov = 0.0;
        for (std::size_t j = 0; j < n_res; ++j)
          lcov += acc_coef[j] * cand_coef[j];
        const ClarkMax m = clark_max(acc, cand, lcov);
        const double t = m.tightness_a;
        for (std::size_t j = 0; j < pi; ++j) q[j] *= t;
        q[pi] = 1.0 - t;
        for (std::size_t j = 0; j < n_res; ++j)
          acc_coef[j] = t * acc_coef[j] + (1.0 - t) * cand_coef[j];
        acc = m.value;
      }
    }

    double mix_var = 0.0;
    for (std::size_t j = 0; j < n_res; ++j)
      mix_var += acc_coef[j] * acc_coef[j];
    const double deficit = acc.local_ps * acc.local_ps - mix_var;
    acc_coef[arc_total + gi] = std::sqrt(std::max(deficit, 0.0));
    acc.local_ps = std::sqrt(mix_var + std::max(deficit, 0.0));

    SlewSensitivity merged;
    std::vector<double> merged_coef(n_res, 0.0);
    for (std::size_t pi = 0; pi < n; ++pi) {
      merged.a_focus_ps += q[pi] * cand_slew[pi].a_focus_ps;
      merged.a_global_ps += q[pi] * cand_slew[pi].a_global_ps;
      const std::vector<double>& cs_c = cand_slew_coef[pi];
      for (std::size_t j = 0; j < n_res; ++j)
        merged_coef[j] += q[pi] * cs_c[j];
    }
    double merged_var = 0.0;
    for (std::size_t j = 0; j < n_res; ++j)
      merged_var += merged_coef[j] * merged_coef[j];
    merged.local_ps = std::sqrt(merged_var);

    arrival[gate.output_net] = acc;
    slew_sens[gate.output_net] = merged;
    arr_coef[gate.output_net] = std::move(acc_coef);
    slew_coef[gate.output_net] = std::move(merged_coef);

    for (std::size_t in_net : gate.fanin_nets) {
      if (--readers_left[in_net] > 0 || nl.nets()[in_net].is_primary_output)
        continue;
      arr_coef[in_net] = std::vector<double>();
      slew_coef[in_net] = std::vector<double>();
    }
  }

  SstaResult out;
  for (std::size_t ni = 0; ni < n_nets; ++ni)
    if (nl.nets()[ni].is_primary_output) out.po_nets.push_back(ni);
  out.po_tightness.assign(out.po_nets.size(), 0.0);
  out.critical = arrival[out.po_nets[0]];
  std::vector<double> crit_coef = arr_coef[out.po_nets[0]].empty()
                                      ? zeros
                                      : arr_coef[out.po_nets[0]];
  out.po_tightness[0] = 1.0;
  for (std::size_t i = 1; i < out.po_nets.size(); ++i) {
    const CanonicalDelay& cand = arrival[out.po_nets[i]];
    const std::vector<double>& cand_coef = arr_coef[out.po_nets[i]].empty()
                                               ? zeros
                                               : arr_coef[out.po_nets[i]];
    double lcov = 0.0;
    for (std::size_t j = 0; j < n_res; ++j)
      lcov += crit_coef[j] * cand_coef[j];
    const ClarkMax m = clark_max(out.critical, cand, lcov);
    const double t = m.tightness_a;
    for (std::size_t j = 0; j < i; ++j) out.po_tightness[j] *= t;
    out.po_tightness[i] = 1.0 - t;
    for (std::size_t j = 0; j < n_res; ++j)
      crit_coef[j] = t * crit_coef[j] + (1.0 - t) * cand_coef[j];
    out.critical = m.value;
  }

  out.arrival = std::move(arrival);
  out.slew_sens = std::move(slew_sens);
  out.gate_pin_tightness = std::move(gate_pin_tightness);
  return out;
}

}  // namespace sva
