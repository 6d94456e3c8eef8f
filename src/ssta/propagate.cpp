#include "ssta/propagate.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "core/scales.hpp"
#include "sta/scale.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"

namespace sva {

namespace {

/// sqrt(Var(f^2)) for f ~ U(-1,1): E[f^4] - E[f^2]^2 = 1/5 - 1/9.
const double kFocusSigma = std::sqrt(4.0 / 45.0);

/// Mean of f^2 for f ~ U(-1,1).
constexpr double kFocusMean = 1.0 / 3.0;

std::vector<std::vector<CanonicalDelay>> build_factors(
    const Netlist& netlist, const ContextLibrary& context,
    const std::vector<VersionKey>& versions, const SstaVariationModel& model,
    const ContextCache* cache) {
  model.budget.validate();
  SVA_REQUIRE(model.global_share >= 0.0 && model.global_share <= 1.0);
  const std::vector<std::vector<ArcAnnotation>> annotations = annotate_arcs(
      netlist, context, versions, model.budget, model.policy, 0.0, nullptr,
      cache);

  const Nm l_nom = netlist.library().master(0).tech().gate_length;
  const Nm lvar_focus = model.budget.lvar_focus(l_nom);
  // Same residual decomposition as ContextAwareSampler, optionally split
  // into a chip-global and a local part (3-sigma = residual half-range).
  const Nm sigma_residual = (model.budget.total(l_nom) -
                             model.budget.lvar_pitch(l_nom) - lvar_focus) /
                            3.0;
  const Nm sigma_global = sigma_residual * model.global_share;
  const Nm sigma_local = sigma_residual * (1.0 - model.global_share);

  std::vector<std::vector<CanonicalDelay>> factors(annotations.size());
  for (std::size_t gi = 0; gi < annotations.size(); ++gi) {
    factors[gi].resize(annotations[gi].size());
    for (std::size_t ai = 0; ai < annotations[gi].size(); ++ai) {
      const ArcAnnotation& ann = annotations[gi][ai];
      Nm s = 0.0;  // signed through-focus excursion of this arc class
      switch (ann.arc_class) {
        case ArcClass::Smile:
          s = +lvar_focus;
          break;
        case ArcClass::Frown:
          s = -lvar_focus;
          break;
        case ArcClass::SelfCompensated:
          s = 0.0;
          break;
      }
      CanonicalDelay& f = factors[gi][ai];
      f.mean_ps = (ann.l_nom_new + s * kFocusMean) / l_nom;
      f.a_focus_ps = s * kFocusSigma / l_nom;
      f.a_global_ps = sigma_global / l_nom;
      f.local_ps = sigma_local / l_nom;
    }
  }
  return factors;
}

std::vector<std::vector<double>> mean_factor_matrix(
    const std::vector<std::vector<CanonicalDelay>>& factors) {
  std::vector<std::vector<double>> out(factors.size());
  for (std::size_t gi = 0; gi < factors.size(); ++gi) {
    out[gi].resize(factors[gi].size());
    for (std::size_t ai = 0; ai < factors[gi].size(); ++ai)
      out[gi][ai] = factors[gi][ai].mean_ps;
  }
  return out;
}

/// acc := acc U add (both ascending, duplicate-free); `tmp` is scratch.
void union_into(std::vector<std::uint32_t>& acc,
                const std::vector<std::uint32_t>& add,
                std::vector<std::uint32_t>& tmp) {
  tmp.clear();
  std::set_union(acc.begin(), acc.end(), add.begin(), add.end(),
                 std::back_inserter(tmp));
  acc.swap(tmp);
}

/// Spread the values of a sub-support onto a support that contains it:
/// out[k] is the value at slots[k], 0 where `sub` has no entry.
void scatter(const std::vector<std::uint32_t>& slots,
             const std::vector<std::uint32_t>& sub,
             const std::vector<double>& values, std::vector<double>& out) {
  out.assign(slots.size(), 0.0);
  std::size_t k = 0;
  for (std::size_t i = 0; i < sub.size(); ++i) {
    while (slots[k] != sub[i]) ++k;
    out[k] = values[i];
  }
}

/// Position of a slot known to be in an ascending support.
std::size_t position_of(const std::vector<std::uint32_t>& slots,
                        std::size_t slot) {
  return static_cast<std::size_t>(
      std::lower_bound(slots.begin(), slots.end(), slot) - slots.begin());
}

}  // namespace

SstaEngine::SstaEngine(const Netlist& netlist,
                       const CharacterizedLibrary& library,
                       const ContextLibrary& context,
                       const std::vector<VersionKey>& versions,
                       const SstaVariationModel& model,
                       const StaConfig& config, const ContextCache* cache)
    : netlist_(&netlist),
      config_(config),
      factors_(build_factors(netlist, context, versions, model, cache)),
      sta_(netlist, library, config),
      base_(sta_.run(MatrixScale(mean_factor_matrix(factors_)))) {
  // Same level buckets Sta builds; rebuilt here because Sta keeps its
  // copy private and the two engines must partition work identically.
  const std::vector<std::size_t> level = netlist.gate_levels();
  std::size_t max_level = 0;
  for (std::size_t gi : netlist.topological_order())
    max_level = std::max(max_level, level[gi]);
  levels_.resize(netlist.gates().empty() ? 0 : max_level + 1);
  for (std::size_t gi : netlist.topological_order())
    levels_[level[gi]].push_back(gi);

  // Residual index space: one slot per (gate, master-arc) CD residual,
  // then one max-noise slot per gate.
  res_offset_.resize(factors_.size());
  for (std::size_t gi = 0; gi < factors_.size(); ++gi) {
    res_offset_[gi] = arc_total_;
    arc_total_ += factors_[gi].size();
  }
  SVA_REQUIRE_MSG(arc_total_ + factors_.size() <=
                      std::numeric_limits<std::uint32_t>::max(),
                  "too many SSTA residual slots");

  // Liveness: a net's coefficients are last read on the level of its
  // last sink (its driver's level when it has none).  Primary inputs
  // carry no residuals, and POs feed the chip fold after the last level.
  release_.resize(levels_.size());
  for (std::size_t ni = 0; ni < netlist.nets().size(); ++ni) {
    const Net& net = netlist.nets()[ni];
    if (net.is_primary_input() || net.is_primary_output) continue;
    std::size_t last = level[net.driver_gate];
    for (const NetSink& sink : net.sinks)
      last = std::max(last, level[sink.gate]);
    release_[last].push_back(ni);
  }

  MetricsRegistry& metrics = MetricsRegistry::global();
  propagate_timer_ = &metrics.timer("ssta.propagate");
  coef_peak_ = &metrics.counter("ssta.coef_entries_peak");
}

const CanonicalDelay& SstaEngine::arc_factor(std::size_t gate,
                                             std::size_t arc_index) const {
  SVA_REQUIRE(gate < factors_.size());
  SVA_REQUIRE(arc_index < factors_[gate].size());
  return factors_[gate][arc_index];
}

void SstaEngine::evaluate_gate(std::size_t gi, State& st) const {
  const Netlist& nl = *netlist_;
  const GateInst& gate = nl.gates()[gi];
  const std::vector<const CharacterizedArc*>& arcs =
      sta_.cell_arcs(gate.cell_index);
  const double load = sta_.net_load_ff(gate.output_net);
  const std::size_t n = gate.fanin_nets.size();

  // The gate's support: its arc slots, its max-noise slot and every
  // fanin support, ascending.  Every coefficient below is exactly 0
  // outside it, so each loop runs over the support alone and still adds
  // the same nonzero terms in the same ascending-slot order.
  std::vector<std::uint32_t> slots;
  slots.reserve(n + 1);
  for (std::size_t pi = 0; pi < n; ++pi)
    slots.push_back(static_cast<std::uint32_t>(
        res_offset_[gi] + arcs[pi]->arc_index));
  slots.push_back(static_cast<std::uint32_t>(arc_total_ + gi));
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  std::vector<std::uint32_t> tmp;
  for (std::size_t in_net : gate.fanin_nets)
    union_into(slots, st.coef[in_net].slots, tmp);
  const std::size_t m = slots.size();

  CanonicalDelay acc;
  std::vector<double>& q = st.gate_pin_tightness[gi];
  q.assign(n, 0.0);
  std::vector<SlewSensitivity> cand_slew(n);
  std::vector<double> acc_coef(m, 0.0);
  std::vector<double> cand_coef(m, 0.0);
  std::vector<std::vector<double>> cand_slew_coef(n);

  for (std::size_t pi = 0; pi < n; ++pi) {
    const std::size_t in_net = gate.fanin_nets[pi];
    const CharacterizedArc& arc = *arcs[pi];
    const CanonicalDelay& fac = factors_[gi][arc.arc_index];
    const CanonicalDelay& ain = st.arrival[in_net];
    const SlewSensitivity& sin = st.slew_sens[in_net];

    // Operating point: the deterministic mean-state slew of the fanin
    // net.  Finite-difference derivatives carry slew variation to first
    // order through the NLDM tables.
    const double s0 = base_.slew_ps[in_net];
    const double d0 = arc.nldm.delay_ps(s0, load);
    const double so0 = arc.nldm.output_slew_ps(s0, load);
    const double ds = std::max(0.5, 0.05 * s0);
    const double dd_dslew =
        (arc.nldm.delay_ps(s0 + ds, load) - arc.nldm.delay_ps(s0 - ds, load)) /
        (2.0 * ds);
    const double dso_dslew = (arc.nldm.output_slew_ps(s0 + ds, load) -
                              arc.nldm.output_slew_ps(s0 - ds, load)) /
                             (2.0 * ds);

    const double wire_delay =
        config_.wire_delay_per_sink_ps *
        static_cast<double>(nl.nets()[in_net].sinks.size());

    // Arrival candidate: fanin arrival + wire + factor * table delay,
    // with the slew chain folded in (k = d(delay)/d(slew) at the mean
    // factor).  Shared variables (focus, global) chain linearly; the
    // local term chains as coefficients over the independent residuals,
    // so every correlation -- the fanin's slew/arrival overlap,
    // reconvergent fanin cones, this arc's fresh residual scaling both
    // delay and output slew -- is carried exactly.
    const double k = fac.mean_ps * dd_dslew;
    const double ks = fac.mean_ps * dso_dslew;
    const std::size_t rid =
        position_of(slots, res_offset_[gi] + arc.arc_index);

    CanonicalDelay cand;
    cand.mean_ps = ain.mean_ps + wire_delay + fac.mean_ps * d0;
    cand.a_focus_ps = ain.a_focus_ps + fac.a_focus_ps * d0 + k * sin.a_focus_ps;
    cand.a_global_ps =
        ain.a_global_ps + fac.a_global_ps * d0 + k * sin.a_global_ps;
    // Output-slew candidate, same first-order chain.
    SlewSensitivity& cs = cand_slew[pi];
    cs.a_focus_ps = fac.a_focus_ps * so0 + ks * sin.a_focus_ps;
    cs.a_global_ps = fac.a_global_ps * so0 + ks * sin.a_global_ps;

    // One pass over the gate support builds both candidates' coefficients
    // (the fanin's are 0 where its own support has no entry) and, for the
    // Clark fold below, the local covariance with the incumbent: the
    // exact dot product of their residual coefficients (the incumbent's
    // unassigned max-noise part is independent of the candidate, so it
    // rightly contributes nothing).
    const NetCoef& in_c = st.coef[in_net];
    std::vector<double>& cs_c = cand_slew_coef[pi];
    cs_c.resize(m);
    double cand_var = 0.0;
    double cs_var = 0.0;
    double lcov = 0.0;
    std::size_t p = 0;
    for (std::size_t j = 0; j < m; ++j) {
      double a = 0.0;
      double s = 0.0;
      if (p < in_c.slots.size() && in_c.slots[p] == slots[j]) {
        a = in_c.arr[p];
        s = in_c.slew[p];
        ++p;
      }
      double c = a + k * s;
      double cs_j = ks * s;
      if (j == rid) {
        c += fac.local_ps * d0;
        cs_j += fac.local_ps * so0;
      }
      cand_coef[j] = c;
      cand_var += c * c;
      cs_c[j] = cs_j;
      cs_var += cs_j * cs_j;
      lcov += acc_coef[j] * c;
    }
    cand.local_ps = std::sqrt(cand_var);
    cs.local_ps = std::sqrt(cs_var);

    // Left-fold Clark max in pin order; the fold updates the selection
    // probabilities so they sum to exactly 1.
    if (pi == 0) {
      acc = cand;
      acc_coef.swap(cand_coef);
      q[0] = 1.0;
    } else {
      const ClarkMax cm = clark_max(acc, cand, lcov);
      const double t = cm.tightness_a;
      for (std::size_t j = 0; j < pi; ++j) q[j] *= t;
      q[pi] = 1.0 - t;
      for (std::size_t j = 0; j < m; ++j)
        acc_coef[j] = t * acc_coef[j] + (1.0 - t) * cand_coef[j];
      acc = cm.value;
    }
  }

  // The tightness-blended coefficients under-count the Clark-matched
  // variance (max of two forms is noisier than their blend); park the
  // deficit in this gate's own max-noise slot so downstream consumers
  // see it as a shared -- not independent -- residual.
  double mix_var = 0.0;
  for (std::size_t j = 0; j < m; ++j) mix_var += acc_coef[j] * acc_coef[j];
  const double deficit = acc.local_ps * acc.local_ps - mix_var;
  acc_coef[position_of(slots, arc_total_ + gi)] =
      std::sqrt(std::max(deficit, 0.0));
  acc.local_ps = std::sqrt(mix_var + std::max(deficit, 0.0));

  // Merged output slew: tightness-weighted blend of the per-pin slews
  // (first-order moment matching of the selected slew), componentwise on
  // the residual coefficients so downstream correlation survives the
  // merge.
  SlewSensitivity merged;
  std::vector<double> merged_coef(m, 0.0);
  for (std::size_t pi = 0; pi < n; ++pi) {
    merged.a_focus_ps += q[pi] * cand_slew[pi].a_focus_ps;
    merged.a_global_ps += q[pi] * cand_slew[pi].a_global_ps;
    const std::vector<double>& cs_c = cand_slew_coef[pi];
    for (std::size_t j = 0; j < m; ++j) merged_coef[j] += q[pi] * cs_c[j];
  }
  double merged_var = 0.0;
  for (std::size_t j = 0; j < m; ++j)
    merged_var += merged_coef[j] * merged_coef[j];
  merged.local_ps = std::sqrt(merged_var);

  st.arrival[gate.output_net] = acc;
  st.slew_sens[gate.output_net] = merged;
  NetCoef& out = st.coef[gate.output_net];
  out.slots = std::move(slots);
  out.arr = std::move(acc_coef);
  out.slew = std::move(merged_coef);
}

SstaResult SstaEngine::finalize(State st) const {
  const Netlist& nl = *netlist_;
  SstaResult out;

  // Chip max: fold over primary outputs in net-index order (serial, so
  // the result is identical no matter how the forward pass was split).
  // Endpoints share most of their cones, so the fold carries the same
  // exact local covariance the per-gate merges use, over the union of
  // the PO supports.
  for (std::size_t ni = 0; ni < nl.nets().size(); ++ni)
    if (nl.nets()[ni].is_primary_output) out.po_nets.push_back(ni);
  SVA_REQUIRE_MSG(!out.po_nets.empty(), "netlist has no primary outputs");

  std::vector<std::uint32_t> slots;
  std::vector<std::uint32_t> tmp;
  for (std::size_t po : out.po_nets) union_into(slots, st.coef[po].slots, tmp);
  const std::size_t m = slots.size();

  out.po_tightness.assign(out.po_nets.size(), 0.0);
  out.critical = st.arrival[out.po_nets[0]];
  std::vector<double> crit_coef;
  std::vector<double> cand_coef;
  scatter(slots, st.coef[out.po_nets[0]].slots, st.coef[out.po_nets[0]].arr,
          crit_coef);
  out.po_tightness[0] = 1.0;
  for (std::size_t i = 1; i < out.po_nets.size(); ++i) {
    const CanonicalDelay& cand = st.arrival[out.po_nets[i]];
    const NetCoef& cand_c = st.coef[out.po_nets[i]];
    scatter(slots, cand_c.slots, cand_c.arr, cand_coef);
    double lcov = 0.0;
    for (std::size_t j = 0; j < m; ++j) lcov += crit_coef[j] * cand_coef[j];
    const ClarkMax cm = clark_max(out.critical, cand, lcov);
    const double t = cm.tightness_a;
    for (std::size_t j = 0; j < i; ++j) out.po_tightness[j] *= t;
    out.po_tightness[i] = 1.0 - t;
    for (std::size_t j = 0; j < m; ++j)
      crit_coef[j] = t * crit_coef[j] + (1.0 - t) * cand_coef[j];
    out.critical = cm.value;
  }

  out.arrival = std::move(st.arrival);
  out.slew_sens = std::move(st.slew_sens);
  out.gate_pin_tightness = std::move(st.gate_pin_tightness);
  return out;
}

SstaResult SstaEngine::propagate(ThreadPool* pool,
                                 const CancelToken* cancel) const {
  SVA_FAILPOINT("ssta.propagate");
  const ScopedTimer timer(*propagate_timer_);
  const Netlist& nl = *netlist_;
  State st;
  st.arrival.assign(nl.nets().size(), CanonicalDelay{});
  st.slew_sens.assign(nl.nets().size(), SlewSensitivity{});
  st.gate_pin_tightness.resize(nl.gates().size());
  st.coef.resize(nl.nets().size());

  // A gate evaluation walks its whole cone support (hundreds to
  // thousands of slots, tens of us) -- far above the ~us STA gate that
  // Sta's 64-gate grain is sized for -- so levels split into small
  // tasks.  Each gate writes only its own output net, so the split
  // never changes a bit.
  constexpr std::size_t kGrain = 4;
  std::size_t live = 0;
  std::size_t peak = 0;
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const std::vector<std::size_t>& level = levels_[l];
    if (cancel) cancel->check();
    if (pool == nullptr || pool->thread_count() == 0 ||
        level.size() < 2 * kGrain) {
      for (std::size_t gi : level) evaluate_gate(gi, st);
    } else {
      pool->parallel_for(
          0, level.size(), [&](std::size_t i) { evaluate_gate(level[i], st); },
          kGrain);
    }
    // Serial step between levels: count the new lists, then free those
    // no later level reads.
    for (std::size_t gi : level)
      live += st.coef[nl.gates()[gi].output_net].slots.size();
    peak = std::max(peak, live);
    for (std::size_t ni : release_[l]) {
      live -= st.coef[ni].slots.size();
      st.coef[ni] = NetCoef{};
    }
  }
  coef_peak_->add(peak);
  return finalize(std::move(st));
}

SstaResult SstaEngine::run() const { return propagate(nullptr, nullptr); }

SstaResult SstaEngine::run_parallel(ThreadPool& pool,
                                    const CancelToken* cancel) const {
  return propagate(&pool, cancel);
}

}  // namespace sva
