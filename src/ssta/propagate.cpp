#include "ssta/propagate.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
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

/// Per-thread scratch of the gate kernel and the PO fold.  `bits` holds
/// one bit per residual slot, `pos` each slot's position in the support
/// being built, `slots` the support extracted from the bits, `row` a
/// candidate's coefficients by position, and `pins` the current gate's
/// per-pin slew terms.  Between uses `bits` and `row` are all zero.  All
/// growth happens in reserve(), before any bit is marked; the caller
/// allocates its outputs only after extract() has cleared the bits, and
/// nothing between writing `row` and blending it back to zero can throw,
/// so an exception (bad_alloc included) never leaves stale state for the
/// next gate on the thread.  Size is bounded by the largest residual space
/// and support the thread has seen: ~4.1 bytes per residual slot (bitmap
/// plus 32-bit position) and 12 bytes per support entry (slot plus
/// candidate coefficient); pool workers keep theirs for the thread's life.
struct KernelScratch {
  /// One fanin pin's output-slew candidate: its shared sensitivities and
  /// what its residual coefficients are built from (ks times the fanin's
  /// slew coefficients, plus cs_rid at the arc's own residual slot).
  struct Pin {
    double a_focus_ps = 0.0;
    double a_global_ps = 0.0;
    double ks = 0.0;  ///< d(output slew)/d(input slew) at the mean factor
    double cs_rid = 0.0;
    std::uint32_t rid = 0;
  };

  std::vector<std::uint64_t> bits;
  std::vector<std::uint32_t> pos;
  std::vector<std::uint32_t> slots;
  std::vector<double> row;
  std::vector<Pin> pins;

  /// Room for a residual space of `space` slots, supports of up to
  /// `support` entries and `n_pins` fanin pins.
  void reserve(std::size_t space, std::size_t support, std::size_t n_pins) {
    if (pos.size() < space) {
      bits.resize((space + 63) / 64, 0);
      pos.resize(space);
    }
    support = std::min(support, space);
    if (slots.size() < support) {
      slots.resize(support);
      row.resize(support, 0.0);
    }
    if (pins.size() < n_pins) pins.resize(n_pins);
  }

  void mark(std::uint32_t slot) {
    bits[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }

  /// Mark an ascending slot list and widen [lo, hi] to cover it, one
  /// store per bitmap word it touches (dense supports put dozens of slots
  /// in a word; a read-modify-write per slot would chain through store
  /// forwarding).
  void mark_list(const std::vector<std::uint32_t>& list, std::uint32_t& lo,
                 std::uint32_t& hi) {
    if (list.empty()) return;
    lo = std::min(lo, list.front());
    hi = std::max(hi, list.back());
    std::size_t w = list.front() >> 6;
    std::uint64_t word = 0;
    for (std::uint32_t slot : list) {
      if ((slot >> 6) != w) {
        bits[w] |= word;
        word = 0;
        w = slot >> 6;
      }
      word |= std::uint64_t{1} << (slot & 63);
    }
    bits[w] |= word;
  }

  /// Move the marked slots of words lo/64 .. hi/64 into `slots`
  /// ascending, record each one's position in `pos` and clear the bits.
  /// Returns the support size.
  std::size_t extract(std::uint32_t lo, std::uint32_t hi) {
    std::size_t m = 0;
    for (std::size_t w = lo >> 6; w <= (hi >> 6); ++w) {
      std::uint64_t word = bits[w];
      bits[w] = 0;
      for (; word != 0; word &= word - 1) {
        const auto slot = static_cast<std::uint32_t>(
            (w << 6) | static_cast<std::size_t>(std::countr_zero(word)));
        pos[slot] = static_cast<std::uint32_t>(m);
        slots[m++] = slot;
      }
    }
    return m;
  }
};

thread_local KernelScratch t_scratch;

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
  const std::vector<std::size_t>& level = sta_.gate_levels();
  release_.resize(sta_.levels().size());
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
  const auto noise = static_cast<std::uint32_t>(arc_total_ + gi);

  // The gate's support: its arc slots, its max-noise slot and every
  // fanin support, OR-ed into the thread's bitmap and read back
  // ascending.  Every coefficient below is exactly 0 outside it, and
  // pos[] maps each support slot to its position, so a fanin's entries
  // land by index.
  KernelScratch& sc = t_scratch;
  std::size_t bound = n + 1;
  for (std::size_t in_net : gate.fanin_nets)
    bound += st.coef[in_net].slots.size();
  sc.reserve(arc_total_ + factors_.size(), bound, n);
  std::uint32_t lo = noise;
  std::uint32_t hi = noise;
  sc.mark(noise);
  for (std::size_t pi = 0; pi < n; ++pi) {
    const auto rid =
        static_cast<std::uint32_t>(res_offset_[gi] + arcs[pi]->arc_index);
    sc.mark(rid);
    lo = std::min(lo, rid);
  }
  for (std::size_t in_net : gate.fanin_nets)
    sc.mark_list(st.coef[in_net].slots, lo, hi);
  const std::size_t m = sc.extract(lo, hi);

  NetCoef out;
  out.slots.assign(sc.slots.begin(),
                   sc.slots.begin() + static_cast<std::ptrdiff_t>(m));
  out.arr.assign(m, 0.0);
  out.slew.assign(m, 0.0);
  double* const acc_c = out.arr.data();
  double* const merged_c = out.slew.data();
  double* const row = sc.row.data();
  const std::uint32_t* const pos = sc.pos.data();

  CanonicalDelay acc;
  std::vector<double>& q = st.gate_pin_tightness[gi];
  q.assign(n, 0.0);
  double last_t = 1.0;  // the last pin's tightness; its blend runs below

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

    CanonicalDelay cand;
    cand.mean_ps = ain.mean_ps + wire_delay + fac.mean_ps * d0;
    cand.a_focus_ps = ain.a_focus_ps + fac.a_focus_ps * d0 + k * sin.a_focus_ps;
    cand.a_global_ps =
        ain.a_global_ps + fac.a_global_ps * d0 + k * sin.a_global_ps;
    // Output-slew candidate, same first-order chain; its residual
    // coefficients are spread onto the merged slew below.
    KernelScratch::Pin& pin = sc.pins[pi];
    pin.a_focus_ps = fac.a_focus_ps * so0 + ks * sin.a_focus_ps;
    pin.a_global_ps = fac.a_global_ps * so0 + ks * sin.a_global_ps;
    pin.ks = ks;
    pin.rid = static_cast<std::uint32_t>(res_offset_[gi] + arc.arc_index);

    // The candidate is nonzero only on the fanin's support plus the
    // arc's own residual, which no fanin cone contains; it sits between
    // the fanin entries below and above it.
    const NetCoef& in_c = st.coef[in_net];
    const std::size_t split = static_cast<std::size_t>(
        std::lower_bound(in_c.slots.begin(), in_c.slots.end(), pin.rid) -
        in_c.slots.begin());
    SVA_ASSERT(split == in_c.slots.size() || in_c.slots[split] != pin.rid);

    // One sweep over those entries, ascending, scatters the candidate's
    // coefficients by position and sums its variance and, for the Clark
    // fold below, the local covariance with the incumbent: the exact dot
    // product of their residual coefficients (the incumbent's unassigned
    // max-noise part is independent of the candidate, so it rightly
    // contributes nothing).  The first candidate is written straight into
    // the all-zero incumbent row, later ones into the thread's zero row.
    // Every slot skipped holds an exact 0 in the candidate, so its terms
    // are the +-0 the dense sums add to a +0-started accumulator: the
    // sums keep their bits.
    double* const c_row = pi == 0 ? acc_c : row;
    double cand_var = 0.0;
    double lcov = 0.0;
    const auto sweep = [&](std::size_t p0, std::size_t p1) {
      for (std::size_t p = p0; p < p1; ++p) {
        const std::uint32_t j = pos[in_c.slots[p]];
        const double s = in_c.slew[p];
        const double c = in_c.arr[p] + k * s;
        const double incumbent = acc_c[j];
        c_row[j] = c;
        cand_var += c * c;
        lcov += incumbent * c;
      }
    };
    sweep(0, split);
    {
      // The fanin's terms at the arc's own slot are the zeros the dense
      // form adds before the arc's contribution.
      const std::uint32_t j = pos[pin.rid];
      const double c = (0.0 + k * 0.0) + fac.local_ps * d0;
      pin.cs_rid = ks * 0.0 + fac.local_ps * so0;
      const double incumbent = acc_c[j];
      c_row[j] = c;
      cand_var += c * c;
      lcov += incumbent * c;
    }
    sweep(split, in_c.slots.size());
    cand.local_ps = std::sqrt(cand_var);

    // Left-fold Clark max in pin order; the fold updates the selection
    // probabilities so they sum to exactly 1.  The incumbent row takes
    // the tightness blend now, except after the last pin, whose blend is
    // fused into the final pass.
    if (pi == 0) {
      acc = cand;
      q[0] = 1.0;
    } else {
      const ClarkMax cm = clark_max(acc, cand, lcov);
      const double t = cm.tightness_a;
      for (std::size_t j = 0; j < pi; ++j) q[j] *= t;
      q[pi] = 1.0 - t;
      acc = cm.value;
      last_t = t;
      if (pi + 1 < n) {
        const double u = 1.0 - t;
        for (std::size_t j = 0; j < m; ++j) {
          acc_c[j] = t * acc_c[j] + u * row[j];
          row[j] = 0.0;
        }
      }
    }
  }

  // Merged output slew: tightness-weighted blend of the per-pin slews
  // (first-order moment matching of the selected slew), componentwise on
  // the residual coefficients so downstream correlation survives the
  // merge.  Each pin adds onto its own entries in pin order; the slots it
  // skips would add +-0 to a sum that started at +0, which cannot move it.
  SlewSensitivity merged;
  for (std::size_t pi = 0; pi < n; ++pi) {
    const KernelScratch::Pin& pin = sc.pins[pi];
    const double w = q[pi];
    merged.a_focus_ps += w * pin.a_focus_ps;
    merged.a_global_ps += w * pin.a_global_ps;
    const double ks = pin.ks;
    const NetCoef& in_c = st.coef[gate.fanin_nets[pi]];
    for (std::size_t p = 0; p < in_c.slots.size(); ++p)
      merged_c[pos[in_c.slots[p]]] += w * (ks * in_c.slew[p]);
    merged_c[pos[pin.rid]] += w * pin.cs_rid;
  }

  // One dense pass: the last pin's blend (which also returns the zero
  // row), then both rows' sums of squares, each in ascending slot order.
  // The tightness-blended coefficients under-count the Clark-matched
  // variance (max of two forms is noisier than their blend); park the
  // deficit in this gate's own max-noise slot so downstream consumers
  // see it as a shared -- not independent -- residual.
  double mix_var = 0.0;
  double merged_var = 0.0;
  if (n >= 2) {
    const double t = last_t;
    const double u = 1.0 - t;
    for (std::size_t j = 0; j < m; ++j) {
      acc_c[j] = t * acc_c[j] + u * row[j];
      row[j] = 0.0;
      mix_var += acc_c[j] * acc_c[j];
      merged_var += merged_c[j] * merged_c[j];
    }
  } else {
    for (std::size_t j = 0; j < m; ++j) {
      mix_var += acc_c[j] * acc_c[j];
      merged_var += merged_c[j] * merged_c[j];
    }
  }
  const double deficit = acc.local_ps * acc.local_ps - mix_var;
  acc_c[pos[noise]] = std::sqrt(std::max(deficit, 0.0));
  acc.local_ps = std::sqrt(mix_var + std::max(deficit, 0.0));
  merged.local_ps = std::sqrt(merged_var);

  st.arrival[gate.output_net] = acc;
  st.slew_sens[gate.output_net] = merged;
  st.coef[gate.output_net] = std::move(out);
}

SstaResult SstaEngine::finalize(State st) const {
  const Netlist& nl = *netlist_;
  SstaResult out;

  // Chip max: fold over primary outputs in net-index order (serial, so
  // the result is identical no matter how the forward pass was split).
  // Endpoints share most of their cones, so the fold carries the same
  // exact local covariance the per-gate merges use, over the union of
  // the PO supports, built and addressed like a gate's.
  for (std::size_t ni = 0; ni < nl.nets().size(); ++ni)
    if (nl.nets()[ni].is_primary_output) out.po_nets.push_back(ni);
  SVA_REQUIRE_MSG(!out.po_nets.empty(), "netlist has no primary outputs");

  KernelScratch& sc = t_scratch;
  std::size_t bound = 0;
  for (std::size_t po : out.po_nets) bound += st.coef[po].slots.size();
  sc.reserve(arc_total_ + factors_.size(), bound, 0);
  std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t hi = 0;
  for (std::size_t po : out.po_nets) sc.mark_list(st.coef[po].slots, lo, hi);
  const std::size_t m = sc.extract(lo, hi);

  std::vector<double> crit_coef(m, 0.0);
  double* const row = sc.row.data();
  const std::uint32_t* const pos = sc.pos.data();
  out.po_tightness.assign(out.po_nets.size(), 0.0);
  out.critical = st.arrival[out.po_nets[0]];
  const NetCoef& first = st.coef[out.po_nets[0]];
  for (std::size_t p = 0; p < first.slots.size(); ++p)
    crit_coef[pos[first.slots[p]]] = first.arr[p];
  out.po_tightness[0] = 1.0;
  for (std::size_t i = 1; i < out.po_nets.size(); ++i) {
    const CanonicalDelay& cand = st.arrival[out.po_nets[i]];
    const NetCoef& cand_c = st.coef[out.po_nets[i]];
    // Covariance over the candidate's own entries (ascending); every
    // other slot adds crit * 0 = +-0 to a sum that started at +0.
    double lcov = 0.0;
    for (std::size_t p = 0; p < cand_c.slots.size(); ++p) {
      const std::uint32_t j = pos[cand_c.slots[p]];
      row[j] = cand_c.arr[p];
      lcov += crit_coef[j] * cand_c.arr[p];
    }
    const ClarkMax cm = clark_max(out.critical, cand, lcov);
    const double t = cm.tightness_a;
    for (std::size_t j = 0; j < i; ++j) out.po_tightness[j] *= t;
    out.po_tightness[i] = 1.0 - t;
    const double u = 1.0 - t;
    for (std::size_t j = 0; j < m; ++j) {
      crit_coef[j] = t * crit_coef[j] + u * row[j];
      row[j] = 0.0;
    }
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
  const std::vector<std::vector<std::size_t>>& levels = sta_.levels();
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const std::vector<std::size_t>& level = levels[l];
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
