#include "sta/sta.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "sta/compiled.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace sva {

Sta::Sta(const Netlist& netlist, const CharacterizedLibrary& library,
         const StaConfig& config)
    : netlist_(&netlist), library_(&library), config_(config) {
  SVA_REQUIRE(library.cells.size() == netlist.library().size());
  SVA_REQUIRE(config.input_slew_ps > 0.0);
  SVA_REQUIRE(config.po_load_ff >= 0.0);
  SVA_REQUIRE(config.wire_cap_per_sink_ff >= 0.0);

  // Resolve every library cell's arcs and pin caps by input-pin position
  // once, so no evaluation path ever allocates pin-name vectors or
  // resolves arcs by string compare again.
  cell_arcs_.resize(library.cells.size());
  cell_pin_caps_.resize(library.cells.size());
  for (std::size_t ci = 0; ci < library.cells.size(); ++ci) {
    const CharacterizedCell& cell = library.cells[ci];
    for (const Pin& pin : cell.master.pins()) {
      if (pin.is_output) continue;
      cell_arcs_[ci].push_back(&cell.arc_for(pin.name));
      cell_pin_caps_[ci].push_back(pin.input_cap_ff);
    }
  }

  // Precompute net loads (sink pin caps + wire + PO load) and per-net
  // wire delays.
  load_cache_.assign(netlist.nets().size(), 0.0);
  wire_delay_cache_.assign(netlist.nets().size(), 0.0);
  for (std::size_t ni = 0; ni < netlist.nets().size(); ++ni) {
    load_cache_[ni] = compute_net_load(ni);
    wire_delay_cache_[ni] =
        config_.wire_delay_per_sink_ps *
        static_cast<double>(netlist.nets()[ni].sinks.size());
    if (netlist.nets()[ni].is_primary_output) po_nets_.push_back(ni);
  }

  // Bucket gates by logic level for the levelized kernel and the dirty
  // buckets.  Also freezes the netlist's topological-order cache up front.
  gate_level_ = netlist.gate_levels();
  std::size_t max_level = 0;
  for (std::size_t gi : netlist.topological_order())
    max_level = std::max(max_level, gate_level_[gi]);
  levels_.resize(netlist.gates().empty() ? 0 : max_level + 1);
  for (std::size_t gi : netlist.topological_order())
    levels_[gate_level_[gi]].push_back(gi);

  compiled_ =
      std::make_unique<CompiledTiming>(netlist, library, config_, levels_);
  compiled_->bind_loads(load_cache_.data(), load_cache_.size());

  MetricsRegistry& metrics = MetricsRegistry::global();
  incr_touched_ = &metrics.counter("sta.kernel.incremental_gates_touched");
  incr_total_ = &metrics.counter("sta.kernel.incremental_gates_total");
}

Sta::~Sta() = default;
Sta::Sta(Sta&&) noexcept = default;
Sta& Sta::operator=(Sta&&) noexcept = default;

double Sta::compute_net_load(std::size_t net_index) const {
  const Netlist& nl = *netlist_;
  const Net& net = nl.nets()[net_index];
  double load =
      config_.wire_cap_per_sink_ff * static_cast<double>(net.sinks.size());
  for (const NetSink& sink : net.sinks) {
    const GateInst& g = nl.gates()[sink.gate];
    const std::vector<double>& caps = cell_pin_caps_[g.cell_index];
    SVA_ASSERT(sink.pin_index < caps.size());
    load += caps[sink.pin_index];
  }
  if (net.is_primary_output) load += config_.po_load_ff;
  return load;
}

double Sta::net_load_ff(std::size_t net) const {
  SVA_REQUIRE(net < load_cache_.size());
  return load_cache_[net];
}

void Sta::update_gate_master(std::size_t gate) {
  SVA_REQUIRE(gate < netlist_->gates().size());
  for (std::size_t net : netlist_->gates()[gate].fanin_nets) {
    load_cache_[net] = compute_net_load(net);
    compiled_->update_net_load(net, load_cache_[net]);
  }
  compiled_->refresh_gate(gate, netlist_->gates()[gate].cell_index);
}

void Sta::WhatIfOverlay::build_index() {
  // stable_sort keeps insertion order among equal keys, so cell_of
  // returns the first-inserted override for a gate.
  std::stable_sort(cells.begin(), cells.end(),
                   [](const GateCellOverride& a, const GateCellOverride& b) {
                     return a.gate < b.gate;
                   });
}

std::size_t Sta::WhatIfOverlay::cell_of(std::size_t gate,
                                        std::size_t base) const {
  const auto it = std::lower_bound(
      cells.begin(), cells.end(), gate,
      [](const GateCellOverride& o, std::size_t g) { return o.gate < g; });
  if (it != cells.end() && it->gate == gate) return it->cell_index;
  return base;
}

const double* Sta::WhatIfOverlay::find_load(std::size_t net) const {
  const auto it = std::lower_bound(
      load.begin(), load.end(), net,
      [](const std::pair<std::size_t, double>& e, std::size_t n) {
        return e.first < n;
      });
  if (it != load.end() && it->first == net) return &it->second;
  return nullptr;
}

double Sta::compute_net_load_overlay(std::size_t net_index,
                                     const WhatIfOverlay& overlay) const {
  const Netlist& nl = *netlist_;
  const Net& net = nl.nets()[net_index];
  double load =
      config_.wire_cap_per_sink_ff * static_cast<double>(net.sinks.size());
  for (const NetSink& sink : net.sinks) {
    const std::size_t cell_index =
        overlay.cell_of(sink.gate, nl.gates()[sink.gate].cell_index);
    load += cell_pin_caps_[cell_index][sink.pin_index];
  }
  if (net.is_primary_output) load += config_.po_load_ff;
  return load;
}

std::pair<double, std::size_t> Sta::worst_po(
    const std::vector<double>& arrival_ps) const {
  SVA_REQUIRE_MSG(!po_nets_.empty(), "netlist has no primary outputs");
  double worst = 0.0;
  std::size_t worst_net = 0;
  for (std::size_t ni : po_nets_) {
    if (arrival_ps[ni] >= worst) {
      worst = arrival_ps[ni];
      worst_net = ni;
    }
  }
  return {worst, worst_net};
}

void Sta::finalize_result(StaResult& result) const {
  const Netlist& nl = *netlist_;
  std::tie(result.critical_delay_ps, result.critical_po_net) =
      worst_po(result.arrival_ps);
  result.critical_path.clear();
  std::size_t net = result.critical_po_net;
  while (net != kNoDriver && !nl.nets()[net].is_primary_input()) {
    const std::size_t gi = nl.nets()[net].driver_gate;
    result.critical_path.push_back(gi);
    net = result.from_net[net];
  }
  std::reverse(result.critical_path.begin(), result.critical_path.end());
}

StaResult Sta::make_result() const {
  const Netlist& nl = *netlist_;
  StaResult result;
  result.arrival_ps.assign(nl.nets().size(), 0.0);
  result.slew_ps.assign(nl.nets().size(), config_.input_slew_ps);
  result.from_net.assign(nl.nets().size(), kNoDriver);
  return result;
}

StaResult Sta::run(const ArcScaleProvider& scale) const {
  StaResult result = make_result();
  std::vector<double> factors;
  compiled_->gather_factors(scale, factors);
  // Serial full pass: levels are laid out back to back, so the whole
  // graph is one contiguous gate-record span.
  compiled_->evaluate_span(0, compiled_->gate_count(), factors.data(),
                           load_cache_.data(), result);
  finalize_result(result);
  return result;
}

StaResult Sta::run_parallel(const ArcScaleProvider& scale, ThreadPool& pool,
                            const CancelToken* cancel) const {
  ScopedTimer timer(MetricsRegistry::global().timer("sta.parallel_run"));
  StaResult result = make_result();
  std::vector<double> factors;
  compiled_->gather_factors(scale, factors);

  // A gate evaluation is a handful of NLDM lookups; chunks well below
  // kGrain gates are pure fork/join overhead, so narrow levels run
  // inline and wide ones split into kGrain-gate tasks.
  constexpr std::size_t kGrain = 64;
  for (const CompiledTiming::LevelSpan& span : compiled_->level_spans()) {
    if (cancel) cancel->check();  // level granularity: ~100s of gates
    const std::size_t width = span.end - span.begin;
    if (pool.thread_count() == 0 || width < 2 * kGrain) {
      compiled_->evaluate_span(span.begin, span.end, factors.data(),
                               load_cache_.data(), result);
      continue;
    }
    pool.parallel_for(
        span.begin, span.end,
        [&](std::size_t g) {
          compiled_->evaluate_span(g, g + 1, factors.data(),
                                   load_cache_.data(), result);
        },
        kGrain);
  }
  finalize_result(result);
  return result;
}

const Sta::WhatIfOverlay* Sta::build_what_if(
    std::span<const GateCellOverride> cell_overrides,
    std::span<const std::size_t> scale_changed_gates, Workspace& ws) const {
  const Netlist& nl = *netlist_;
  ws.seeds.assign(scale_changed_gates.begin(), scale_changed_gates.end());
  if (cell_overrides.empty()) return nullptr;

  WhatIfOverlay& overlay = ws.overlay;
  overlay.cells.assign(cell_overrides.begin(), cell_overrides.end());
  overlay.build_index();
  overlay.load.clear();
  ws.affected_nets.clear();
  for (const GateCellOverride& o : cell_overrides) {
    SVA_REQUIRE(o.gate < nl.gates().size());
    SVA_REQUIRE(o.cell_index < library_->cells.size());
    const GateInst& gate = nl.gates()[o.gate];
    SVA_REQUIRE_MSG(cell_pin_caps_[o.cell_index].size() ==
                        cell_pin_caps_[gate.cell_index].size(),
                    "override master must be pin-compatible");
    ws.seeds.push_back(o.gate);
    // The swap changes the pin caps this gate presents to its fanin
    // nets: those nets' drivers see a different load.
    ws.affected_nets.insert(ws.affected_nets.end(), gate.fanin_nets.begin(),
                            gate.fanin_nets.end());
  }
  std::sort(ws.affected_nets.begin(), ws.affected_nets.end());
  ws.affected_nets.erase(
      std::unique(ws.affected_nets.begin(), ws.affected_nets.end()),
      ws.affected_nets.end());
  for (std::size_t net : ws.affected_nets) {
    // Recompute the load from scratch under the overlay rather than
    // patching the cache with a delta: the fresh summation is the exact
    // double a committed set_gate_cell would produce.
    const double load = compute_net_load_overlay(net, overlay);
    if (load == load_cache_[net]) continue;  // e.g. same-cap variant
    overlay.load.emplace_back(net, load);
    if (!nl.nets()[net].is_primary_input())
      ws.seeds.push_back(nl.nets()[net].driver_gate);
  }
  return &overlay;
}

void Sta::propagate(const ArcScaleProvider& scale,
                    std::span<const std::size_t> seeds,
                    const WhatIfOverlay* overlay, StaResult& timing,
                    Workspace& ws, bool record_undo) const {
  const Netlist& nl = *netlist_;
  const std::size_t n_gates = nl.gates().size();
  SVA_REQUIRE(timing.arrival_ps.size() == nl.nets().size());
  SVA_REQUIRE(timing.slew_ps.size() == nl.nets().size());
  SVA_REQUIRE(timing.from_net.size() == nl.nets().size());

  if (ws.stamp.size() != n_gates || ws.buckets.size() != levels_.size()) {
    ws.stamp.assign(n_gates, 0);
    ws.buckets.assign(levels_.size(), {});
    ws.epoch = 0;
  }
  if (++ws.epoch == 0) {  // wrapped: no stale stamp may equal the epoch
    std::fill(ws.stamp.begin(), ws.stamp.end(), 0);
    ws.epoch = 1;
  }
  // Buckets are emptied here rather than as they drain, so a call that
  // threw part-way leaves nothing behind either.
  for (std::vector<std::uint32_t>& bucket : ws.buckets) bucket.clear();
  ws.undo.clear();

  // Level-bucket dirty walk: every push targets a strictly higher level
  // than the gate that caused it (a sink of its output net), and gates of
  // one level never read each other's outputs.  So visiting the buckets
  // in ascending level order evaluates every dirty gate after all dirty
  // gates that could affect its fanins -- the same dataflow order as a
  // full topological scan, without visiting the O(V) clean gates.
  std::size_t lo = levels_.size();  // lowest dirty level
  std::size_t end = 0;              // one past the highest dirty level
  const auto mark = [&](std::size_t gi) {
    if (ws.stamp[gi] == ws.epoch) return;
    ws.stamp[gi] = ws.epoch;
    const std::size_t level = gate_level_[gi];
    ws.buckets[level].push_back(static_cast<std::uint32_t>(gi));
    lo = std::min(lo, level);
    end = std::max(end, level + 1);
  };
  for (std::size_t gi : seeds) {
    SVA_REQUIRE(gi < n_gates);
    mark(gi);
  }

  std::size_t touched = 0;
  for (std::size_t level = lo; level < end; ++level) {
    for (const std::uint32_t gi : ws.buckets[level]) {
      ++touched;
      const GateInst& gate = nl.gates()[gi];
      const std::size_t out = gate.output_net;
      const double old_arrival = timing.arrival_ps[out];
      const double old_slew = timing.slew_ps[out];
      if (record_undo)
        ws.undo.push_back({out, old_arrival, old_slew, timing.from_net[out]});
      const std::size_t cell =
          overlay != nullptr ? overlay->cell_of(gi, gate.cell_index)
                             : gate.cell_index;
      const double* load_override =
          overlay != nullptr ? overlay->find_load(out) : nullptr;
      compiled_->evaluate_gate(gi, cell, scale, load_cache_.data(),
                               load_override, timing);
      if (timing.arrival_ps[out] == old_arrival &&
          timing.slew_ps[out] == old_slew)
        continue;  // cone converged: fanout unaffected
      for (const NetSink& sink : nl.nets()[out].sinks) mark(sink.gate);
    }
  }
  incr_touched_->add(touched);
  incr_total_->add(n_gates);
}

void Sta::apply_what_if(const ArcScaleProvider& scale,
                        std::span<const GateCellOverride> cell_overrides,
                        std::span<const std::size_t> scale_changed_gates,
                        StaResult& timing, Workspace& workspace) const {
  const WhatIfOverlay* overlay =
      build_what_if(cell_overrides, scale_changed_gates, workspace);
  propagate(scale, workspace.seeds, overlay, timing, workspace,
            /*record_undo=*/false);
  finalize_result(timing);
}

double Sta::price_what_if(const ArcScaleProvider& scale,
                          std::span<const GateCellOverride> cell_overrides,
                          std::span<const std::size_t> scale_changed_gates,
                          StaResult& mirror, Workspace& workspace) const {
  const WhatIfOverlay* overlay =
      build_what_if(cell_overrides, scale_changed_gates, workspace);
  const auto rollback = [&] {
    for (const Workspace::Undo& u : workspace.undo) {
      mirror.arrival_ps[u.net] = u.arrival;
      mirror.slew_ps[u.net] = u.slew;
      mirror.from_net[u.net] = u.from;
    }
    workspace.undo.clear();
  };
  try {
    propagate(scale, workspace.seeds, overlay, mirror, workspace,
              /*record_undo=*/true);
  } catch (...) {
    rollback();  // a throwing scale provider must not corrupt the mirror
    throw;
  }
  const double critical = worst_po(mirror.arrival_ps).first;
  rollback();
  return critical;
}

StaResult Sta::run_incremental(
    const ArcScaleProvider& scale, const StaResult& previous,
    const std::vector<std::size_t>& changed_gates) const {
  StaResult result = previous;
  Workspace workspace;
  apply_what_if(scale, {}, changed_gates, result, workspace);
  return result;
}

StaResult Sta::run_what_if(
    const ArcScaleProvider& scale, const StaResult& previous,
    const std::vector<GateCellOverride>& cell_overrides,
    const std::vector<std::size_t>& scale_changed_gates) const {
  StaResult result = previous;
  Workspace workspace;
  apply_what_if(scale, cell_overrides, scale_changed_gates, result,
                workspace);
  return result;
}

SlackResult Sta::run_with_slack(const ArcScaleProvider& scale,
                                double clock_period_ps) const {
  return slack_from(scale, run(scale), clock_period_ps);
}

SlackResult Sta::slack_from(const ArcScaleProvider& scale, StaResult timing,
                            double clock_period_ps) const {
  SVA_REQUIRE(clock_period_ps > 0.0);
  const Netlist& nl = *netlist_;
  SVA_REQUIRE(timing.arrival_ps.size() == nl.nets().size());
  SlackResult out;
  out.timing = std::move(timing);

  constexpr double kInf = 1e18;
  out.required_ps.assign(nl.nets().size(), kInf);
  for (std::size_t ni = 0; ni < nl.nets().size(); ++ni)
    if (nl.nets()[ni].is_primary_output)
      out.required_ps[ni] = clock_period_ps;

  // Backward pass in reverse topological order, re-deriving each arc's
  // delay from the forward pass's slews.
  const auto& topo = nl.topological_order();
  for (std::size_t idx = topo.size(); idx-- > 0;) {
    const std::size_t gi = topo[idx];
    const GateInst& gate = nl.gates()[gi];
    const double out_required = out.required_ps[gate.output_net];
    if (out_required >= kInf) continue;  // drives nothing timed
    const std::vector<const CharacterizedArc*>& arcs =
        cell_arcs_[gate.cell_index];
    const double load = load_cache_[gate.output_net];
    for (std::size_t pi = 0; pi < gate.fanin_nets.size(); ++pi) {
      const std::size_t in_net = gate.fanin_nets[pi];
      const CharacterizedArc& arc = *arcs[pi];
      const double factor = scale.scale(gi, arc.arc_index);
      const double wire_delay = wire_delay_cache_[in_net];
      const double delay =
          wire_delay +
          factor * arc.nldm.delay_ps(out.timing.slew_ps[in_net], load);
      out.required_ps[in_net] =
          std::min(out.required_ps[in_net], out_required - delay);
    }
  }

  out.slack_ps.assign(nl.nets().size(), kInf);
  out.worst_slack_ps = kInf;
  for (std::size_t ni = 0; ni < nl.nets().size(); ++ni) {
    if (out.required_ps[ni] >= kInf) continue;  // untimed net
    out.slack_ps[ni] = out.required_ps[ni] - out.timing.arrival_ps[ni];
    if (out.slack_ps[ni] < out.worst_slack_ps) {
      out.worst_slack_ps = out.slack_ps[ni];
      out.worst_slack_net = ni;
    }
  }
  SVA_ASSERT_MSG(out.worst_slack_ps < kInf, "no timed nets found");
  return out;
}

}  // namespace sva
