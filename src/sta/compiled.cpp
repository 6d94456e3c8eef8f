#include "sta/compiled.hpp"

#include <cstring>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/serialize.hpp"

namespace sva {

namespace {

/// Branch-free segment search with upper_bound semantics: the number of
/// axis entries <= x is exactly upper_bound(axis, x) - begin, so clamping
/// (count - 1) into [0, n-2] reproduces interp::segment_index bit for bit
/// on the strictly increasing axes NldmTable guarantees.
inline std::size_t seg_lookup(const double* axis, std::size_t n, double x) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += axis[i] <= x ? 1u : 0u;
  const std::size_t raw = count == 0 ? 0 : count - 1;
  const std::size_t hi = n - 2;
  return raw > hi ? hi : raw;
}

/// seg_lookup with a compile-time axis length: the comparison loop
/// unrolls to straight-line branch-free code.
template <std::size_t N>
inline std::size_t seg_lookup_fixed(const double* axis, double x) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < N; ++i) count += axis[i] <= x ? 1u : 0u;
  const std::size_t raw = count == 0 ? 0 : count - 1;
  const std::size_t hi = N - 2;
  return raw > hi ? hi : raw;
}

/// Identical FP sequence to interp::lerp.
inline double lerp(double x0, double y0, double x1, double y1, double x) {
  const double t = (x - x0) / (x1 - x0);
  return y0 + t * (y1 - y0);
}

std::uint64_t hash_doubles(const std::vector<double>& v, std::uint64_t seed) {
  return fnv1a64(v.data(), v.size() * sizeof(double), seed);
}

bool doubles_equal(const double* a, const std::vector<double>& b) {
  return std::memcmp(a, b.data(), b.size() * sizeof(double)) == 0;
}

}  // namespace

std::uint32_t CompiledTiming::intern_axis(const std::vector<double>& axis) {
  const std::uint64_t h = hash_doubles(axis, 0xcbf29ce484222325ull);
  for (const auto& [hash, off, len] : unique_axes_) {
    if (hash != h || len != axis.size()) continue;
    if (doubles_equal(&arena_[off], axis)) return off;
  }
  const auto off = static_cast<std::uint32_t>(arena_.size());
  arena_.insert(arena_.end(), axis.begin(), axis.end());
  unique_axes_.emplace_back(h, off, static_cast<std::uint32_t>(axis.size()));
  return off;
}

CompiledTiming::TableRef CompiledTiming::intern_table(
    const NldmTable& nldm, std::uint32_t arc_index) {
  const LookupTable2D& delay = nldm.delay_table();
  const LookupTable2D& slew = nldm.slew_table();
  // NldmTable guarantees shared axes and a >= 2x2 grid, which is exactly
  // what the branch-free kernel assumes.
  SVA_ASSERT(delay.nx() >= 2 && delay.ny() >= 2);
  ++tables_total_;

  std::uint64_t h = hash_doubles(delay.x_axis(), 0xcbf29ce484222325ull);
  h = hash_doubles(delay.y_axis(), h);
  h = hash_doubles(delay.values(), h);
  h = hash_doubles(slew.values(), h);

  for (const auto& [hash, ref] : unique_tables_) {
    if (hash != h) continue;
    // Verify bytewise on hash hit so a collision can never alias two
    // different tables.
    if (ref.nx != delay.nx() || ref.ny != delay.ny()) continue;
    if (!doubles_equal(&arena_[ref.x_off], delay.x_axis()) ||
        !doubles_equal(&arena_[ref.y_off], delay.y_axis()) ||
        !doubles_equal(&arena_[ref.d_off], delay.values()) ||
        !doubles_equal(&arena_[ref.s_off], slew.values()))
      continue;
    TableRef hit = ref;
    hit.arc_index = arc_index;
    return hit;
  }

  const auto append = [this](const std::vector<double>& v) {
    const auto off = static_cast<std::uint32_t>(arena_.size());
    arena_.insert(arena_.end(), v.begin(), v.end());
    return off;
  };
  TableRef ref;
  // Axes intern separately from values: characterization uses one shared
  // slew/load grid, so distinct tables still converge on one axis copy.
  ref.x_off = intern_axis(delay.x_axis());
  ref.y_off = intern_axis(delay.y_axis());
  ref.d_off = append(delay.values());
  ref.s_off = append(slew.values());
  ref.nx = static_cast<std::uint32_t>(delay.nx());
  ref.ny = static_cast<std::uint32_t>(delay.ny());
  ref.arc_index = arc_index;
  unique_tables_.emplace_back(h, ref);
  ++tables_unique_;
  return ref;
}

CompiledTiming::CompiledTiming(
    const Netlist& netlist, const CharacterizedLibrary& library,
    const StaConfig& config,
    const std::vector<std::vector<std::size_t>>& levels) {
  MetricsRegistry& metrics = MetricsRegistry::global();
  const ScopedTimer timer(metrics.timer("sta.kernel.compile"));

  // Intern every library cell's arc tables (not just the masters in use):
  // ECO sizing swaps gates to drive-strength variants in place, and
  // refresh_gate must find the variant's tables already in the arena.
  cell_tables_.resize(library.cells.size());
  for (std::size_t ci = 0; ci < library.cells.size(); ++ci) {
    const CharacterizedCell& cell = library.cells[ci];
    for (const Pin& pin : cell.master.pins()) {
      if (pin.is_output) continue;
      const CharacterizedArc& arc = cell.arc_for(pin.name);
      cell_tables_[ci].push_back(
          intern_table(arc.nldm, static_cast<std::uint32_t>(arc.arc_index)));
    }
  }

  // Flatten gates level-major so each level is a contiguous span.
  gate_rec_of_.assign(netlist.gates().size(), 0);
  gates_.reserve(netlist.gates().size());
  for (const std::vector<std::size_t>& level : levels) {
    LevelSpan span;
    span.begin = static_cast<std::uint32_t>(gates_.size());
    for (std::size_t gi : level) {
      const GateInst& gate = netlist.gates()[gi];
      const std::vector<TableRef>& tables = cell_tables_[gate.cell_index];
      SVA_ASSERT(tables.size() == gate.fanin_nets.size());
      GateRec rec;
      rec.first_arc = static_cast<std::uint32_t>(arcs_.size());
      rec.arc_count = static_cast<std::uint32_t>(gate.fanin_nets.size());
      rec.out_net = static_cast<std::uint32_t>(gate.output_net);
      gate_rec_of_[gi] = static_cast<std::uint32_t>(gates_.size());
      gates_.push_back(rec);
      for (std::size_t pi = 0; pi < gate.fanin_nets.size(); ++pi) {
        const std::size_t in_net = gate.fanin_nets[pi];
        const TableRef& t = tables[pi];
        ArcRec arc;
        arc.in_net = static_cast<std::uint32_t>(in_net);
        arc.gate = static_cast<std::uint32_t>(gi);
        arc.arc_index = t.arc_index;
        arc.x_off = t.x_off;
        arc.y_off = t.y_off;
        arc.d_off = t.d_off;
        arc.s_off = t.s_off;
        arc.nx = t.nx;
        arc.ny = t.ny;
        // Same two operands the scalar path multiplies per evaluation,
        // so the precomputed product is the identical double.
        arc.wire_delay =
            config.wire_delay_per_sink_ps *
            static_cast<double>(netlist.nets()[in_net].sinks.size());
        arcs_.push_back(arc);
      }
    }
    span.end = static_cast<std::uint32_t>(gates_.size());
    level_spans_.push_back(span);
  }

  // One shared (x_off, y_off, nx, ny) across every arc enables the fast
  // evaluate path: the load-axis search hoists to bind_loads and one
  // slew-axis interpolation parameter serves both the delay and slew
  // tables.  True whenever characterization used one grid (always, for
  // this library); the generic per-arc path remains as fallback.
  uniform_axes_ = !arcs_.empty();
  if (uniform_axes_) {
    x_off_ = arcs_[0].x_off;
    y_off_ = arcs_[0].y_off;
    nx_ = arcs_[0].nx;
    ny_ = arcs_[0].ny;
    for (const std::vector<TableRef>& tables : cell_tables_)
      for (const TableRef& t : tables)
        uniform_axes_ = uniform_axes_ && t.x_off == x_off_ &&
                        t.y_off == y_off_ && t.nx == nx_ && t.ny == ny_;
  }
  load_seg_.assign(netlist.nets().size(), 0);
  load_t_.assign(netlist.nets().size(), 0.0);

  metrics.counter("sta.kernel.compiles").add();
  metrics.counter("sta.kernel.tables_total").add(tables_total_);
  metrics.counter("sta.kernel.tables_deduped")
      .add(tables_total_ - tables_unique_);
  metrics.counter("sta.kernel.arena_bytes").add(arena_bytes());
}

void CompiledTiming::update_net_load(std::size_t net, double load) {
  if (!uniform_axes_) return;
  SVA_REQUIRE(net < load_seg_.size());
  const double* ys = arena_.data() + y_off_;
  const std::size_t j = seg_lookup(ys, ny_, load);
  load_seg_[net] = static_cast<std::uint32_t>(j);
  // The exact quotient interp::lerp computes for this axis segment.
  load_t_[net] = (load - ys[j]) / (ys[j + 1] - ys[j]);
}

void CompiledTiming::bind_loads(const double* loads, std::size_t count) {
  SVA_REQUIRE(count == load_seg_.size());
  for (std::size_t ni = 0; ni < count; ++ni)
    update_net_load(ni, loads[ni]);
}

void CompiledTiming::gather_factors(const ArcScaleProvider& scale,
                                    std::vector<double>& out) const {
  out.resize(arcs_.size());
  for (std::size_t a = 0; a < arcs_.size(); ++a) {
    const double factor = scale.scale(arcs_[a].gate, arcs_[a].arc_index);
    SVA_ASSERT_MSG(factor > 0.0, "arc scale must be positive");
    out[a] = factor;
  }
}

namespace {

/// The uniform-axes inner loop with a compile-time slew-axis length, so
/// the per-arc segment search unrolls to branch-free straight-line code.
/// Bilinear interpolation follows LookupTable2D::at's exact FP order,
/// with the load-axis lerps expanded around the pre-resolved per-net
/// parameter ty and the slew-axis quotient tx computed once and reused
/// by the slew lookup (at() recomputes the identical doubles).
template <std::size_t NX>
void eval_uniform(const CompiledTiming::GateRec* gates, std::size_t first,
                  std::size_t last, const CompiledTiming::ArcRec* arcs,
                  const double* arena, const double* xs, std::size_t ny,
                  const std::uint32_t* load_seg, const double* load_t,
                  const double* factors, StaResult& result) {
  double* arrival = result.arrival_ps.data();
  double* slew = result.slew_ps.data();
  std::size_t* from = result.from_net.data();

  for (std::size_t g = first; g < last; ++g) {
    const CompiledTiming::GateRec& gate = gates[g];
    const std::size_t j = load_seg[gate.out_net];
    const double ty = load_t[gate.out_net];
    double worst_arrival = -1.0;
    double worst_slew = 0.0;
    std::size_t worst_from = kNoDriver;
    const std::size_t end = gate.first_arc + gate.arc_count;
    for (std::size_t a = gate.first_arc; a < end; ++a) {
      const CompiledTiming::ArcRec& arc = arcs[a];
      const double in_slew = slew[arc.in_net];
      const std::size_t i = seg_lookup_fixed<NX>(xs, in_slew);
      const double x0 = xs[i];
      const double tx = (in_slew - x0) / (xs[i + 1] - x0);
      const double* d = arena + arc.d_off + i * ny + j;
      const double d_lo = d[0] + ty * (d[1] - d[0]);
      const double d_hi = d[ny] + ty * (d[ny + 1] - d[ny]);
      const double delay = d_lo + tx * (d_hi - d_lo);
      const double arr =
          arrival[arc.in_net] + arc.wire_delay + factors[a] * delay;
      if (arr > worst_arrival) {
        worst_arrival = arr;
        const double* s = arena + arc.s_off + i * ny + j;
        const double s_lo = s[0] + ty * (s[1] - s[0]);
        const double s_hi = s[ny] + ty * (s[ny + 1] - s[ny]);
        worst_slew = factors[a] * (s_lo + tx * (s_hi - s_lo));
        worst_from = arc.in_net;
      }
    }
    arrival[gate.out_net] = worst_arrival;
    slew[gate.out_net] = worst_slew;
    from[gate.out_net] = worst_from;
  }
}

}  // namespace

void CompiledTiming::evaluate_span(std::size_t first, std::size_t last,
                                   const double* factors, const double* loads,
                                   StaResult& result) const {
  const double* arena = arena_.data();
  const double* xs = arena + x_off_;
  switch (uniform_axes_ ? nx_ : 0u) {
    // The instantiated lengths cover the characterization grids in use;
    // anything else falls back to the generic per-arc path (identical
    // results, un-hoisted searches).
    case 5:
      eval_uniform<5>(gates_.data(), first, last, arcs_.data(), arena, xs,
                      ny_, load_seg_.data(), load_t_.data(), factors,
                      result);
      return;
    case 7:
      eval_uniform<7>(gates_.data(), first, last, arcs_.data(), arena, xs,
                      ny_, load_seg_.data(), load_t_.data(), factors,
                      result);
      return;
    case 8:
      eval_uniform<8>(gates_.data(), first, last, arcs_.data(), arena, xs,
                      ny_, load_seg_.data(), load_t_.data(), factors,
                      result);
      return;
    default:
      evaluate_span_generic(first, last, factors, loads, result);
  }
}

void CompiledTiming::evaluate_span_generic(std::size_t first,
                                           std::size_t last,
                                           const double* factors,
                                           const double* loads,
                                           StaResult& result) const {
  const double* arena = arena_.data();
  const ArcRec* arcs = arcs_.data();
  double* arrival = result.arrival_ps.data();
  double* slew = result.slew_ps.data();
  std::size_t* from = result.from_net.data();

  for (std::size_t g = first; g < last; ++g) {
    const GateRec& gate = gates_[g];
    const double load = loads[gate.out_net];
    double worst_arrival = -1.0;
    double worst_slew = 0.0;
    std::size_t worst_from = kNoDriver;
    const std::size_t end = gate.first_arc + gate.arc_count;
    for (std::size_t a = gate.first_arc; a < end; ++a) {
      const ArcRec& arc = arcs[a];
      const double* xs = arena + arc.x_off;
      const double* ys = arena + arc.y_off;
      const double in_slew = slew[arc.in_net];
      const std::size_t i = seg_lookup(xs, arc.nx, in_slew);
      const std::size_t j = seg_lookup(ys, arc.ny, load);
      const double x0 = xs[i], x1 = xs[i + 1];
      const double y0 = ys[j], y1 = ys[j + 1];
      // Bilinear interpolation in LookupTable2D::at's exact order: lerp
      // along the load axis at slew grid lines i and i+1, then along the
      // slew axis.  The delay and slew tables share axes (NldmTable
      // invariant), so one segment search serves both lookups -- the
      // scalar path redoes it four times per arc.
      const double* d = arena + arc.d_off + i * arc.ny + j;
      const double d_lo = lerp(y0, d[0], y1, d[1], load);
      const double d_hi = lerp(y0, d[arc.ny], y1, d[arc.ny + 1], load);
      const double delay = lerp(x0, d_lo, x1, d_hi, in_slew);
      const double arr =
          arrival[arc.in_net] + arc.wire_delay + factors[a] * delay;
      if (arr > worst_arrival) {
        worst_arrival = arr;
        const double* s = arena + arc.s_off + i * arc.ny + j;
        const double s_lo = lerp(y0, s[0], y1, s[1], load);
        const double s_hi = lerp(y0, s[arc.ny], y1, s[arc.ny + 1], load);
        worst_slew = factors[a] * lerp(x0, s_lo, x1, s_hi, in_slew);
        worst_from = arc.in_net;
      }
    }
    arrival[gate.out_net] = worst_arrival;
    slew[gate.out_net] = worst_slew;
    from[gate.out_net] = worst_from;
  }
}

void CompiledTiming::refresh_gate(std::size_t gate, std::size_t cell_index) {
  SVA_REQUIRE(gate < gate_rec_of_.size());
  SVA_REQUIRE(cell_index < cell_tables_.size());
  const GateRec& rec = gates_[gate_rec_of_[gate]];
  const std::vector<TableRef>& tables = cell_tables_[cell_index];
  SVA_REQUIRE_MSG(tables.size() == rec.arc_count,
                  "replacement master must be pin-compatible");
  for (std::size_t pi = 0; pi < tables.size(); ++pi) {
    ArcRec& arc = arcs_[rec.first_arc + pi];
    const TableRef& t = tables[pi];
    arc.arc_index = t.arc_index;
    arc.x_off = t.x_off;
    arc.y_off = t.y_off;
    arc.d_off = t.d_off;
    arc.s_off = t.s_off;
    arc.nx = t.nx;
    arc.ny = t.ny;
  }
}

}  // namespace sva
