#include "opt/eco.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <utility>

#include "core/scales.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/sealed_file.hpp"
#include "util/serialize.hpp"
#include "util/strings.hpp"

namespace sva {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

const char* eco_corner_mode_name(EcoCornerMode mode) {
  switch (mode) {
    case EcoCornerMode::SvaWorst: return "sva";
    case EcoCornerMode::TraditionalWorst: return "trad";
  }
  return "?";
}

EcoOptimizer::EcoOptimizer(const SizedLibrary& sized, Netlist netlist,
                           const PlacementConfig& placement, EcoConfig config)
    : sized_(&sized),
      config_(std::move(config)),
      netlist_(std::move(netlist)),
      placement_(netlist_, placement),
      sta_(netlist_, sized.characterized(), config_.sta) {
  SVA_REQUIRE_MSG(&netlist_.library() == &sized.library(),
                  "netlist must be mapped onto the sized library");
  nps_ = extract_nps(placement_);
  versions_ = assign_versions(nps_, sized_->context_library().bins());
  factors_.resize(netlist_.gates().size());
  for (std::size_t g = 0; g < netlist_.gates().size(); ++g)
    factors_[g] = committed_row(g);
  current_ = sta_.run(FactorsScale(factors_));
  if (config_.clock_period_ps <= 0.0) {
    SVA_REQUIRE_MSG(
        config_.auto_clock_fraction > 0.0 && config_.auto_clock_fraction < 1.0,
        "auto clock fraction must lie in (0, 1)");
    config_.clock_period_ps =
        config_.auto_clock_fraction * current_.critical_delay_ps;
  }
  // The committed-state accumulator's header fields are fixed from here
  // on; run() and restore() only ever append to it.
  result_.benchmark = netlist_.name();
  result_.mode = config_.mode;
  result_.clock_period_ps = config_.clock_period_ps;
  result_.initial_worst_slack_ps = worst_slack_ps();
}

double EcoOptimizer::worst_slack_ps() const {
  return config_.clock_period_ps - current_.critical_delay_ps;
}

std::vector<double> EcoOptimizer::committed_row(std::size_t gate) const {
  const std::size_t cell = netlist_.gates()[gate].cell_index;
  const CellMaster& master = netlist_.library().master(cell);
  if (config_.mode == EcoCornerMode::TraditionalWorst) {
    // Context-blind uniform corner: every arc of every gate at the full
    // CD budget, regardless of placement.
    const TraditionalCornerScale trad(master.tech().gate_length,
                                      config_.budget, Corner::Worst);
    return std::vector<double>(master.arcs().size(), trad.factor());
  }
  const auto annotations = annotate_gate_arcs(
      netlist_, gate, sized_->context_library(), versions_[gate],
      config_.budget, config_.arc_policy, 0.0, &nps_[gate],
      &sized_->context_cache());
  return gate_corner_factors(netlist_, gate, annotations, config_.budget,
                             Corner::Worst);
}

std::vector<Move> EcoOptimizer::enumerate_candidates(
    const std::vector<double>& net_slack_ps, double threshold_ps) const {
  std::vector<Move> out;
  const auto& gates = netlist_.gates();
  const Nm site = netlist_.library().master(0).tech().site_width;
  std::vector<char> downsize_seen(gates.size(), 0);

  for (std::size_t g = 0; g < gates.size(); ++g) {
    if (net_slack_ps[gates[g].output_net] > threshold_ps) continue;

    if (sized_->can_upsize(gates[g].cell_index))
      out.push_back({MoveKind::Upsize, g,
                     sized_->upsized(gates[g].cell_index), 0.0});

    // Re-spacing is only enumerated under the SVA corner: a uniform
    // traditional corner assigns the same factor at every position, so
    // every respace candidate would price at exactly zero gain.
    if (config_.mode == EcoCornerMode::SvaWorst) {
      const auto [lo, hi] = placement_.shift_range(g);
      for (std::size_t k = 1; k <= config_.respace_sites_each_way; ++k) {
        const Nm dx = static_cast<double>(k) * site;
        if (dx <= hi) out.push_back({MoveKind::Respace, g, 0, dx});
        if (-dx >= lo) out.push_back({MoveKind::Respace, g, 0, -dx});
      }
    }

    // Off-cone sinks loading this near-critical net: shrinking them cuts
    // the load the critical driver sees at zero speed cost of their own
    // (the exact what-if pricing rejects the move if their path would
    // become the new wall).
    for (const NetSink& sink : netlist_.nets()[gates[g].output_net].sinks) {
      const std::size_t sg = sink.gate;
      if (downsize_seen[sg]) continue;
      if (net_slack_ps[gates[sg].output_net] <= threshold_ps) continue;
      if (!sized_->can_downsize(gates[sg].cell_index)) continue;
      downsize_seen[sg] = 1;
      out.push_back({MoveKind::Downsize, sg,
                     sized_->downsized(gates[sg].cell_index), 0.0});
    }
  }
  return out;
}

template <typename Fn>
decltype(auto) EcoOptimizer::with_edit(const Evaluation& e, Fn&& fn) const {
  if (e.move.kind == MoveKind::Respace)
    return fn(OverlayScale(factors_, e.factor_rows),
              std::span<const Sta::GateCellOverride>{},
              std::span<const std::size_t>(e.changed));
  // Sizing is printing-context-neutral (see opt/sizing.hpp): the
  // committed corner factors apply unchanged; only the master (and the
  // pin caps it presents upstream) is hypothetically swapped.
  const Sta::GateCellOverride swap{e.move.gate, e.move.to_cell};
  return fn(FactorsScale(factors_),
            std::span<const Sta::GateCellOverride>(&swap, 1),
            std::span<const std::size_t>{});
}

void EcoOptimizer::evaluate(const Move& move, Evaluation& out,
                            PricingScratch& scratch) const {
  out.move = move;
  switch (move.kind) {
    case MoveKind::Upsize:
    case MoveKind::Downsize:
      out.area_delta =
          sized_->multiplier_of(move.to_cell) -
          sized_->multiplier_of(netlist_.gates()[move.gate].cell_index);
      break;
    case MoveKind::Respace: {
      out.nps_updates = nps_after_shift(placement_, move.gate, move.dx);
      const ContextBins& bins = sized_->context_library().bins();
      out.factor_rows.reserve(out.nps_updates.size());
      for (const NpsUpdate& u : out.nps_updates) {
        const VersionKey version = nps_to_version(u.nps, bins);
        const auto annotations = annotate_gate_arcs(
            netlist_, u.gate, sized_->context_library(), version,
            config_.budget, config_.arc_policy, 0.0, &u.nps,
            &sized_->context_cache());
        auto row = gate_corner_factors(netlist_, u.gate, annotations,
                                       config_.budget, Corner::Worst);
        if (row != factors_[u.gate]) out.changed.push_back(u.gate);
        out.factor_rows.emplace_back(u.gate, std::move(row));
      }
      break;
    }
  }
  const double delay = with_edit(
      out, [&](const ArcScaleProvider& scale, auto overrides, auto changed) {
        return sta_.price_what_if(scale, overrides, changed, scratch.mirror,
                                  scratch.work);
      });
  out.gain_ps = current_.critical_delay_ps - delay;
}

bool EcoOptimizer::better(const Evaluation& a, const Evaluation& b) {
  if (a.gain_ps != b.gain_ps) return a.gain_ps > b.gain_ps;
  if (a.area_delta != b.area_delta) return a.area_delta < b.area_delta;
  if (a.move.gate != b.move.gate) return a.move.gate < b.move.gate;
  if (a.move.kind != b.move.kind)
    return static_cast<int>(a.move.kind) < static_cast<int>(b.move.kind);
  if (a.move.to_cell != b.move.to_cell) return a.move.to_cell < b.move.to_cell;
  if (std::abs(a.move.dx) != std::abs(b.move.dx))
    return std::abs(a.move.dx) < std::abs(b.move.dx);
  return a.move.dx > b.move.dx;
}

void EcoOptimizer::commit(Evaluation&& best) {
  // Propagate the winner alone into the committed timing, before the
  // design changes underneath it: the same routine on the same inputs
  // the pricing mirror saw, so the realized gain is the priced one.
  const double before = current_.critical_delay_ps;
  with_edit(best, [&](const ArcScaleProvider& scale, auto overrides,
                      auto changed) {
    sta_.apply_what_if(scale, overrides, changed, current_, commit_work_);
  });
  SVA_ASSERT_MSG(same_bits(before - current_.critical_delay_ps, best.gain_ps),
                 "committed gain differs from the priced gain");
  switch (best.move.kind) {
    case MoveKind::Upsize:
    case MoveKind::Downsize:
      netlist_.set_gate_cell(best.move.gate, best.move.to_cell);
      sta_.update_gate_master(best.move.gate);
      break;
    case MoveKind::Respace: {
      placement_.shift_instance(best.move.gate, best.move.dx);
      const ContextBins& bins = sized_->context_library().bins();
      for (const NpsUpdate& u : best.nps_updates) {
        nps_[u.gate] = u.nps;
        versions_[u.gate] = nps_to_version(u.nps, bins);
      }
      for (OverlayScale::Row& row : best.factor_rows)
        factors_[row.first] = std::move(row.second);
      break;
    }
  }
}

void EcoOptimizer::apply_move(Evaluation&& chosen) {
  EcoMoveRecord record;
  record.index = result_.trajectory.size() + 1;
  record.kind = chosen.move.kind;
  record.gate = chosen.move.gate;
  record.gate_name = netlist_.gates()[chosen.move.gate].name;
  record.gain_ps = chosen.gain_ps;
  record.area_delta = chosen.area_delta;
  const CellLibrary& lib = netlist_.library();
  switch (chosen.move.kind) {
    case MoveKind::Upsize:
      ++result_.upsizes;
      result_.upsize_area_delta += chosen.area_delta;
      result_.total_area_delta += chosen.area_delta;
      record.detail =
          lib.master(netlist_.gates()[chosen.move.gate].cell_index).name() +
          " -> " + lib.master(chosen.move.to_cell).name();
      break;
    case MoveKind::Downsize:
      ++result_.downsizes;
      result_.total_area_delta += chosen.area_delta;
      record.detail =
          lib.master(netlist_.gates()[chosen.move.gate].cell_index).name() +
          " -> " + lib.master(chosen.move.to_cell).name();
      break;
    case MoveKind::Respace:
      ++result_.respaces;
      record.detail = "dx " + std::string(chosen.move.dx >= 0 ? "+" : "") +
                      fmt(chosen.move.dx, 0) + " nm";
      break;
  }
  committed_moves_.push_back(chosen.move);
  commit(std::move(chosen));
  MetricsRegistry::global().counter("eco.moves_committed").add();
  record.worst_slack_ps = worst_slack_ps();
  result_.trajectory.push_back(std::move(record));
}

EcoResult EcoOptimizer::run(ThreadPool* pool, const CancelToken* cancel) {
  MetricsRegistry& metrics = MetricsRegistry::global();
  Counter& evaluated = metrics.counter("eco.candidates_evaluated");
  TimerStat& eval_timer = metrics.timer("eco.candidate_eval");
  result_.cancelled = false;

  while (result_.trajectory.size() < config_.max_moves &&
         worst_slack_ps() < 0.0) {
    // Commit-granularity poll: a trip lands between iterations, so the
    // committed state (and thus any checkpoint) is a clean prefix.
    if (cancel != nullptr && cancel->poll()) {
      result_.cancelled = true;
      break;
    }
    const FactorsScale scale(factors_);
    const SlackResult slack =
        sta_.slack_from(scale, current_, config_.clock_period_ps);
    const double threshold =
        slack.worst_slack_ps + config_.near_critical_window_ps;
    const std::vector<Move> candidates =
        enumerate_candidates(slack.slack_ps, threshold);
    if (candidates.empty()) break;

    // Price every candidate into its own slot; with a pool the pricing
    // fans out over chunks, and the serial argmax below keeps selection
    // (and thus the whole trajectory) schedule-independent.  Each chunk
    // prices on its own scratch, synced with one copy of current_.
    const std::size_t n = candidates.size();
    const std::size_t chunks =
        pool != nullptr ? std::min(n, 4 * (pool->thread_count() + 1)) : 1;
    if (scratch_.size() < chunks) scratch_.resize(chunks);
    std::vector<Evaluation> evals(n);
    try {
      const ScopedTimer timer(eval_timer);
      const auto price_chunk = [&](std::size_t c) {
        PricingScratch& scratch = scratch_[c];
        scratch.mirror = current_;
        for (std::size_t i = c * n / chunks; i < (c + 1) * n / chunks; ++i) {
          // Serial runs poll per candidate; parallel_for polls per chunk.
          if (pool == nullptr && cancel != nullptr) cancel->check();
          evaluate(candidates[i], evals[i], scratch);
        }
      };
      if (pool != nullptr)
        pool->parallel_for(0, chunks, price_chunk, 1, cancel);
      else
        price_chunk(0);
    } catch (const CancelledError&) {
      // Mid-pricing trip: the partial evals are discarded, nothing was
      // committed this iteration.
      result_.cancelled = true;
      break;
    }
    evaluated.add(candidates.size());
    result_.candidates_evaluated += candidates.size();

    std::size_t best = 0;
    for (std::size_t i = 1; i < evals.size(); ++i)
      if (better(evals[i], evals[best])) best = i;
    if (evals[best].gain_ps < config_.min_gain_ps) break;  // stalled

    apply_move(std::move(evals[best]));
  }

  result_.final_worst_slack_ps = worst_slack_ps();
  result_.met_timing =
      !result_.cancelled && result_.final_worst_slack_ps >= 0.0;
  return result_;
}

namespace {

constexpr char kEcoCheckpointKind[] = "eco";

}  // namespace

std::uint64_t EcoOptimizer::state_hash() const {
  Fnv1aHasher h;
  h.u64(sized_->context_library().content_hash());
  h.str(netlist_.name());
  h.u64(netlist_.gates().size());
  h.u64(static_cast<std::uint64_t>(config_.mode));
  h.f64(config_.clock_period_ps);  // resolved, so auto-clock is covered
  // max_moves is deliberately NOT part of the identity: it only caps
  // where the loop stops, never which move a given prefix commits next,
  // so a journal is valid under any cap >= its own length (restore()
  // still checks that bound explicitly).
  h.f64(config_.near_critical_window_ps);
  h.f64(config_.min_gain_ps);
  h.u64(config_.respace_sites_each_way);
  h.f64(config_.budget.total_fraction);
  h.f64(config_.budget.pitch_share);
  h.f64(config_.budget.focus_share);
  h.f64(config_.budget.other_process_fraction);
  h.u64(static_cast<std::uint64_t>(config_.arc_policy));
  h.f64(config_.sta.input_slew_ps);
  h.f64(config_.sta.po_load_ff);
  h.f64(config_.sta.wire_cap_per_sink_ff);
  h.f64(config_.sta.wire_delay_per_sink_ps);
  return h.digest();
}

void EcoOptimizer::checkpoint(const std::string& path) const {
  SVA_FAILPOINT("checkpoint.write");
  ByteWriter w;
  w.str(result_.benchmark);
  w.u8(static_cast<std::uint8_t>(config_.mode));
  w.f64(config_.clock_period_ps);
  w.f64(result_.initial_worst_slack_ps);
  w.u64(result_.candidates_evaluated);
  w.u64(committed_moves_.size());
  SVA_ASSERT(committed_moves_.size() == result_.trajectory.size());
  for (std::size_t i = 0; i < committed_moves_.size(); ++i) {
    const Move& m = committed_moves_[i];
    w.u8(static_cast<std::uint8_t>(m.kind));
    w.u64(m.gate);
    w.u64(m.to_cell);
    w.f64(m.dx);
    // Witness values: replay re-derives both and verifies bit equality,
    // turning "resume is exact" from a hope into a checked invariant.
    w.f64(result_.trajectory[i].gain_ps);
    w.f64(result_.trajectory[i].worst_slack_ps);
  }
  write_sealed_file(path, kEcoCheckpointKind, state_hash(), w.bytes());
}

void EcoOptimizer::restore(const std::string& path) {
  SVA_REQUIRE_MSG(committed_moves_.empty(),
                  "restore() must run before any move is committed");
  const std::string payload =
      read_sealed_file(path, kEcoCheckpointKind, state_hash());
  ByteReader r(payload);
  if (r.str() != result_.benchmark)
    throw SerializeError("eco checkpoint benchmark mismatch");
  if (r.u8() != static_cast<std::uint8_t>(config_.mode))
    throw SerializeError("eco checkpoint corner-mode mismatch");
  if (!same_bits(r.f64(), config_.clock_period_ps))
    throw SerializeError("eco checkpoint clock-period mismatch");
  if (!same_bits(r.f64(), result_.initial_worst_slack_ps))
    throw SerializeError("eco checkpoint initial-slack mismatch");
  const std::uint64_t candidates_evaluated = r.u64();
  const std::uint64_t nmoves = r.u64();
  if (nmoves > config_.max_moves)
    throw SerializeError("eco checkpoint has more moves than max_moves");

  PricingScratch scratch;
  for (std::uint64_t i = 0; i < nmoves; ++i) {
    Move m;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(MoveKind::Respace))
      throw SerializeError("eco checkpoint: invalid move kind");
    m.kind = static_cast<MoveKind>(kind);
    m.gate = static_cast<std::size_t>(r.u64());
    m.to_cell = static_cast<std::size_t>(r.u64());
    m.dx = r.f64();
    const double want_gain = r.f64();
    const double want_slack = r.f64();
    if (m.gate >= netlist_.gates().size())
      throw SerializeError("eco checkpoint: gate index out of range");
    // Replay through the live evaluate+commit pipeline: what-if pricing
    // is exact, so the re-derived gain must match the journaled one
    // bit-for-bit -- any drift means the inputs are not the ones the
    // checkpoint was written for (or the journal is corrupt).
    scratch.mirror = current_;
    Evaluation eval;
    evaluate(m, eval, scratch);
    if (!same_bits(eval.gain_ps, want_gain))
      throw SerializeError("eco checkpoint replay diverged at move " +
                           std::to_string(i + 1) + " (gain mismatch)");
    apply_move(std::move(eval));
    if (!same_bits(result_.trajectory.back().worst_slack_ps, want_slack))
      throw SerializeError("eco checkpoint replay diverged at move " +
                           std::to_string(i + 1) + " (slack mismatch)");
  }
  r.expect_end();
  // The summary also prints the pricing work done before the interrupt;
  // restoring the counter keeps a resumed run's report byte-identical.
  result_.candidates_evaluated =
      static_cast<std::size_t>(candidates_evaluated);
  MetricsRegistry::global().counter("eco.moves_restored").add(nmoves);
}

}  // namespace sva
