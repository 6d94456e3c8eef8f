// Tests for the opt module: the drive-strength ladder (SizedLibrary), the
// what-if hooks it leans on (set_gate_cell / update_gate_master /
// run_what_if, nps_after_shift), and the ECO loop itself -- convergence,
// exactness of the committed state, schedule independence, and the
// headline SVA-vs-traditional comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <span>
#include <sstream>
#include <string>

#include "core/flow.hpp"
#include "core/scales.hpp"
#include "engine/thread_pool.hpp"
#include "netlist/iscas85.hpp"
#include "opt/eco.hpp"
#include "opt/sizing.hpp"
#include "opt/trajectory.hpp"
#include "place/context.hpp"
#include "sta/sta.hpp"
#include "sta_scalar_oracle.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sva {
namespace {

/// One flow (library OPC etc.) and one sized library shared by every test.
const SvaFlow& flow() {
  static const SvaFlow f{FlowConfig{}};
  return f;
}

const SizedLibrary& sized() {
  static const SizedLibrary s(flow().library(), flow().config().electrical,
                              flow().library_opc_results(),
                              flow().boundary_model(), flow().config().bins);
  return s;
}

EcoConfig eco_config() {
  EcoConfig cfg;
  cfg.budget = flow().config().budget;
  cfg.arc_policy = flow().config().arc_policy;
  cfg.sta = flow().config().sta;
  return cfg;
}

TEST(SizedLibrary, BaseMastersKeepTheirIndices) {
  const CellLibrary& base = flow().library();
  ASSERT_EQ(sized().base_count(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(sized().library().master(i).name(), base.master(i).name());
    EXPECT_EQ(sized().base_of(i), i);
    EXPECT_DOUBLE_EQ(sized().multiplier_of(i), 1.0);
  }
  const std::size_t rungs = sized().multipliers().size();
  EXPECT_EQ(sized().library().size(), base.size() * rungs);
}

TEST(SizedLibrary, LadderNavigationRoundTrips) {
  for (std::size_t b = 0; b < sized().base_count(); ++b) {
    std::size_t cell = b;
    while (sized().can_downsize(cell)) cell = sized().downsized(cell);
    EXPECT_EQ(sized().rung_of(cell), 0u);
    std::size_t steps = 0;
    while (sized().can_upsize(cell)) {
      const std::size_t up = sized().upsized(cell);
      EXPECT_EQ(sized().base_of(up), b);
      EXPECT_EQ(sized().rung_of(up), sized().rung_of(cell) + 1);
      EXPECT_GT(sized().multiplier_of(up), sized().multiplier_of(cell));
      EXPECT_EQ(sized().downsized(up), cell);
      cell = up;
      ++steps;
    }
    EXPECT_EQ(steps + 1, sized().multipliers().size());
  }
}

TEST(SizedLibrary, VariantsShareGeometryAndScaleWidths) {
  const CellLibrary& lib = sized().library();
  for (std::size_t b = 0; b < sized().base_count(); ++b) {
    const CellMaster& base = lib.master(b);
    for (std::size_t r = 0; r < sized().multipliers().size(); ++r) {
      const CellMaster& variant = lib.master(sized().at_rung(b, r));
      const double m = sized().multipliers()[r];
      ASSERT_EQ(variant.gates().size(), base.gates().size());
      ASSERT_EQ(variant.devices().size(), base.devices().size());
      ASSERT_EQ(variant.arcs().size(), base.arcs().size());
      EXPECT_DOUBLE_EQ(variant.width(), base.width());
      for (std::size_t gi = 0; gi < base.gates().size(); ++gi) {
        EXPECT_DOUBLE_EQ(variant.gates()[gi].x_center,
                         base.gates()[gi].x_center);
        EXPECT_DOUBLE_EQ(variant.gates()[gi].length, base.gates()[gi].length);
      }
      for (std::size_t di = 0; di < base.devices().size(); ++di)
        EXPECT_NEAR(variant.devices()[di].width,
                    base.devices()[di].width * m, 1e-9);
    }
  }
}

TEST(SizedLibrary, NetlistGenerationIsInvariantUnderExpansion) {
  const Netlist a = generate_iscas85_like("C432", flow().library());
  const Netlist b = generate_iscas85_like("C432", sized().library());
  ASSERT_EQ(a.gates().size(), b.gates().size());
  ASSERT_EQ(a.nets().size(), b.nets().size());
  for (std::size_t g = 0; g < a.gates().size(); ++g) {
    EXPECT_EQ(a.gates()[g].cell_index, b.gates()[g].cell_index);
    EXPECT_EQ(a.gates()[g].fanin_nets, b.gates()[g].fanin_nets);
    EXPECT_EQ(a.gates()[g].output_net, b.gates()[g].output_net);
  }
}

TEST(SizedLibrary, RejectsLadderWithoutUnitRung) {
  EXPECT_THROW(SizedLibrary(flow().library(), flow().config().electrical,
                            flow().library_opc_results(),
                            flow().boundary_model(), flow().config().bins,
                            {0.5, 2.0}),
               PreconditionError);
}

TEST(WhatIf, SizingSwapMatchesFullRunOnMutatedNetlist) {
  const Netlist nl = generate_iscas85_like("C432", sized().library());
  const Sta sta(nl, sized().characterized());
  const StaResult before = sta.run(UnitScale{});

  // Pick a few gates and swap each one rung up.
  for (const std::size_t g : {std::size_t{5}, std::size_t{40},
                              std::size_t{111}}) {
    const std::size_t to = sized().upsized(nl.gates()[g].cell_index);
    const StaResult what_if =
        sta.run_what_if(UnitScale{}, before, {{g, to}}, {});

    Netlist mutated = nl;
    mutated.set_gate_cell(g, to);
    const Sta sta_mut(mutated, sized().characterized());
    const StaResult full = sta_mut.run(UnitScale{});
    ASSERT_EQ(full.arrival_ps.size(), what_if.arrival_ps.size());
    for (std::size_t ni = 0; ni < full.arrival_ps.size(); ++ni) {
      EXPECT_DOUBLE_EQ(full.arrival_ps[ni], what_if.arrival_ps[ni]) << ni;
      EXPECT_DOUBLE_EQ(full.slew_ps[ni], what_if.slew_ps[ni]) << ni;
    }
    EXPECT_DOUBLE_EQ(full.critical_delay_ps, what_if.critical_delay_ps);
  }
}

TEST(WhatIf, CommittedSwapMatchesFreshSta) {
  Netlist nl = generate_iscas85_like("C432", sized().library());
  Sta sta(nl, sized().characterized());
  const std::size_t g = 17;
  const std::size_t to = sized().upsized(nl.gates()[g].cell_index);
  nl.set_gate_cell(g, to);
  sta.update_gate_master(g);
  const Sta fresh(nl, sized().characterized());
  const StaResult a = sta.run(UnitScale{});
  const StaResult b = fresh.run(UnitScale{});
  EXPECT_DOUBLE_EQ(a.critical_delay_ps, b.critical_delay_ps);
  for (std::size_t ni = 0; ni < a.arrival_ps.size(); ++ni)
    EXPECT_DOUBLE_EQ(a.arrival_ps[ni], b.arrival_ps[ni]) << ni;
}

TEST(NpsAfterShift, MatchesShiftedPlacementExtraction) {
  const Netlist nl = generate_iscas85_like("C432", sized().library());
  const Placement placement(nl, flow().config().placement);
  const auto before = extract_nps(placement);
  const Nm site = nl.library().master(0).tech().site_width;

  std::size_t tested = 0;
  for (std::size_t g = 0; g < nl.gates().size() && tested < 8; ++g) {
    const auto [lo, hi] = placement.shift_range(g);
    for (const Nm dx : {site, -site, 2 * site, -2 * site}) {
      if (dx > hi || dx < lo || dx == 0.0) continue;
      const auto updates = nps_after_shift(placement, g, dx);

      Placement shifted = placement;
      shifted.shift_instance(g, dx);
      const auto after = extract_nps(shifted);

      std::vector<char> touched(nl.gates().size(), 0);
      for (const NpsUpdate& u : updates) {
        touched[u.gate] = 1;
        EXPECT_DOUBLE_EQ(u.nps.lt, after[u.gate].lt) << u.gate;
        EXPECT_DOUBLE_EQ(u.nps.rt, after[u.gate].rt) << u.gate;
        EXPECT_DOUBLE_EQ(u.nps.lb, after[u.gate].lb) << u.gate;
        EXPECT_DOUBLE_EQ(u.nps.rb, after[u.gate].rb) << u.gate;
      }
      // Everything outside the update set must be untouched by the shift.
      for (std::size_t o = 0; o < nl.gates().size(); ++o) {
        if (touched[o]) continue;
        EXPECT_DOUBLE_EQ(before[o].lt, after[o].lt) << o;
        EXPECT_DOUBLE_EQ(before[o].rt, after[o].rt) << o;
        EXPECT_DOUBLE_EQ(before[o].lb, after[o].lb) << o;
        EXPECT_DOUBLE_EQ(before[o].rb, after[o].rb) << o;
      }
      ++tested;
    }
  }
  EXPECT_GT(tested, 0u);
}

TEST(NpsAfterShift, RejectsOutOfRangeShift) {
  const Netlist nl = generate_iscas85_like("C432", sized().library());
  const Placement placement(nl, flow().config().placement);
  const auto [lo, hi] = placement.shift_range(0);
  EXPECT_THROW(nps_after_shift(placement, 0, hi + 1000.0),
               PreconditionError);
}

/// Independent recomputation of the optimizer's committed worst slack:
/// fresh nps extraction from its placement, fresh version binding, a
/// fresh SvaCornerScale, and a fresh full STA run.
double recompute_worst_slack(const EcoOptimizer& opt) {
  const auto nps = extract_nps(opt.placement());
  const auto versions =
      assign_versions(nps, sized().context_library().bins());
  const SvaCornerScale wc(opt.netlist(), sized().context_library(), versions,
                          opt.config().budget, Corner::Worst,
                          opt.config().arc_policy, &nps,
                          &sized().context_cache());
  const Sta sta(opt.netlist(), sized().characterized(), opt.config().sta);
  return opt.config().clock_period_ps - sta.run(wc).critical_delay_ps;
}

TEST(Eco, C432ConvergesFromFailingClock) {
  EcoConfig cfg = eco_config();  // auto clock: 97% of the SVA WC delay
  EcoOptimizer opt(sized(), generate_iscas85_like("C432", sized().library()),
                   flow().config().placement, cfg);
  EXPECT_LT(opt.worst_slack_ps(), 0.0);  // unoptimized design fails

  const EcoResult result = opt.run();
  EXPECT_TRUE(result.met_timing);
  EXPECT_GE(result.final_worst_slack_ps, 0.0);
  EXPECT_GT(result.moves_committed(), 0u);
  EXPECT_LT(result.initial_worst_slack_ps, 0.0);
  EXPECT_EQ(result.trajectory.back().worst_slack_ps,
            result.final_worst_slack_ps);
  // Worst slack is monotone along the trajectory (every committed move
  // had positive gain on the worst path).
  double prev = result.initial_worst_slack_ps;
  for (const EcoMoveRecord& m : result.trajectory) {
    EXPECT_GT(m.worst_slack_ps, prev);
    prev = m.worst_slack_ps;
  }
}

TEST(Eco, CommittedStateIsExact) {
  EcoConfig cfg = eco_config();
  EcoOptimizer opt(sized(), generate_iscas85_like("C432", sized().library()),
                   flow().config().placement, cfg);
  opt.run();
  // The incrementally maintained worst slack equals a from-scratch
  // recomputation, bit for bit.
  EXPECT_DOUBLE_EQ(opt.worst_slack_ps(), recompute_worst_slack(opt));
}

TEST(Eco, SvaCornerClosesCheaperThanTraditional) {
  // Both optimizers chase the same clock: 97% of the *SVA* worst-case
  // delay.  The traditional corner sees the same physical design as
  // slower (uniform full-budget pessimism), so it must buy more drive
  // strength to satisfy the same sign-off check -- the paper's
  // over-design argument, measured.
  EcoConfig sva_cfg = eco_config();
  EcoOptimizer sva_opt(sized(),
                       generate_iscas85_like("C432", sized().library()),
                       flow().config().placement, sva_cfg);
  const EcoResult sva = sva_opt.run();
  ASSERT_TRUE(sva.met_timing);

  EcoConfig trad_cfg = eco_config();
  trad_cfg.mode = EcoCornerMode::TraditionalWorst;
  trad_cfg.clock_period_ps = sva.clock_period_ps;
  EcoOptimizer trad_opt(sized(),
                        generate_iscas85_like("C432", sized().library()),
                        flow().config().placement, trad_cfg);
  const EcoResult trad = trad_opt.run();
  ASSERT_TRUE(trad.met_timing);

  // The headline claim: fewer and smaller upsizes under the SVA corner.
  EXPECT_LT(sva.upsizes, trad.upsizes);
  EXPECT_LT(sva.upsize_area_delta, trad.upsize_area_delta);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Eco, TrajectoryIsScheduleIndependent) {
  // C880 under the SVA corner enumerates enough re-spacing candidates
  // that every thread count splits them over several pricing chunks.
  for (const char* circuit : {"C432", "C880"}) {
    std::vector<EcoResult> results;
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                      std::size_t{2}, std::size_t{8}}) {
      EcoOptimizer opt(sized(),
                       generate_iscas85_like(circuit, sized().library()),
                       flow().config().placement, eco_config());
      ThreadPool pool(threads);
      results.push_back(opt.run(&pool));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      const EcoResult& a = results[0];
      const EcoResult& b = results[i];
      ASSERT_EQ(a.moves_committed(), b.moves_committed()) << circuit << i;
      EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated);
      for (std::size_t m = 0; m < a.trajectory.size(); ++m) {
        EXPECT_EQ(a.trajectory[m].kind, b.trajectory[m].kind);
        EXPECT_EQ(a.trajectory[m].gate, b.trajectory[m].gate);
        EXPECT_EQ(a.trajectory[m].detail, b.trajectory[m].detail);
        EXPECT_EQ(bits(a.trajectory[m].gain_ps),
                  bits(b.trajectory[m].gain_ps))
            << circuit << " move " << m;
        EXPECT_EQ(bits(a.trajectory[m].worst_slack_ps),
                  bits(b.trajectory[m].worst_slack_ps))
            << circuit << " move " << m;
        EXPECT_EQ(bits(a.trajectory[m].area_delta),
                  bits(b.trajectory[m].area_delta));
      }
      EXPECT_EQ(bits(a.final_worst_slack_ps), bits(b.final_worst_slack_ps))
          << circuit << i;
    }
  }
}

TEST(Eco, RespaceOnlyLadderCommitsRespacesExactly) {
  // A one-rung ladder disables sizing entirely: the optimizer can only
  // re-space.  This exercises the respace commit path (placement shift,
  // nps/version/factor bookkeeping) end to end.
  static const SizedLibrary unsizable(
      flow().library(), flow().config().electrical,
      flow().library_opc_results(), flow().boundary_model(),
      flow().config().bins, {1.0});
  EcoConfig cfg = eco_config();
  cfg.auto_clock_fraction = 0.99;  // small deficit a few respaces can dent
  cfg.min_gain_ps = 0.001;
  EcoOptimizer opt(unsizable,
                   generate_iscas85_like("C432", unsizable.library()),
                   flow().config().placement, cfg);
  const double initial = opt.worst_slack_ps();
  const EcoResult result = opt.run();

  EXPECT_EQ(result.upsizes, 0u);
  EXPECT_EQ(result.downsizes, 0u);
  EXPECT_GT(result.respaces, 0u);
  EXPECT_GT(result.final_worst_slack_ps, initial);

  // Committed respace state equals a from-scratch recomputation.
  const auto nps = extract_nps(opt.placement());
  const auto versions =
      assign_versions(nps, unsizable.context_library().bins());
  const SvaCornerScale wc(opt.netlist(), unsizable.context_library(),
                          versions, cfg.budget, Corner::Worst,
                          cfg.arc_policy, &nps,
                          &unsizable.context_cache());
  const Sta sta(opt.netlist(), unsizable.characterized(), cfg.sta);
  EXPECT_DOUBLE_EQ(opt.worst_slack_ps(),
                   opt.config().clock_period_ps -
                       sta.run(wc).critical_delay_ps);
}

TEST(Eco, TraditionalModeEnumeratesNoRespaces) {
  EcoConfig cfg = eco_config();
  cfg.mode = EcoCornerMode::TraditionalWorst;
  EcoOptimizer opt(sized(), generate_iscas85_like("C432", sized().library()),
                   flow().config().placement, cfg);
  const EcoResult result = opt.run();
  EXPECT_EQ(result.respaces, 0u);
}

TEST(Eco, CancelledRunStopsBetweenCommitsWithCleanPrefix) {
  EcoConfig cfg = eco_config();
  EcoOptimizer opt(sized(), generate_iscas85_like("C432", sized().library()),
                   flow().config().placement, cfg);
  CancelToken token;
  token.request_cancel();
  const EcoResult result = opt.run(nullptr, &token);
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.met_timing);
  EXPECT_EQ(result.moves_committed(), 0u);  // tripped before iteration 1

  // A later run with a clear token continues from the committed state to
  // the same final result an uninterrupted run produces.
  EcoOptimizer fresh(sized(),
                     generate_iscas85_like("C432", sized().library()),
                     flow().config().placement, cfg);
  const EcoResult reference = fresh.run();
  const EcoResult continued = opt.run();
  EXPECT_FALSE(continued.cancelled);
  EXPECT_EQ(continued.moves_committed(), reference.moves_committed());
  EXPECT_EQ(continued.final_worst_slack_ps, reference.final_worst_slack_ps);
}

TEST(Eco, CheckpointRestoreResumesBitIdentically) {
  // Reference: one uninterrupted run.
  EcoConfig cfg = eco_config();
  EcoOptimizer full(sized(), generate_iscas85_like("C432", sized().library()),
                    flow().config().placement, cfg);
  const EcoResult reference = full.run();
  ASSERT_GE(reference.moves_committed(), 2u);

  // Interrupted run: a max_moves cap stands in for a mid-run cancellation
  // (both stop between commits, and the greedy prefix is independent of
  // the cap -- which is why max_moves is not part of the journal
  // identity).  Journal the half-way state.
  EcoConfig capped = cfg;
  capped.max_moves = reference.moves_committed() / 2;
  EcoOptimizer interrupted(
      sized(), generate_iscas85_like("C432", sized().library()),
      flow().config().placement, capped);
  const EcoResult prefix = interrupted.run();
  ASSERT_EQ(prefix.moves_committed(), capped.max_moves);
  const std::string ckpt = ::testing::TempDir() + "sva_opt_eco_resume.ckpt";
  interrupted.checkpoint(ckpt);

  // Restore under the full config (replay verifies every move's gain and
  // resulting slack bit-for-bit against the journal) and continue.
  EcoOptimizer resumed(sized(),
                       generate_iscas85_like("C432", sized().library()),
                       flow().config().placement, cfg);
  resumed.restore(ckpt);
  EXPECT_EQ(resumed.worst_slack_ps(), interrupted.worst_slack_ps());
  const EcoResult continued = resumed.run();
  EXPECT_FALSE(continued.cancelled);
  EXPECT_TRUE(continued.met_timing);
  EXPECT_EQ(continued.moves_committed(), reference.moves_committed());
  EXPECT_EQ(continued.final_worst_slack_ps, reference.final_worst_slack_ps);
  EXPECT_EQ(continued.candidates_evaluated, reference.candidates_evaluated);
  // The resume invariant, end to end: byte-identical trajectory CSV.
  EXPECT_EQ(trajectory_csv(continued), trajectory_csv(reference));
}

TEST(Eco, RestoreRefusesMismatchedIdentity) {
  EcoConfig cfg = eco_config();
  cfg.max_moves = 1;
  EcoOptimizer opt(sized(), generate_iscas85_like("C432", sized().library()),
                   flow().config().placement, cfg);
  opt.run();
  const std::string ckpt = ::testing::TempDir() + "sva_opt_eco_ident.ckpt";
  opt.checkpoint(ckpt);

  // Different circuit: the state hash refuses the journal.
  EcoOptimizer other(sized(),
                     generate_iscas85_like("C880", sized().library()),
                     flow().config().placement, cfg);
  EXPECT_THROW(other.restore(ckpt), Error);
  // A config change that shapes the trajectory (the pricing window) is
  // part of the identity too.
  EcoConfig wider = cfg;
  wider.near_critical_window_ps += 1.0;
  EcoOptimizer reshaped(sized(),
                        generate_iscas85_like("C432", sized().library()),
                        flow().config().placement, wider);
  EXPECT_THROW(reshaped.restore(ckpt), Error);
  // restore() must come before any committed move.
  EcoOptimizer ran(sized(), generate_iscas85_like("C432", sized().library()),
                   flow().config().placement, cfg);
  ran.run();
  EXPECT_THROW(ran.restore(ckpt), Error);
}

TEST(Eco, RendersTrajectoryTableAndCsv) {
  EcoConfig cfg = eco_config();
  cfg.max_moves = 2;
  EcoOptimizer opt(sized(), generate_iscas85_like("C432", sized().library()),
                   flow().config().placement, cfg);
  const EcoResult result = opt.run();
  const std::string table = trajectory_table(result);
  EXPECT_NE(table.find("Gain ps"), std::string::npos);
  EXPECT_NE(table.find("C432"), std::string::npos);
  const std::string csv = trajectory_csv(result);
  EXPECT_NE(csv.find("move,kind,gate,detail,gain_ps,worst_slack_ps,"
                     "area_delta"),
            std::string::npos);
  // One header line plus one line per committed move.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            result.moves_committed() + 1);
}

// ---------------------------------------------------------------------------
// Differential what-if fuzz along committed ECO trajectories.  The walker
// below replays an optimizer's committed moves through the same Sta calls
// the optimizer makes (price_what_if on a mirror, apply_what_if at
// commit), and at every step prices random sizing and re-spacing
// candidates.  Every comparison is bitwise.

/// The committed corner-factor row of `gate` at spacing `nps`, derived
/// the way the optimizer derives it.
std::vector<double> factor_row(const Netlist& nl, std::size_t gate,
                               const InstanceNps& nps, const EcoConfig& cfg) {
  const CellMaster& master = nl.library().master(nl.gates()[gate].cell_index);
  if (cfg.mode == EcoCornerMode::TraditionalWorst) {
    const TraditionalCornerScale trad(master.tech().gate_length, cfg.budget,
                                      Corner::Worst);
    return std::vector<double>(master.arcs().size(), trad.factor());
  }
  const VersionKey version =
      nps_to_version(nps, sized().context_library().bins());
  const auto annotations = annotate_gate_arcs(
      nl, gate, sized().context_library(), version, cfg.budget,
      cfg.arc_policy, 0.0, &nps, &sized().context_cache());
  return gate_corner_factors(nl, gate, annotations, cfg.budget,
                             Corner::Worst);
}

void expect_same_timing(const StaResult& a, const StaResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.arrival_ps.size(), b.arrival_ps.size()) << what;
  for (std::size_t ni = 0; ni < a.arrival_ps.size(); ++ni) {
    ASSERT_EQ(bits(a.arrival_ps[ni]), bits(b.arrival_ps[ni]))
        << what << " arrival net " << ni;
    ASSERT_EQ(bits(a.slew_ps[ni]), bits(b.slew_ps[ni]))
        << what << " slew net " << ni;
    ASSERT_EQ(a.from_net[ni], b.from_net[ni]) << what << " from net " << ni;
  }
  ASSERT_EQ(bits(a.critical_delay_ps), bits(b.critical_delay_ps)) << what;
  ASSERT_EQ(a.critical_po_net, b.critical_po_net) << what;
  ASSERT_EQ(a.critical_path, b.critical_path) << what;
}

/// A re-spacing candidate's factor overlay, built like the optimizer's.
struct RespaceEdit {
  std::vector<NpsUpdate> updates;
  std::vector<OverlayScale::Row> rows;
  std::vector<std::size_t> changed;
};

RespaceEdit respace_edit(const Netlist& nl, const Placement& placement,
                         const std::vector<std::vector<double>>& factors,
                         std::size_t gate, Nm dx, const EcoConfig& cfg) {
  RespaceEdit edit;
  edit.updates = nps_after_shift(placement, gate, dx);
  for (const NpsUpdate& u : edit.updates) {
    std::vector<double> row = factor_row(nl, u.gate, u.nps, cfg);
    if (row != factors[u.gate]) edit.changed.push_back(u.gate);
    edit.rows.emplace_back(u.gate, std::move(row));
  }
  return edit;
}

struct TrajectoryCase {
  const char* circuit;
  EcoCornerMode mode;
};

std::ostream& operator<<(std::ostream& os, const TrajectoryCase& c) {
  return os << c.circuit << "_" << eco_corner_mode_name(c.mode);
}

class WhatIfTrajectory : public ::testing::TestWithParam<TrajectoryCase> {};

TEST_P(WhatIfTrajectory, PricingMatchesScalarOracleAndRollsBack) {
  const auto [circuit, mode] = GetParam();
  EcoConfig cfg = eco_config();
  cfg.mode = mode;
  EcoOptimizer opt(sized(), generate_iscas85_like(circuit, sized().library()),
                   flow().config().placement, cfg);
  const EcoResult eco = opt.run();
  const std::vector<Move>& moves = opt.committed_moves();
  ASSERT_GT(moves.size(), 0u);
  const double clock = opt.config().clock_period_ps;
  const CharacterizedLibrary& charlib = sized().characterized();

  // The walker's design, built from the optimizer's inputs.
  Netlist nl = generate_iscas85_like(circuit, sized().library());
  Placement placement(nl, flow().config().placement);
  std::vector<InstanceNps> nps = extract_nps(placement);
  std::vector<std::vector<double>> factors(nl.gates().size());
  for (std::size_t g = 0; g < nl.gates().size(); ++g)
    factors[g] = factor_row(nl, g, nps[g], cfg);
  Sta sta(nl, charlib, cfg.sta);
  StaResult current = sta.run(FactorsScale(factors));
  ASSERT_EQ(bits(clock - current.critical_delay_ps),
            bits(eco.initial_worst_slack_ps));

  StaResult mirror = current;
  Sta::Workspace work;
  Rng rng(std::string("whatif-trajectory-") + circuit +
          eco_corner_mode_name(mode));
  const Nm site = nl.library().master(0).tech().site_width;
  std::size_t priced_sizing = 0, priced_respace = 0;
  for (std::size_t step = 0;; ++step) {
    const std::string at = std::string(circuit) + " step " +
                           std::to_string(step);
    for (int trial = 0; trial < 24; ++trial) {
      const auto g = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(nl.gates().size()) - 1));
      const std::int64_t kind = rng.uniform_int(0, 2);
      if (kind < 2) {
        // Sizing: priced against a fresh Sta on a really mutated netlist.
        const std::size_t cell = nl.gates()[g].cell_index;
        if (kind == 0 ? !sized().can_upsize(cell)
                      : !sized().can_downsize(cell))
          continue;
        const Sta::GateCellOverride swap{
            g, kind == 0 ? sized().upsized(cell) : sized().downsized(cell)};
        const FactorsScale scale(factors);
        const double priced = sta.price_what_if(
            scale, std::span(&swap, 1), {}, mirror, work);
        Netlist mutated = nl;
        mutated.set_gate_cell(swap.gate, swap.cell_index);
        const Sta fresh(mutated, charlib, cfg.sta);
        ASSERT_EQ(bits(priced),
                  bits(ScalarSta(fresh, mutated).run(scale).critical_delay_ps))
            << at << " sizing gate " << g;
        ++priced_sizing;
      } else {
        // Re-spacing: priced against the scalar oracle with the overlay.
        const auto [lo, hi] = placement.shift_range(g);
        const Nm dx = static_cast<double>(rng.uniform_int(1, 2)) * site *
                      (rng.uniform_int(0, 1) == 0 ? -1.0 : 1.0);
        if (dx < lo || dx > hi) continue;
        const RespaceEdit edit =
            respace_edit(nl, placement, factors, g, dx, cfg);
        const OverlayScale scale(factors, edit.rows);
        const double priced =
            sta.price_what_if(scale, {}, edit.changed, mirror, work);
        ASSERT_EQ(bits(priced),
                  bits(ScalarSta(sta, nl).run(scale).critical_delay_ps))
            << at << " respace gate " << g;
        ++priced_respace;
      }
      // Rollback leaves the mirror exactly the committed timing.
      expect_same_timing(mirror, current, at + " rollback");
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (step == moves.size()) break;

    // Commit the optimizer's next move the way the optimizer does:
    // propagate it alone into the committed timing, then mutate.
    const Move& m = moves[step];
    if (m.kind == MoveKind::Respace) {
      RespaceEdit edit = respace_edit(nl, placement, factors, m.gate, m.dx,
                                      cfg);
      sta.apply_what_if(OverlayScale(factors, edit.rows), {}, edit.changed,
                        current, work);
      placement.shift_instance(m.gate, m.dx);
      for (const NpsUpdate& u : edit.updates) nps[u.gate] = u.nps;
      for (OverlayScale::Row& row : edit.rows)
        factors[row.first] = std::move(row.second);
    } else {
      const Sta::GateCellOverride swap{m.gate, m.to_cell};
      sta.apply_what_if(FactorsScale(factors), std::span(&swap, 1), {},
                        current, work);
      nl.set_gate_cell(m.gate, m.to_cell);
      sta.update_gate_master(m.gate);
    }
    // The committed timing is a fresh full analysis of the mutated
    // design, and the optimizer's committed state.
    const Sta fresh(nl, charlib, cfg.sta);
    expect_same_timing(current, fresh.run(FactorsScale(factors)),
                       at + " commit");
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(bits(clock - current.critical_delay_ps),
              bits(eco.trajectory[step].worst_slack_ps))
        << at;
    mirror = current;
  }
  EXPECT_GT(priced_sizing, 0u);
  EXPECT_GT(priced_respace, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Iscas85, WhatIfTrajectory,
    ::testing::Values(TrajectoryCase{"C432", EcoCornerMode::SvaWorst},
                      TrajectoryCase{"C432", EcoCornerMode::TraditionalWorst},
                      TrajectoryCase{"C880", EcoCornerMode::SvaWorst},
                      TrajectoryCase{"C880", EcoCornerMode::TraditionalWorst},
                      TrajectoryCase{"C1908", EcoCornerMode::SvaWorst},
                      TrajectoryCase{"C1908",
                                     EcoCornerMode::TraditionalWorst}),
    [](const ::testing::TestParamInfo<TrajectoryCase>& info) {
      std::ostringstream name;
      name << info.param;
      return name.str();
    });

}  // namespace
}  // namespace sva
