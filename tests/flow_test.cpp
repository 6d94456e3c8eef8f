// Integration tests of the end-to-end SVA timing flow: the Table 2
// properties the paper reports must hold on our reproduction.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "core/flow.hpp"
#include "opc/pitch_table.hpp"
#include "util/serialize.hpp"

namespace sva {
namespace {

/// One flow shared by all tests in this file (construction runs library
/// OPC and pitch characterization).
const SvaFlow& flow() {
  static const SvaFlow f{FlowConfig{}};
  return f;
}

TEST(Flow, SetupArtifactsPresent) {
  EXPECT_EQ(flow().library().size(), 10u);
  EXPECT_EQ(flow().library_opc_results().size(), 10u);
  EXPECT_EQ(flow().pitch_points().size(),
            flow().config().table_spacings.size());
  EXPECT_GT(flow().setup_opc_seconds(), 0.0);
}

TEST(Flow, LithoModelsFromConfigReproduceSetup) {
  // The flow drops its litho models after a cold setup; models rebuilt
  // from its config (as the full-chip OPC benches do) must be the same
  // models, so they reproduce the setup's pitch table bit for bit.
  const LithoModels litho(flow().config());
  const std::vector<PostOpcPitchPoint> points = characterize_post_opc_pitch(
      litho.engine(), flow().config().cell_tech.gate_length,
      flow().config().table_spacings);
  ASSERT_EQ(points.size(), flow().pitch_points().size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].printed_cd, flow().pitch_points()[i].printed_cd);
    EXPECT_EQ(points[i].mask_bias, flow().pitch_points()[i].mask_bias);
  }
}

TEST(Flow, PitchTableShowsResidualBias) {
  // Post-OPC residual through-pitch variation must be present (it is what
  // the whole methodology exploits) and bounded (OPC works).
  const Nm half_range = post_opc_pitch_half_range(flow().pitch_points());
  EXPECT_GT(half_range, 0.5);
  EXPECT_LT(half_range, 0.10 * 90.0);
}

TEST(Flow, InteriorCdsPlausible) {
  for (std::size_t ci = 0; ci < flow().library().size(); ++ci) {
    const auto& r = flow().library_opc_results()[ci];
    for (Nm cd : r.device_cd) {
      EXPECT_GT(cd, 70.0);
      EXPECT_LT(cd, 110.0);
    }
  }
}

TEST(Flow, VersionBindingCoversMultipleVersions) {
  const Netlist nl = flow().make_benchmark("C432");
  const Placement p = flow().make_placement(nl);
  const auto versions = flow().bind_versions(p);
  ASSERT_EQ(versions.size(), nl.gates().size());
  std::set<std::size_t> distinct;
  for (const auto& v : versions) distinct.insert(version_index(v, 3));
  EXPECT_GE(distinct.size(), 5u);
}

TEST(Flow, Table2PropertiesOnC432) {
  const CircuitAnalysis a = flow().analyze_benchmark("C432");
  EXPECT_EQ(a.gate_count, 160u);

  // Corner ordering in both flows.
  EXPECT_LT(a.trad_bc_ps, a.trad_nom_ps);
  EXPECT_LT(a.trad_nom_ps, a.trad_wc_ps);
  EXPECT_LT(a.sva_bc_ps, a.sva_nom_ps);
  EXPECT_LT(a.sva_nom_ps, a.sva_wc_ps);

  // The headline result: spread shrinks, in the ballpark the paper
  // reports (28-40%; we accept a slightly wider acceptance band).
  EXPECT_GT(a.uncertainty_reduction(), 0.20);
  EXPECT_LT(a.uncertainty_reduction(), 0.55);

  // SVA corners are inside the traditional ones.
  EXPECT_LE(a.sva_wc_ps, a.trad_wc_ps);
  EXPECT_GE(a.sva_bc_ps, a.trad_bc_ps);
}

TEST(Flow, NominalImprovesBecauseMostDevicesPrintThin) {
  // Paper: "the nominal timing improves when through-pitch variation is
  // accounted for" (most devices are isolated and print below drawn CD).
  const CircuitAnalysis a = flow().analyze_benchmark("C432");
  EXPECT_LE(a.sva_nom_ps, a.trad_nom_ps * 1.01);
}

TEST(Flow, AllArcClassesOccur) {
  const CircuitAnalysis a = flow().analyze_benchmark("C880");
  ASSERT_EQ(a.arc_class_counts.size(), 3u);
  EXPECT_GT(a.arc_class_counts[0], 0u);  // smile
  EXPECT_GT(a.arc_class_counts[1], 0u);  // frown
  EXPECT_GT(a.arc_class_counts[2], 0u);  // self-compensated
}

TEST(Flow, AnalysisDeterministic) {
  const CircuitAnalysis a = flow().analyze_benchmark("C432");
  const CircuitAnalysis b = flow().analyze_benchmark("C432");
  EXPECT_DOUBLE_EQ(a.sva_wc_ps, b.sva_wc_ps);
  EXPECT_DOUBLE_EQ(a.trad_wc_ps, b.trad_wc_ps);
}

TEST(Flow, ZeroSystematicSharesKeepCornersClose) {
  // Budget ablation: with no systematic shares, the only SVA effect left
  // is the context-aware nominal shift; the spread reduction collapses.
  FlowConfig config;
  config.budget.pitch_share = 0.0;
  config.budget.focus_share = 0.0;
  const SvaFlow no_trim{config};
  const CircuitAnalysis a = no_trim.analyze_benchmark("C432");
  EXPECT_LT(a.uncertainty_reduction(), 0.10);
}

TEST(Flow, ConservativePolicyReducesLessOrEqual) {
  FlowConfig conservative;
  conservative.arc_policy = ArcLabelPolicy::Conservative;
  const SvaFlow f2{conservative};
  const CircuitAnalysis a = flow().analyze_benchmark("C432");
  const CircuitAnalysis b = f2.analyze_benchmark("C432");
  // Conservative labeling gives more self-compensated arcs.  SC arcs trim
  // focus on both sides, so the spread cannot grow.
  EXPECT_LE(b.sva_spread_ps(), a.sva_spread_ps() * 1.05);
}

// Property: Table 2 invariants hold across several benchmark sizes.
class BenchmarkSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkSweep, SpreadReductionInBand) {
  const CircuitAnalysis a = flow().analyze_benchmark(GetParam());
  EXPECT_GT(a.uncertainty_reduction(), 0.15) << GetParam();
  EXPECT_LT(a.uncertainty_reduction(), 0.60) << GetParam();
  EXPECT_LE(a.sva_wc_ps, a.trad_wc_ps);
  EXPECT_GE(a.sva_bc_ps, a.trad_bc_ps);
}

INSTANTIATE_TEST_SUITE_P(Table2, BenchmarkSweep,
                         ::testing::Values("C432", "C880", "C1355"));

// ------------------------------------------- front-half products

/// FNV-1a digest of everything the flow's front half produces for one
/// circuit: the mapped netlist, the placement, the measured nps, the bound
/// versions, the arc annotations and the three SVA corner-factor matrices.
std::uint64_t front_half_digest(const std::string& name) {
  const FlowConfig& fc = flow().config();
  const Netlist nl = flow().make_benchmark(name);
  const Placement placement = flow().make_placement(nl);
  const std::vector<InstanceNps> nps = extract_nps(placement);
  const std::vector<VersionKey> versions = assign_versions(nps, fc.bins);
  const auto annotations =
      annotate_arcs(nl, flow().context_library(), versions, fc.budget,
                    fc.arc_policy, 0.0, &nps, &flow().context_cache());

  Fnv1aHasher h;
  h.str(nl.name());
  for (const Net& net : nl.nets())
    h.str(net.name).u64(net.is_primary_output ? 1 : 0);
  for (const GateInst& g : nl.gates()) {
    h.str(g.name).u64(g.cell_index).u64(g.output_net);
    for (std::size_t n : g.fanin_nets) h.u64(n);
  }
  for (const PlacedInstance& inst : placement.instances()) h.f64(inst.x);
  for (const InstanceNps& n : nps) h.f64(n.lt).f64(n.rt).f64(n.lb).f64(n.rb);
  for (const VersionKey& v : versions)
    h.u64(version_index(v, fc.bins.count()));
  for (const auto& gate : annotations)
    for (const ArcAnnotation& a : gate)
      h.f64(a.l_nom_new)
          .u64(static_cast<std::uint64_t>(a.arc_class))
          .f64(a.corners.bc)
          .f64(a.corners.nom)
          .f64(a.corners.wc);
  for (Corner c : {Corner::Nominal, Corner::Best, Corner::Worst})
    for (const std::vector<double>& row :
         corner_factors(nl, annotations, fc.budget, c))
      h.vec_f64(row);
  return h.digest();
}

TEST(FlowFrontHalf, DigestsPinnedOnAllIscas85) {
  // A change in any of these products must be deliberate: speed work on
  // the front half keeps every digest.
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"C432", 0x78c5ddd809c7aacaull},
      {"C499", 0x605b384df6cca158ull},
      {"C880", 0x754adefca0ae8148ull},
      {"C1355", 0x384908042e57e627ull},
      {"C1908", 0x8b983ffe2f75f225ull},
      {"C2670", 0xc47e4764f242ec1aull},
      {"C3540", 0x1dda9ba371dc650eull},
      {"C5315", 0xd93160e8902415a1ull},
      {"C6288", 0xbaa9cb50d2939c89ull},
      {"C7552", 0x8f563243e79a9c24ull},
  };
  for (const auto& [name, digest] : expected)
    EXPECT_EQ(front_half_digest(name), digest)
        << name << " 0x" << std::hex << front_half_digest(name);
}

// ------------------------------------------- persistent warm start

TEST(FlowCache, WarmStartIsBitIdenticalToCold) {
  const std::string dir = ::testing::TempDir() + "sva_flow_cache";
  std::filesystem::remove_all(dir);
  FlowConfig config;
  config.cache_dir = dir;

  // Cold run: computes the setup products and snapshots them (plus the
  // context-cache slots it touches).
  const SvaFlow cold{config};
  EXPECT_FALSE(cold.setup_from_cache());
  const CircuitAnalysis a = cold.analyze_benchmark("C432");
  cold.context_cache().save(dir);

  // Warm run: everything restored from disk.
  const SvaFlow warm{config};
  EXPECT_TRUE(warm.setup_from_cache());
  EXPECT_TRUE(warm.context_cache().try_load(dir));
  EXPECT_GT(warm.context_cache().stats().disk_hits, 0u);

  // The restored products are the exact bytes the cold run computed...
  ASSERT_EQ(warm.library_opc_results().size(),
            cold.library_opc_results().size());
  for (std::size_t ci = 0; ci < cold.library_opc_results().size(); ++ci) {
    EXPECT_EQ(warm.library_opc_results()[ci].device_cd,
              cold.library_opc_results()[ci].device_cd);
    EXPECT_EQ(warm.library_opc_results()[ci].device_mask_width,
              cold.library_opc_results()[ci].device_mask_width);
  }
  ASSERT_EQ(warm.pitch_points().size(), cold.pitch_points().size());
  for (std::size_t i = 0; i < cold.pitch_points().size(); ++i)
    EXPECT_EQ(warm.pitch_points()[i].printed_cd,
              cold.pitch_points()[i].printed_cd);

  // ...so the full analysis is bit-identical, not merely close.
  const CircuitAnalysis b = warm.analyze_benchmark("C432");
  EXPECT_EQ(a.trad_nom_ps, b.trad_nom_ps);
  EXPECT_EQ(a.trad_bc_ps, b.trad_bc_ps);
  EXPECT_EQ(a.trad_wc_ps, b.trad_wc_ps);
  EXPECT_EQ(a.sva_nom_ps, b.sva_nom_ps);
  EXPECT_EQ(a.sva_bc_ps, b.sva_bc_ps);
  EXPECT_EQ(a.sva_wc_ps, b.sva_wc_ps);
  EXPECT_EQ(a.arc_class_counts, b.arc_class_counts);
}

TEST(FlowCache, CorruptSetupSnapshotFallsBackToColdComputation) {
  const std::string dir = ::testing::TempDir() + "sva_flow_cache_corrupt";
  std::filesystem::remove_all(dir);
  FlowConfig config;
  config.cache_dir = dir;

  const SvaFlow seed{config};
  const std::string path = seed.setup_cache_file_path(dir);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a snapshot";
  }
  const SvaFlow recovered{config};
  EXPECT_FALSE(recovered.setup_from_cache());
  // The cold recomputation overwrote the mangled file with a good one.
  const SvaFlow warm{config};
  EXPECT_TRUE(warm.setup_from_cache());
  for (std::size_t i = 0; i < seed.pitch_points().size(); ++i)
    EXPECT_EQ(warm.pitch_points()[i].printed_cd,
              seed.pitch_points()[i].printed_cd);
}

TEST(FlowCache, StaleSnapshotIsIgnoredAcrossConfigs) {
  const std::string dir = ::testing::TempDir() + "sva_flow_cache_stale";
  std::filesystem::remove_all(dir);
  FlowConfig config;
  config.cache_dir = dir;
  const SvaFlow base{config};

  // A different OPC budget keys a different snapshot file, so the two
  // configurations never cross-contaminate.
  FlowConfig other = config;
  other.opc.max_iterations += 1;
  const SvaFlow changed{other};
  EXPECT_FALSE(changed.setup_from_cache());
  EXPECT_NE(base.setup_content_hash(), changed.setup_content_hash());
  EXPECT_NE(base.setup_cache_file_path(dir),
            changed.setup_cache_file_path(dir));

  // Each configuration warm-starts from its own snapshot.
  EXPECT_TRUE(SvaFlow{config}.setup_from_cache());
  EXPECT_TRUE(SvaFlow{other}.setup_from_cache());
}

}  // namespace
}  // namespace sva
