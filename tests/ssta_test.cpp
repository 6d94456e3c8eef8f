// Tests for the block-based SSTA engine: canonical-form algebra, the
// Clark moment-matched max against brute-force two-Gaussian Monte-Carlo,
// full-circuit agreement with the context-aware MC oracle, bit identity
// with the dense reference propagation and across thread counts,
// criticality conservation, and the fault / diagnostics surface of the
// ssta job.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/statistical.hpp"
#include "engine/options.hpp"
#include "engine/thread_pool.hpp"
#include "server/jobs.hpp"
#include "ssta/canonical.hpp"
#include "ssta/criticality.hpp"
#include "ssta/propagate.hpp"
#include "ssta_dense_oracle.hpp"
#include "sta/sta.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/stats.hpp"

namespace sva {
namespace {

/// Flow construction runs library OPC; share one instance across tests.
const SvaFlow& flow() {
  static const SvaFlow* f = new SvaFlow(FlowConfig{});
  return *f;
}

SstaVariationModel default_model() {
  SstaVariationModel model;
  model.budget = flow().config().budget;
  model.policy = flow().config().arc_policy;
  return model;
}

// ------------------------------------------------------------- canonical

TEST(Canonical, SumIsExact) {
  const CanonicalDelay a{10.0, 2.0, 1.0, 3.0};
  const CanonicalDelay b{5.0, -1.0, 2.0, 4.0};
  const CanonicalDelay s = canonical_sum(a, b);
  EXPECT_DOUBLE_EQ(s.mean_ps, 15.0);
  EXPECT_DOUBLE_EQ(s.a_focus_ps, 1.0);
  EXPECT_DOUBLE_EQ(s.a_global_ps, 3.0);
  // Independent locals add in quadrature.
  EXPECT_DOUBLE_EQ(s.local_ps, 5.0);
}

TEST(Canonical, ScaleIsLinear) {
  const CanonicalDelay d{10.0, 2.0, 1.0, 3.0};
  const CanonicalDelay s = canonical_scale(d, 2.5);
  EXPECT_DOUBLE_EQ(s.mean_ps, 25.0);
  EXPECT_DOUBLE_EQ(s.a_focus_ps, 5.0);
  EXPECT_DOUBLE_EQ(s.a_global_ps, 2.5);
  EXPECT_DOUBLE_EQ(s.local_ps, 7.5);
  EXPECT_DOUBLE_EQ(s.variance_ps2(), 6.25 * d.variance_ps2());
}

TEST(Canonical, CovarianceUsesSharedTermsOnly) {
  const CanonicalDelay a{0.0, 2.0, 3.0, 100.0};
  const CanonicalDelay b{0.0, 4.0, -1.0, 100.0};
  EXPECT_DOUBLE_EQ(canonical_covariance_ps2(a, b), 2.0 * 4.0 - 3.0);
}

TEST(Canonical, NormalQuantileInvertsCdf) {
  for (const double p : {0.001, 0.1, 0.5, 0.9, 0.999, 0.9999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-12);
  }
  EXPECT_DOUBLE_EQ(normal_quantile(0.5), 0.0);
}

TEST(Canonical, ClarkMaxMatchesBruteForceMonteCarlo) {
  // Two correlated canonical forms; the correlation comes only from the
  // shared focus/global variables, exactly as in propagation.
  const CanonicalDelay a{100.0, 6.0, 2.0, 5.0};
  const CanonicalDelay b{102.0, -3.0, 4.0, 8.0};
  const ClarkMax m = clark_max(a, b);

  Rng rng(1234);
  const std::size_t n = 400000;
  std::vector<double> samples(n);
  std::size_t a_wins = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double xf = rng.normal();
    const double xg = rng.normal();
    const double va = a.mean_ps + a.a_focus_ps * xf + a.a_global_ps * xg +
                      a.local_ps * rng.normal();
    const double vb = b.mean_ps + b.a_focus_ps * xf + b.a_global_ps * xg +
                      b.local_ps * rng.normal();
    samples[i] = std::max(va, vb);
    if (va >= vb) ++a_wins;
  }
  const Summary s = summarize(samples);
  EXPECT_NEAR(m.value.mean_ps, s.mean, 0.05);
  EXPECT_NEAR(m.value.sigma_ps(), s.stddev, 0.05);
  EXPECT_NEAR(m.tightness_a, static_cast<double>(a_wins) / n, 0.01);
}

TEST(Canonical, ClarkMaxDegenerateTieKeepsIncumbent) {
  // Identical forms: theta ~ 0, and the strict-`>` Sta winner rule means
  // the incumbent (`a`) keeps the max.
  const CanonicalDelay a{50.0, 3.0, 1.0, 0.0};
  const ClarkMax m = clark_max(a, a);
  EXPECT_DOUBLE_EQ(m.tightness_a, 1.0);
  EXPECT_DOUBLE_EQ(m.value.mean_ps, a.mean_ps);
}

TEST(Canonical, ClarkMaxDominantInputSaturates) {
  const CanonicalDelay a{100.0, 0.0, 0.0, 1.0};
  const CanonicalDelay b{200.0, 0.0, 0.0, 1.0};
  const ClarkMax m = clark_max(a, b);
  EXPECT_DOUBLE_EQ(m.tightness_a, 0.0);
  EXPECT_DOUBLE_EQ(m.value.mean_ps, b.mean_ps);
}

TEST(Canonical, ClarkMaxExplicitLocalCovariance) {
  // Fully correlated locals (cov = la*lb) with equal variances: the max
  // degenerates to pick-by-mean, which the Clark overload must detect.
  const CanonicalDelay a{100.0, 2.0, 0.0, 6.0};
  const CanonicalDelay b{104.0, 2.0, 0.0, 6.0};
  const ClarkMax m = clark_max(a, b, a.local_ps * b.local_ps);
  EXPECT_DOUBLE_EQ(m.tightness_a, 0.0);
  EXPECT_DOUBLE_EQ(m.value.mean_ps, b.mean_ps);
  // Independent locals keep a genuine statistical max.
  const ClarkMax ind = clark_max(a, b, 0.0);
  EXPECT_GT(ind.tightness_a, 0.0);
  EXPECT_GT(ind.value.mean_ps, b.mean_ps);
}

// --------------------------------------------------- MC-oracle agreement

/// SSTA mean/sigma must track a 10k-sample context-aware Monte-Carlo
/// within 2% / 5% -- the acceptance bar for the analytical engine.
void expect_matches_mc(const std::string& name) {
  const Netlist nl = flow().make_benchmark(name);
  const Placement placement = flow().make_placement(nl);
  const std::vector<VersionKey> versions = flow().bind_versions(placement);
  const SstaVariationModel model = default_model();
  const SstaEngine engine(nl, flow().characterized(), flow().context_library(),
                          versions, model, flow().config().sta,
                          &flow().context_cache());
  const SstaResult ssta = engine.run();

  const Sta sta(nl, flow().characterized(), flow().config().sta);
  const ContextAwareSampler sampler(nl, flow().context_library(), versions,
                                    model.budget, model.policy,
                                    model.global_share);
  MonteCarloConfig mc;
  mc.samples = 10000;
  const Summary s = run_monte_carlo(sta, sampler, mc).summary();

  EXPECT_NEAR(ssta.critical.mean_ps, s.mean, 0.02 * s.mean) << name;
  EXPECT_NEAR(ssta.critical.sigma_ps(), s.stddev, 0.05 * s.stddev) << name;
}

TEST(SstaOracle, C432MatchesMonteCarlo) { expect_matches_mc("C432"); }
TEST(SstaOracle, C880MatchesMonteCarlo) { expect_matches_mc("C880"); }
TEST(SstaOracle, C1908MatchesMonteCarlo) { expect_matches_mc("C1908"); }

// ------------------------------------------- bit identity: dense, parallel

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool same_bits(const CanonicalDelay& a, const CanonicalDelay& b) {
  return bits(a.mean_ps) == bits(b.mean_ps) &&
         bits(a.a_focus_ps) == bits(b.a_focus_ps) &&
         bits(a.a_global_ps) == bits(b.a_global_ps) &&
         bits(a.local_ps) == bits(b.local_ps);
}

bool same_bits(const SlewSensitivity& a, const SlewSensitivity& b) {
  return bits(a.a_focus_ps) == bits(b.a_focus_ps) &&
         bits(a.a_global_ps) == bits(b.a_global_ps) &&
         bits(a.local_ps) == bits(b.local_ps);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (bits(a[i]) != bits(b[i])) return false;
  return true;
}

/// Success iff every SstaResult field matches bit for bit; otherwise
/// names the first differing field.
::testing::AssertionResult bit_identical(const SstaResult& got,
                                         const SstaResult& want) {
  const auto differ = [](const char* field, std::size_t i) {
    return ::testing::AssertionFailure() << field << "[" << i << "] differs";
  };
  if (got.arrival.size() != want.arrival.size()) return differ("arrival", 0);
  for (std::size_t i = 0; i < want.arrival.size(); ++i)
    if (!same_bits(got.arrival[i], want.arrival[i]))
      return differ("arrival", i);
  if (got.slew_sens.size() != want.slew_sens.size())
    return differ("slew_sens", 0);
  for (std::size_t i = 0; i < want.slew_sens.size(); ++i)
    if (!same_bits(got.slew_sens[i], want.slew_sens[i]))
      return differ("slew_sens", i);
  if (got.gate_pin_tightness.size() != want.gate_pin_tightness.size())
    return differ("gate_pin_tightness", 0);
  for (std::size_t i = 0; i < want.gate_pin_tightness.size(); ++i)
    if (!same_bits(got.gate_pin_tightness[i], want.gate_pin_tightness[i]))
      return differ("gate_pin_tightness", i);
  if (!same_bits(got.critical, want.critical)) return differ("critical", 0);
  if (got.po_nets != want.po_nets) return differ("po_nets", 0);
  if (!same_bits(got.po_tightness, want.po_tightness))
    return differ("po_tightness", 0);
  return ::testing::AssertionSuccess();
}

TEST(SstaParallel, BitIdenticalAtAnyThreadCount) {
  const Netlist nl = flow().make_benchmark("C880");
  const Placement placement = flow().make_placement(nl);
  const std::vector<VersionKey> versions = flow().bind_versions(placement);
  const SstaEngine engine(nl, flow().characterized(), flow().context_library(),
                          versions, default_model(), flow().config().sta,
                          &flow().context_cache());
  const SstaResult serial = engine.run();

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_TRUE(bit_identical(engine.run_parallel(pool), serial)) << threads;
    // C880's widest level (22 gates) is wide enough to split, so the
    // pool really ran tasks: the forked branch is what this test covers.
    EXPECT_GT(pool.stats().executed, 0u) << threads;
  }
}

/// The sparse engine against the dense oracle on one circuit, at both
/// global shares, serial and levelized-parallel.
class SstaDense : public ::testing::TestWithParam<const char*> {};

TEST_P(SstaDense, BitIdenticalToDenseOracle) {
  const Netlist nl = flow().make_benchmark(GetParam());
  const Placement placement = flow().make_placement(nl);
  const std::vector<VersionKey> versions = flow().bind_versions(placement);
  for (const double global_share : {0.0, 0.3}) {
    SstaVariationModel model = default_model();
    model.global_share = global_share;
    const SstaEngine engine(nl, flow().characterized(),
                            flow().context_library(), versions, model,
                            flow().config().sta, &flow().context_cache());
    const SstaResult dense =
        dense_ssta(engine, flow().characterized(), flow().config().sta);
    EXPECT_TRUE(bit_identical(engine.run(), dense))
        << "run, global_share " << global_share;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      EXPECT_TRUE(bit_identical(engine.run_parallel(pool), dense))
          << threads << " threads, global_share " << global_share;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Iscas85, SstaDense,
                         ::testing::Values("C432", "C499", "C880", "C1355",
                                           "C1908", "C2670", "C3540", "C5315",
                                           "C6288", "C7552"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

/// Every thread keeps its gate-kernel scratch (support bitmap, slot
/// position map, candidate row) across engines, sized by the largest
/// residual space it has seen.  A large circuit, then a small one, then a
/// mid-sized one on the same threads -- the calling thread and a pool of
/// 2 -- must each still match the dense oracle bit for bit, and the live
/// coefficient peak must stay where the merge-walk kernel had it.
TEST(SstaScratch, ReuseAcrossEnginesIsBitIdentical) {
  struct Case {
    const char* circuit;
    std::uint64_t coef_entries_peak;
  };
  const Case cases[] = {{"C7552", 1610055}, {"C432", 5011}, {"C1908", 113046}};
  const Counter& peak =
      MetricsRegistry::global().counter("ssta.coef_entries_peak");
  ThreadPool pool(2);
  for (const Case& c : cases) {
    const Netlist nl = flow().make_benchmark(c.circuit);
    const Placement placement = flow().make_placement(nl);
    const std::vector<VersionKey> versions = flow().bind_versions(placement);
    const SstaEngine engine(nl, flow().characterized(),
                            flow().context_library(), versions,
                            default_model(), flow().config().sta,
                            &flow().context_cache());
    const SstaResult dense =
        dense_ssta(engine, flow().characterized(), flow().config().sta);
    const std::uint64_t before = peak.value();
    EXPECT_TRUE(bit_identical(engine.run(), dense)) << c.circuit << " serial";
    EXPECT_EQ(peak.value() - before, c.coef_entries_peak) << c.circuit;
    EXPECT_TRUE(bit_identical(engine.run_parallel(pool), dense))
        << c.circuit << " 2 threads";
  }
}

// ------------------------------------------------------------ criticality

TEST(Criticality, ProbabilityMassIsConserved) {
  const Netlist nl = flow().make_benchmark("C880");
  const Placement placement = flow().make_placement(nl);
  const std::vector<VersionKey> versions = flow().bind_versions(placement);
  const SstaEngine engine(nl, flow().characterized(), flow().context_library(),
                          versions, default_model(), flow().config().sta,
                          &flow().context_cache());
  const SstaResult ssta = engine.run();

  // Endpoint tightness is a probability distribution over POs.
  double po_sum = 0.0;
  for (const double t : ssta.po_tightness) {
    EXPECT_GE(t, 0.0);
    po_sum += t;
  }
  EXPECT_NEAR(po_sum, 1.0, 1e-9);

  // Per-gate selection probabilities sum to 1 by construction.
  for (const std::vector<double>& q : ssta.gate_pin_tightness) {
    double sum = 0.0;
    for (const double v : q) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }

  const CriticalityResult crit = compute_criticality(nl, ssta);

  // The backward pass conserves mass: each gate splits its output-net
  // criticality across its fanin arcs.
  for (std::size_t gi = 0; gi < nl.gates().size(); ++gi) {
    double arc_sum = 0.0;
    for (const double c : crit.arc_criticality[gi]) arc_sum += c;
    EXPECT_NEAR(arc_sum, crit.net_criticality[nl.gates()[gi].output_net],
                1e-9)
        << gi;
  }

  // The primary inputs are a cutset of every path, so their
  // criticalities must also sum to 1.
  double pi_sum = 0.0;
  for (std::size_t ni = 0; ni < nl.nets().size(); ++ni)
    if (nl.nets()[ni].is_primary_input()) pi_sum += crit.net_criticality[ni];
  EXPECT_NEAR(pi_sum, 1.0, 1e-6);
}

// ------------------------------------------------------- job diagnostics

class SstaJobTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::clear_all();
    Diagnostics::global().reset();
  }
  void TearDown() override {
    FailPoints::clear_all();
    Diagnostics::global().reset();
  }
};

TEST_F(SstaJobTest, FailpointSurfacesAsDiagnosedError) {
  FailPoints::set("ssta.propagate", "throw");
  ThreadPool pool(1);
  SstaJobSpec spec;
  spec.circuit = "C432";
  spec.csv_path.clear();
  const JobResult result = run_ssta_job(flow(), pool, spec, nullptr);
  EXPECT_EQ(result.exit_code, kExitFatal);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(Diagnostics::global().count_code("ssta_job_failed"), 1u);
}

TEST_F(SstaJobTest, RejectsBadSpec) {
  // Spec faults come back as an error result with a structured
  // diagnostic, not an exception (per-job isolation).
  ThreadPool pool(1);
  SstaJobSpec spec;
  spec.circuit = "C432";
  spec.quantile = 1.5;
  const JobResult result = run_ssta_job(flow(), pool, spec, nullptr);
  EXPECT_EQ(result.exit_code, kExitFatal);
  EXPECT_NE(result.error.find("quantile"), std::string::npos);
  EXPECT_EQ(Diagnostics::global().count_code("ssta_job_failed"), 1u);
}

TEST_F(SstaJobTest, ProducesReportAndArtifact) {
  ThreadPool pool(2);
  SstaJobSpec spec;
  spec.circuit = "C432";
  spec.clock_period_ps = 2500.0;
  const JobResult result = run_ssta_job(flow(), pool, spec, nullptr);
  EXPECT_EQ(result.exit_code, kExitOk);
  EXPECT_NE(result.output.find("block-based SSTA"), std::string::npos);
  EXPECT_NE(result.output.find("yield at clock"), std::string::npos);
  ASSERT_EQ(result.artifacts.size(), 1u);
  EXPECT_EQ(result.artifacts[0].path, "ssta_criticality.csv");
  EXPECT_NE(result.artifacts[0].bytes.find("kind,gate,pin,net"),
            std::string::npos);
}

/// The rendered bytes of two ssta jobs -- criticality CSV then text
/// report -- as FNV-1a digests, so report rendering can change how it
/// builds the text but not one byte of it.
TEST(SstaReport, RenderedBytesPinned) {
  struct Case {
    const char* circuit;
    double global_share;
    std::uint64_t digest;
  };
  const Case cases[] = {{"C432", 0.0, 0xb7a5a69d3e2c447dull},
                          {"C880", 0.3, 0xe2202b66b99e3960ull}};
  ThreadPool pool(2);
  for (const Case& c : cases) {
    SstaJobSpec spec;
    spec.circuit = c.circuit;
    spec.global_share = c.global_share;
    const JobResult result = run_ssta_job(flow(), pool, spec, nullptr);
    ASSERT_EQ(result.exit_code, kExitOk) << result.error;
    ASSERT_EQ(result.artifacts.size(), 1u);
    const std::string bytes = result.artifacts[0].bytes + result.output;
    EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), c.digest) << c.circuit;
  }
}

}  // namespace
}  // namespace sva
