// Tests of the cold setup's two speedups.
//
// 1. Scan-grid harmonic basis: ThresholdResist::printed_line reads the
//    image's tabulated ScanBasis rows and must equal the direct-evaluation
//    scan (tests/scan_oracle.cpp) bit for bit -- on every image the setup
//    measures, on random masks, off-centre and beyond the tabulated radius.
// 2. Fan-out: the library-OPC and pitch solves run on a pool, so the
//    simulator must be thread-safe and the setup products must stay the
//    serial products at every pool size (pinned FNV-1a digest).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <numbers>
#include <optional>
#include <string>
#include <vector>

#include "cell/library.hpp"
#include "cell/library_opc.hpp"
#include "core/flow.hpp"
#include "engine/thread_pool.hpp"
#include "litho/aerial.hpp"
#include "litho/cd_model.hpp"
#include "litho/mask1d.hpp"
#include "opc/cutline.hpp"
#include "opc/engine.hpp"
#include "opc/pitch_table.hpp"
#include "scan_oracle.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace sva {
namespace {

const FlowConfig& config() {
  static const FlowConfig c;
  return c;
}

/// The setup's calibrated wafer and OPC-model processes and the
/// dual-process engine over them, built as LithoModels builds them (whose
/// model process is private).  Calibration is deterministic, so these
/// equal the flow's.
struct SetupModels {
  SetupModels()
      : wafer(config().wafer_optics, gate_length(),
              gate_length() + config().anchor_spacing),
        model(config().opc_model_optics, gate_length(),
              gate_length() + config().anchor_spacing),
        engine(model, wafer, config().opc) {}
  static Nm gate_length() { return config().cell_tech.gate_length; }

  LithoProcess wafer;
  LithoProcess model;
  OpcEngine engine;
};

const SetupModels& models() {
  static const SetupModels* m = new SetupModels;
  return *m;
}

const CellLibrary& library() {
  static const CellLibrary lib = build_standard_library(config().cell_tech);
  return lib;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_line(const std::optional<PrintedLine>& a,
               const std::optional<PrintedLine>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (same_bits(a->left, b->left) && same_bits(a->right, b->right));
}

/// printed_line vs the direct-evaluation oracle on one image.
std::optional<PrintedLine> expect_oracle_line(const ImageProfile& image,
                                              const ThresholdResist& resist,
                                              Nm x_center, double dose = 1.0) {
  const std::optional<PrintedLine> got =
      resist.printed_line(image, x_center, dose);
  EXPECT_TRUE(same_line(
      got, direct_printed_line(image, resist.threshold(), x_center, dose)))
      << "x_center " << x_center << " dose " << dose;
  return got;
}

// ------------------------------------------- every image the setup measures

/// Line i of `lines` in its current-mask context, embedded in the
/// supercell exactly as OpcEngine::simulate_line embeds it.
MaskPattern1D line_context(const std::vector<OpcLine>& lines, std::size_t i) {
  const Nm half_window = config().opc.radius_of_influence + 200.0;
  const OpcLine& line = lines[i];
  std::vector<std::pair<Nm, Nm>> left;
  Nm prev_lo = line.mask_lo;
  for (std::size_t j = i; j-- > 0;) {
    const OpcLine& n = lines[j];
    if (line.mask_lo - n.mask_hi > half_window) break;
    Nm spacing = prev_lo - n.mask_hi;
    if (spacing <= 0.0) spacing = 1.0;
    left.emplace_back(spacing, n.mask_width());
    prev_lo = n.mask_lo;
  }
  std::vector<std::pair<Nm, Nm>> right;
  Nm prev_hi = line.mask_hi;
  for (std::size_t j = i + 1; j < lines.size(); ++j) {
    const OpcLine& n = lines[j];
    if (n.mask_lo - line.mask_hi > half_window) break;
    Nm spacing = n.mask_lo - prev_hi;
    if (spacing <= 0.0) spacing = 1.0;
    right.emplace_back(spacing, n.mask_width());
    prev_hi = n.mask_hi;
  }
  return MaskPattern1D::local_context(line.mask_width(), left, right,
                                      LithoProcess::kSupercellPeriod);
}

std::vector<OpcLine> masks_of(const OpcResult& result) {
  std::vector<OpcLine> lines;
  for (const OpcLineResult& lr : result.lines) lines.push_back(lr.line);
  return lines;
}

/// Re-creates every image OpcEngine::correct(problem) measures -- the
/// OPC-model image of each correctable line in each iteration (the masks
/// after k iterations are what a k-iteration budget returns), then the
/// wafer image of every line at the final masks -- and checks
/// printed_line against the oracle on each.  The enumeration must
/// reproduce the engine's image count and final printed CDs exactly.
std::size_t expect_oracle_on_every_image(const OpcProblem& problem) {
  const SetupModels& m = models();
  const OpcResult full = m.engine.correct(problem);
  std::size_t images = 0;
  auto measure = [&](const LithoProcess& process,
                     const std::vector<OpcLine>& lines, std::size_t i) {
    const MaskPattern1D mask = line_context(lines, i);
    ++images;
    return expect_oracle_line(process.simulator().image(mask, 0.0),
                              process.resist(), mask.period() / 2.0);
  };
  for (int k = 0; k < full.iterations_used; ++k) {
    OpcConfig budget = config().opc;
    budget.max_iterations = k;
    const std::vector<OpcLine> lines =
        masks_of(OpcEngine(m.model, m.wafer, budget).correct(problem));
    for (std::size_t i = 0; i < lines.size(); ++i)
      if (lines[i].correctable) measure(m.model, lines, i);
  }
  const std::vector<OpcLine> final_masks = masks_of(full);
  for (std::size_t i = 0; i < final_masks.size(); ++i) {
    const std::optional<PrintedLine> p = measure(m.wafer, final_masks, i);
    const Nm offset =
        0.5 * (final_masks[i].mask_lo + final_masks[i].mask_hi) -
        LithoProcess::kSupercellPeriod / 2.0;
    const Nm cd = p ? (p->right + offset) - (p->left + offset) : 0.0;
    EXPECT_TRUE(same_bits(cd, full.lines[i].printed_cd)) << "line " << i;
  }
  EXPECT_EQ(images, full.images_simulated);
  return images;
}

/// The two cutline problems library_opc_cell solves for `master`.
std::vector<OpcProblem> library_problems(const CellMaster& master) {
  const Layout env = library_opc_environment(master, config().library_opc);
  std::vector<long> tags(env.size(), -1);
  for (std::size_t i = 0; i < master.gates().size(); ++i)
    tags[i] = static_cast<long>(i);
  const CellTech& tech = master.tech();
  return {extract_cutline(env, 0.5 * (tech.nmos_y_lo + tech.nmos_y_hi), tags),
          extract_cutline(env, 0.5 * (tech.pmos_y_lo + tech.pmos_y_hi), tags)};
}

/// The 7-line test grating characterize_post_opc_pitch solves.
OpcProblem grating_problem(Nm spacing) {
  const Nm l = SetupModels::gate_length();
  OpcProblem problem;
  for (std::size_t k = 0; k < 7; ++k) {
    OpcLine line;
    line.drawn_lo = static_cast<double>(k) * (l + spacing);
    line.drawn_hi = line.drawn_lo + l;
    line.mask_lo = line.drawn_lo;
    line.mask_hi = line.drawn_hi;
    line.tag = static_cast<long>(k);
    problem.lines.push_back(line);
  }
  return problem;
}

TEST(ScanBasisOracle, PrintedLineMatchesDirectScanOnEveryLibraryOpcImage) {
  std::size_t images = 0;
  for (const CellMaster& master : library().masters())
    for (const OpcProblem& problem : library_problems(master))
      images += expect_oracle_on_every_image(problem);
  // The enumerated problems are exactly library OPC's.
  std::size_t expected = 0;
  for (const LibraryOpcCellResult& r :
       library_opc_all(library().masters(), models().engine,
                       config().library_opc))
    expected += r.images_simulated;
  EXPECT_EQ(images, expected);
}

TEST(ScanBasisOracle, PrintedLineMatchesDirectScanOnEveryPitchTableImage) {
  for (Nm spacing : config().table_spacings)
    expect_oracle_on_every_image(grating_problem(spacing));
}

// ------------------------------------------------ off the setup's images

TEST(ScanBasisOracle, RandomMasksDosesAndOffCentreScans) {
  Rng rng(std::string("scan-basis-random-masks"));
  const LithoProcess& process = models().model;
  std::size_t printed = 0;
  for (int trial = 0; trial < 120; ++trial) {
    auto neighbours = [&] {
      std::vector<std::pair<Nm, Nm>> n(
          static_cast<std::size_t>(rng.uniform() * 4.0));
      // At most 3 x 470 nm: the context stays inside the half supercell.
      for (auto& [spacing, width] : n) {
        spacing = rng.uniform(80.0, 350.0);
        width = rng.uniform(50.0, 120.0);
      }
      return n;
    };
    const auto left = neighbours();
    const auto right = neighbours();
    const MaskPattern1D mask = MaskPattern1D::local_context(
        rng.uniform(60.0, 160.0), left, right,
        LithoProcess::kSupercellPeriod);
    const Nm defocus = trial % 3 == 0 ? 60.0 : 0.0;
    const ImageProfile image = process.simulator().image(mask, defocus);
    const Nm centre = mask.period() / 2.0;
    // Every tabulated scan position, reached by the scan's own
    // accumulation, reads exactly the directly evaluated intensity.
    Nm up = centre;
    Nm down = centre;
    EXPECT_TRUE(same_bits(image.scan_intensity(0, centre),
                          image.intensity(centre)));
    for (int j = 1; j <= ScanBasis::kRadius; ++j) {
      up += ScanBasis::kStep;
      down -= ScanBasis::kStep;
      ASSERT_TRUE(same_bits(image.scan_intensity(j, up),
                            image.intensity(up)))
          << "step " << j;
      ASSERT_TRUE(same_bits(image.scan_intensity(-j, down),
                            image.intensity(down)))
          << "step " << -j;
    }
    const double dose = rng.uniform(0.85, 1.15);
    if (expect_oracle_line(image, process.resist(), centre, dose)) ++printed;
    // Off the tabulated grid: every scan position falls back to intensity().
    expect_oracle_line(image, process.resist(), centre + 0.37, dose);
    expect_oracle_line(image, process.resist(), centre - 2.5, dose);
  }
  EXPECT_GT(printed, 60u);
}

TEST(ScanBasisOracle, EdgesBeyondTheTabulatedRadiusAndOtherPeriods) {
  const LithoProcess& process = models().wafer;
  // An isolated 700-nm line: both edges lie past kRadius scan steps, so
  // the scan leaves the table and evaluates directly.
  const MaskPattern1D wide = MaskPattern1D::local_context(
      700.0, {}, {}, LithoProcess::kSupercellPeriod);
  const std::optional<PrintedLine> line = expect_oracle_line(
      process.simulator().image(wide, 0.0), process.resist(),
      wide.period() / 2.0);
  ASSERT_TRUE(line.has_value());
  EXPECT_GT(line->cd() / 2.0, ScanBasis::kRadius * ScanBasis::kStep);
  // Dense gratings at their own (non-supercell) periods get their own
  // basis, centred at their own p/2.
  for (Nm pitch : {240.0, 333.3, 610.0, 1234.5}) {
    const MaskPattern1D grating = MaskPattern1D::grating(90.0, pitch);
    expect_oracle_line(process.simulator().image(grating, 0.0),
                       process.resist(), grating.period() / 2.0);
  }
}

TEST(ScanBasisOracle, PeriodsSharingATccAtOnlyOneDefocus) {
  // The TCC is keyed by the period rounded to 1e-3 nm, and its order is
  // n_max = ceil(p fmax) of the period that created it.  Two periods just
  // either side of a step of n_max therefore share the lower one's TCC at
  // one defocus and get TCCs of different orders at another, so one
  // period's images come with two harmonic counts.
  const OpticsConfig& optics = config().wafer_optics;
  const double fmax = optics.max_frequency();
  Nm p1 = 0.0;
  Nm p2 = 0.0;
  for (int m = 2; m < 40 && p1 == 0.0; ++m) {
    const Nm lo = m / fmax - 1e-5;
    const Nm hi = m / fmax + 1e-5;
    if (lo > 200.0 && std::ceil(lo * fmax) != std::ceil(hi * fmax) &&
        std::llround(lo * 1000.0) == std::llround(hi * 1000.0)) {
      p1 = lo;
      p2 = hi;
    }
  }
  ASSERT_GT(p1, 0.0);
  const ThresholdResist& resist = models().wafer.resist();
  const AerialImageSimulator sim(optics);
  const MaskPattern1D lower = MaskPattern1D::grating(90.0, p1);
  const MaskPattern1D upper = MaskPattern1D::grating(90.0, p2);
  sim.image(lower, 0.0);
  // At defocus 0 the upper period reuses the lower one's TCC ...
  const ImageProfile shared = sim.image(upper, 0.0);
  EXPECT_EQ(sim.tcc_cache_size(), 1u);
  // ... at defocus 40 it creates its own, one order higher.
  const ImageProfile own = sim.image(upper, 40.0);
  EXPECT_EQ(sim.tcc_cache_size(), 2u);
  for (const ImageProfile* image : {&shared, &own}) {
    expect_oracle_line(*image, resist, p2 / 2.0);
    Nm x = p2 / 2.0;
    for (int j = 1; j <= 60; ++j) {
      x += ScanBasis::kStep;
      ASSERT_TRUE(same_bits(image->scan_intensity(j, x), image->intensity(x)))
          << "step " << j;
    }
  }
}

TEST(ScanBasis, RowsAreTheScanPositionsPhases) {
  const ScanBasis basis(3000.0, 9);
  EXPECT_EQ(basis.x(0), 1500.0);
  EXPECT_EQ(basis.x(3), 1503.0);
  EXPECT_EQ(basis.x(-ScanBasis::kRadius), 1500.0 - ScanBasis::kRadius);
  const double* row = basis.row(-7);
  EXPECT_EQ(row[0], 1.0);
  EXPECT_EQ(row[9], 0.0);
  for (std::size_t k = 1; k < 9; ++k) {
    const double phase = 2.0 * std::numbers::pi * basis.x(-7) / 3000.0 *
                         static_cast<double>(k);
    EXPECT_TRUE(same_bits(row[k], std::cos(phase))) << k;
    EXPECT_TRUE(same_bits(row[9 + k], std::sin(phase))) << k;
  }
  EXPECT_THROW(basis.row(ScanBasis::kRadius + 1), PreconditionError);
}

// ------------------------------------------- thread-safe image simulation

/// Everything observable about an image: samples over the period, the
/// tabulated scan intensities, and its printed line.
struct ImageFingerprint {
  std::vector<std::uint64_t> bits;
  std::optional<PrintedLine> line;
};

ImageFingerprint fingerprint(const ImageProfile& image,
                             const ThresholdResist& resist) {
  ImageFingerprint f;
  for (double v : image.sample(97))
    f.bits.push_back(std::bit_cast<std::uint64_t>(v));
  const Nm centre = image.period() / 2.0;
  for (int j = -60; j <= 60; j += 7)
    f.bits.push_back(std::bit_cast<std::uint64_t>(
        image.scan_intensity(j, centre + j * ScanBasis::kStep)));
  f.line = resist.printed_line(image, centre);
  return f;
}

std::vector<MaskPattern1D> distinct_masks(std::size_t n) {
  std::vector<MaskPattern1D> masks;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    masks.push_back(MaskPattern1D::local_context(
        70.0 + 2.0 * t, {{120.0 + 9.0 * t, 90.0}},
        {{150.0 + 5.0 * t, 90.0}, {300.0, 60.0 + t}},
        LithoProcess::kSupercellPeriod));
  }
  return masks;
}

TEST(ConcurrentSimulator, PoolImagesEqualSerialImagesBitwise) {
  const std::vector<MaskPattern1D> masks = distinct_masks(48);
  const ThresholdResist& resist = models().wafer.resist();
  const AerialImageSimulator serial(config().wafer_optics);
  std::vector<ImageFingerprint> expected;
  for (const MaskPattern1D& mask : masks)
    expected.push_back(fingerprint(serial.image(mask, 0.0), resist));

  for (std::size_t threads : {2u, 8u}) {
    // A fresh simulator per pool: the workers race to create the TCC and
    // the scan basis, and to fill the basis rows.
    const AerialImageSimulator shared(config().wafer_optics);
    ThreadPool pool(threads);
    std::vector<ImageFingerprint> got(masks.size());
    pool.parallel_for(
        0, masks.size(),
        [&](std::size_t i) {
          got[i] = fingerprint(shared.image(masks[i], 0.0), resist);
        },
        /*grain=*/1);
    for (std::size_t i = 0; i < masks.size(); ++i) {
      EXPECT_EQ(got[i].bits, expected[i].bits) << "mask " << i;
      EXPECT_TRUE(same_line(got[i].line, expected[i].line)) << "mask " << i;
    }
    EXPECT_EQ(shared.tcc_cache_size(), 1u);
    EXPECT_EQ(shared.images_computed(), masks.size());
  }
}

// ------------------------------------------------------ setup fan-out

/// FNV-1a over every setup product, bit patterns of the doubles included.
std::uint64_t setup_digest(const std::vector<LibraryOpcCellResult>& opc,
                           const std::vector<PostOpcPitchPoint>& points) {
  Fnv1aHasher h;
  h.u64(opc.size());
  for (const LibraryOpcCellResult& r : opc) {
    h.vec_f64(r.device_cd).vec_f64(r.device_mask_width);
    h.u64(r.images_simulated).u64(r.degraded ? 1 : 0);
  }
  h.u64(points.size());
  for (const PostOpcPitchPoint& p : points)
    h.f64(p.spacing).f64(p.printed_cd).f64(p.mask_bias);
  return h.digest();
}

// Recorded with the serial setup that evaluated every scan position
// directly, before the scan basis and the fan-out existed.
constexpr std::uint64_t kSerialSetupDigest = 0x6848721e3ebe8ca0ull;

TEST(SetupFanout, FlowProductsMatchTheSerialDigest) {
  const SvaFlow flow{FlowConfig{}};
  EXPECT_EQ(setup_digest(flow.library_opc_results(), flow.pitch_points()),
            kSerialSetupDigest);
  EXPECT_EQ(flow.setup_threads(),
            std::min(ThreadPool::default_thread_count(),
                     SvaFlow::kMaxSetupThreads));
}

TEST(SetupFanout, PublicCallsMatchTheSerialDigestWithAnyPool) {
  std::vector<std::optional<std::size_t>> pools = {std::nullopt, 0u, 1u, 2u,
                                                   8u};
  for (const std::optional<std::size_t>& threads : pools) {
    std::optional<ThreadPool> pool;
    if (threads) pool.emplace(*threads);
    ThreadPool* p = pool ? &*pool : nullptr;
    const std::vector<LibraryOpcCellResult> opc =
        library_opc_all(library().masters(), models().engine,
                        config().library_opc, FaultPolicy::Strict, p);
    const std::vector<PostOpcPitchPoint> points = characterize_post_opc_pitch(
        models().engine, SetupModels::gate_length(), config().table_spacings,
        7, p);
    EXPECT_EQ(setup_digest(opc, points), kSerialSetupDigest)
        << "pool threads " << (threads ? std::to_string(*threads) : "none");
  }
}

TEST(SetupFanout, WarmStartRunsNoPool) {
  const std::string dir = ::testing::TempDir() + "sva_setup_fanout_warm";
  std::filesystem::remove_all(dir);
  FlowConfig cfg;
  cfg.cache_dir = dir;
  const SvaFlow cold{cfg};
  ASSERT_FALSE(cold.setup_from_cache());
  EXPECT_GE(cold.setup_threads(), 1u);

  Counter& tasks = MetricsRegistry::global().counter("engine.tasks");
  const std::uint64_t before = tasks.value();
  const SvaFlow warm{cfg};
  ASSERT_TRUE(warm.setup_from_cache());
  EXPECT_EQ(warm.setup_threads(), 0u);
  EXPECT_EQ(tasks.value(), before);
  EXPECT_EQ(setup_digest(warm.library_opc_results(), warm.pitch_points()),
            kSerialSetupDigest);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sva
