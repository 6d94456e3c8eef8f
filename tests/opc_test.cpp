// Tests for the opc module: cutline extraction, the model-based OPC
// engine (convergence, mask rules, residual bias), and the post-OPC
// pitch characterization.

#include <gtest/gtest.h>

#include <cmath>

#include "litho/cd_model.hpp"
#include "opc/cutline.hpp"
#include "opc/engine.hpp"
#include "opc/pitch_table.hpp"
#include "util/error.hpp"

namespace sva {
namespace {

const LithoProcess& wafer_process() {
  static const LithoProcess proc(OpticsConfig{}, 90.0, 240.0);
  return proc;
}

OpcProblem line_array(Nm linewidth, Nm pitch, std::size_t count) {
  OpcProblem problem;
  for (std::size_t k = 0; k < count; ++k) {
    OpcLine line;
    line.drawn_lo = static_cast<double>(k) * pitch;
    line.drawn_hi = line.drawn_lo + linewidth;
    line.mask_lo = line.drawn_lo;
    line.mask_hi = line.drawn_hi;
    line.tag = static_cast<long>(k);
    problem.lines.push_back(line);
  }
  return problem;
}

// ---------------------------------------------------------------- Cutline

TEST(Cutline, ExtractsPolyCrossingY) {
  Layout layout;
  layout.add(Layer::Poly, Rect::make(0, 0, 90, 1000));
  layout.add(Layer::Poly, Rect::make(300, 600, 390, 1000));  // upper only
  layout.add(Layer::Diffusion, Rect::make(0, 0, 1000, 1000));
  const auto low = extract_cutline(layout, 100.0);
  EXPECT_EQ(low.lines.size(), 1u);
  const auto high = extract_cutline(layout, 800.0);
  EXPECT_EQ(high.lines.size(), 2u);
}

TEST(Cutline, IncludesDummyPoly) {
  Layout layout;
  layout.add(Layer::Poly, Rect::make(0, 0, 90, 1000));
  layout.add(Layer::DummyPoly, Rect::make(300, 0, 390, 1000));
  EXPECT_EQ(extract_cutline(layout, 500.0).lines.size(), 2u);
}

TEST(Cutline, MergesAbuttingShapes) {
  Layout layout;
  layout.add(Layer::Poly, Rect::make(0, 0, 90, 1000));
  layout.add(Layer::Poly, Rect::make(90, 0, 200, 1000));
  const auto problem = extract_cutline(layout, 500.0);
  ASSERT_EQ(problem.lines.size(), 1u);
  EXPECT_DOUBLE_EQ(problem.lines[0].drawn_width(), 200.0);
}

TEST(Cutline, MergedTagTakenFromWiderShape) {
  Layout layout;
  layout.add(Layer::Poly, Rect::make(0, 0, 90, 1000));
  layout.add(Layer::Poly, Rect::make(90, 0, 300, 1000));
  const std::vector<long> tags = {7, 9};
  const auto problem = extract_cutline(layout, 500.0, tags);
  ASSERT_EQ(problem.lines.size(), 1u);
  EXPECT_EQ(problem.lines[0].tag, 9);
}

TEST(Cutline, TagsAssigned) {
  Layout layout;
  layout.add(Layer::Poly, Rect::make(0, 0, 90, 1000));
  layout.add(Layer::Poly, Rect::make(300, 0, 390, 1000));
  const std::vector<long> tags = {42, -1};
  const auto problem = extract_cutline(layout, 500.0, tags);
  ASSERT_EQ(problem.lines.size(), 2u);
  EXPECT_EQ(problem.lines[0].tag, 42);
  EXPECT_EQ(problem.lines[1].tag, -1);
}

TEST(Cutline, ValidateRejectsOverlap) {
  OpcProblem p;
  OpcLine a;
  a.drawn_lo = 0;
  a.drawn_hi = 100;
  a.mask_lo = 0;
  a.mask_hi = 100;
  OpcLine b = a;
  b.drawn_lo = 50;
  b.drawn_hi = 150;
  b.mask_lo = 50;
  b.mask_hi = 150;
  p.lines = {a, b};
  EXPECT_THROW(p.validate(), PreconditionError);
}

// ---------------------------------------------------------------- Engine

TEST(OpcEngine, ImprovesPrintedCdTowardTarget) {
  const auto& proc = wafer_process();
  OpcEngine engine(proc, OpcConfig{});
  const auto problem = line_array(90.0, 690.0, 5);  // isolated lines

  // Uncorrected: isolated lines print thin.
  const auto raw = engine.measure(problem);
  const Nm raw_err = std::abs(raw.by_tag(2).printed_cd - 90.0);
  EXPECT_GT(raw_err, 3.0);

  const auto corrected = engine.correct(problem);
  const Nm corr_err = std::abs(corrected.by_tag(2).printed_cd - 90.0);
  EXPECT_LT(corr_err, raw_err);
  EXPECT_LT(corr_err, 3.5);
}

TEST(OpcEngine, ResidualIsoDenseBiasRemains) {
  // The paper's key observation: even after OPC, dense and isolated
  // features print systematically differently.
  const auto& proc = wafer_process();
  OpcEngine engine(proc, OpcConfig{});
  const auto pts = characterize_post_opc_pitch(engine, 90.0,
                                               {150.0, 300.0, 600.0});
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_GT(post_opc_pitch_half_range(pts), 0.5);
}

TEST(OpcEngine, MasksRespectGrid) {
  const auto& proc = wafer_process();
  OpcConfig config;
  config.mask_grid = 2.0;
  OpcEngine engine(proc, config);
  const auto result = engine.correct(line_array(90.0, 400.0, 3));
  for (const auto& lr : result.lines) {
    const double lo = lr.line.mask_lo / config.mask_grid;
    const double hi = lr.line.mask_hi / config.mask_grid;
    EXPECT_NEAR(lo, std::round(lo), 1e-9);
    EXPECT_NEAR(hi, std::round(hi), 1e-9);
  }
}

TEST(OpcEngine, MasksRespectMaxBias) {
  const auto& proc = wafer_process();
  OpcConfig config;
  config.max_bias = 10.0;
  OpcEngine engine(proc, config);
  const auto result = engine.correct(line_array(90.0, 900.0, 3));
  for (const auto& lr : result.lines) {
    EXPECT_LE(std::abs(lr.line.mask_lo - lr.line.drawn_lo),
              config.max_bias + 1e-9);
    EXPECT_LE(std::abs(lr.line.mask_hi - lr.line.drawn_hi),
              config.max_bias + 1e-9);
  }
}

TEST(OpcEngine, MasksRespectMinWidth) {
  const auto& proc = wafer_process();
  OpcConfig config;
  config.min_width = 70.0;
  OpcEngine engine(proc, config);
  const auto result = engine.correct(line_array(90.0, 240.0, 5));
  for (const auto& lr : result.lines)
    EXPECT_GE(lr.line.mask_width(), config.min_width - 1e-9);
}

TEST(OpcEngine, ZeroIterationsLeavesMaskAtDrawn) {
  const auto& proc = wafer_process();
  OpcConfig config;
  config.max_iterations = 0;
  OpcEngine engine(proc, config);
  const auto problem = line_array(90.0, 400.0, 3);
  const auto result = engine.correct(problem);
  for (std::size_t i = 0; i < result.lines.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.lines[i].line.mask_lo,
                     problem.lines[i].drawn_lo);
    EXPECT_DOUBLE_EQ(result.lines[i].line.mask_hi,
                     problem.lines[i].drawn_hi);
  }
}

TEST(OpcEngine, MoreIterationsDoNotWorsenConvergence) {
  const auto& proc = wafer_process();
  OpcConfig few;
  few.max_iterations = 1;
  OpcConfig many;
  many.max_iterations = 6;
  const auto problem = line_array(90.0, 500.0, 5);
  const Nm err_few =
      OpcEngine(proc, few).correct(problem).final_max_epe;
  const Nm err_many =
      OpcEngine(proc, many).correct(problem).final_max_epe;
  EXPECT_LE(err_many, err_few + 0.5);
}

TEST(OpcEngine, ModelMismatchLeavesResidual) {
  // Dual-process engine: corrections driven by a model that differs from
  // the wafer leave a systematic residual even with many iterations.
  OpticsConfig model_optics;
  model_optics.resist_diffusion_length = 15.0;
  const LithoProcess model(model_optics, 90.0, 240.0);
  const auto& wafer = wafer_process();

  OpcConfig config;
  config.max_iterations = 8;
  OpcEngine mismatched(model, wafer, config);
  OpcEngine matched(wafer, config);

  const auto problem = line_array(90.0, 600.0, 5);
  const Nm err_mismatched =
      std::abs(mismatched.correct(problem).by_tag(2).printed_cd - 90.0);
  const Nm err_matched =
      std::abs(matched.correct(problem).by_tag(2).printed_cd - 90.0);
  EXPECT_GT(err_mismatched, err_matched);
}

TEST(OpcEngine, ByTagThrowsOnUnknown) {
  const auto& proc = wafer_process();
  OpcEngine engine(proc, OpcConfig{});
  const auto result = engine.measure(line_array(90.0, 400.0, 3));
  EXPECT_THROW(result.by_tag(99), PreconditionError);
}

TEST(OpcEngine, MeasureCountsImages) {
  const auto& proc = wafer_process();
  OpcEngine engine(proc, OpcConfig{});
  const auto result = engine.measure(line_array(90.0, 400.0, 4));
  EXPECT_EQ(result.images_simulated, 4u);
}

TEST(OpcEngine, RejectsBadConfig) {
  const auto& proc = wafer_process();
  OpcConfig bad;
  bad.damping = 0.0;
  EXPECT_THROW(OpcEngine(proc, bad), PreconditionError);
  bad = OpcConfig{};
  bad.min_width = -1.0;
  EXPECT_THROW(OpcEngine(proc, bad), PreconditionError);
}

// ------------------------------------------------------------ Pitch table

TEST(PostOpcPitch, DenseLargerThanIso) {
  const auto& proc = wafer_process();
  OpcEngine engine(proc, OpcConfig{});
  const auto pts =
      characterize_post_opc_pitch(engine, 90.0, {150.0, 600.0});
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_GT(pts[0].printed_cd, pts[1].printed_cd);
}

TEST(PostOpcPitch, TableIsQueryable) {
  const auto& proc = wafer_process();
  OpcEngine engine(proc, OpcConfig{});
  const auto pts = characterize_post_opc_pitch(engine, 90.0,
                                               {150.0, 300.0, 600.0});
  const auto table = post_opc_spacing_table(pts);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_GT(table.at(150.0), 0.0);
  EXPECT_GT(table.at(400.0), 0.0);  // interpolated
}

TEST(PostOpcPitch, RequiresOddArray) {
  const auto& proc = wafer_process();
  OpcEngine engine(proc, OpcConfig{});
  EXPECT_THROW(
      characterize_post_opc_pitch(engine, 90.0, {150.0}, 4),
      PreconditionError);
}

// Property sweep: post-OPC printed CD lands within a few percent of
// target over the full spacing range (OPC works, residual is bounded).
class PostOpcAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(PostOpcAccuracy, ResidualBounded) {
  const auto& proc = wafer_process();
  OpcEngine engine(proc, OpcConfig{});
  const double spacing = GetParam();
  const auto pts =
      characterize_post_opc_pitch(engine, 90.0, {spacing});
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_GT(pts[0].printed_cd, 0.0);
  EXPECT_NEAR(pts[0].printed_cd, 90.0, 0.12 * 90.0);
}

INSTANTIATE_TEST_SUITE_P(Spacings, PostOpcAccuracy,
                         ::testing::Values(150.0, 200.0, 280.0, 350.0,
                                           450.0, 600.0, 900.0));

}  // namespace
}  // namespace sva
