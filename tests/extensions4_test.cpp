// Tests for the fourth extension wave: budget calibration from
// measurements, Liberty round-trip, and Verilog round-trip.

#include <gtest/gtest.h>

#include "cell/liberty_reader.hpp"
#include "cell/liberty_writer.hpp"
#include "core/budget_calibration.hpp"
#include "core/flow.hpp"
#include "netlist/verilog.hpp"

namespace sva {
namespace {

const SvaFlow& flow() {
  static const SvaFlow f{FlowConfig{}};
  return f;
}

/// The flow's litho models; a flow keeps none once its setup is done.
const LithoModels& litho() {
  static const LithoModels m{flow().config()};
  return m;
}

// ----------------------------------------------------- Budget calibration

TEST(BudgetCalibration, MeasuresPositiveHalfRanges) {
  const PrintModel model(litho().wafer(), FocusResponseParams{}, 600.0);
  const MeasuredBudget m = measure_budget(litho().engine(), model, 90.0);
  EXPECT_GT(m.lvar_pitch, 0.5);
  EXPECT_LT(m.lvar_pitch, 9.0);
  EXPECT_GT(m.lvar_focus, 0.5);
  EXPECT_LT(m.lvar_focus, 9.0);
}

TEST(BudgetCalibration, ToBudgetSharesMatchMeasurement) {
  MeasuredBudget m;
  m.lvar_pitch = 2.7;
  m.lvar_focus = 1.8;
  const CdBudget b = m.to_budget(90.0, 0.10);
  EXPECT_NEAR(b.pitch_share, 2.7 / 9.0, 1e-12);
  EXPECT_NEAR(b.focus_share, 1.8 / 9.0, 1e-12);
  EXPECT_NO_THROW(b.validate());
}

TEST(BudgetCalibration, OverfullMeasurementIsScaledDown) {
  MeasuredBudget m;
  m.lvar_pitch = 8.0;
  m.lvar_focus = 8.0;
  const CdBudget b = m.to_budget(90.0, 0.10);
  EXPECT_NEAR(b.pitch_share + b.focus_share, 1.0, 1e-9);
  EXPECT_NO_THROW(b.validate());
}

TEST(BudgetCalibration, MeasuredBudgetDrivesFlow) {
  const PrintModel model(litho().wafer(), FocusResponseParams{}, 600.0);
  const MeasuredBudget m = measure_budget(litho().engine(), model, 90.0);
  FlowConfig config;
  config.budget = m.to_budget(90.0);
  const SvaFlow measured_flow{config};
  const CircuitAnalysis a = measured_flow.analyze_benchmark("C432");
  // The measured shares exceed the paper's assumed 30%+30% (our focus
  // response and residual pitch bias are both strong), so the reduction
  // lands above the assumed-budget band.
  EXPECT_GT(a.uncertainty_reduction(), 0.05);
  EXPECT_LT(a.uncertainty_reduction(), 0.80);
}

// ------------------------------------------------------- Liberty roundtrip

TEST(LibertyRoundtrip, BaseLibraryParsesBack) {
  const std::string text = to_liberty(flow().characterized(), "sva90");
  const ParsedLiberty parsed = parse_liberty(text);
  EXPECT_EQ(parsed.name, "sva90");
  EXPECT_EQ(parsed.cells.size(), 10u);
  EXPECT_EQ(parsed.slew_axis, default_slew_axis());
  EXPECT_EQ(parsed.load_axis, default_load_axis());
}

TEST(LibertyRoundtrip, TablesSurviveRoundtrip) {
  const std::string text = to_liberty(flow().characterized(), "sva90");
  const ParsedLiberty parsed = parse_liberty(text);
  const auto& nand2 =
      flow().characterized().cells[flow().library().index_of("NAND2_X1")];
  const auto& parsed_cell = parsed.cell("NAND2_X1");
  ASSERT_EQ(parsed_cell.timings.size(), nand2.arcs.size());
  // Compare a few table entries (the writer rounds to 4 decimals).
  const auto& original = nand2.arcs[0].nldm.delay_table();
  const auto& round_tripped = parsed_cell.timings[0].cell_rise;
  for (std::size_t i = 0; i < original.nx(); i += 2)
    for (std::size_t j = 0; j < original.ny(); j += 3)
      EXPECT_NEAR(round_tripped.value_at(i, j), original.value_at(i, j),
                  1e-3);
}

TEST(LibertyRoundtrip, PinCapsSurvive) {
  const std::string text = to_liberty(flow().characterized(), "sva90");
  const ParsedLiberty parsed = parse_liberty(text);
  const double original = flow()
                              .characterized()
                              .cells[flow().library().index_of("INV_X1")]
                              .master.pin("A")
                              .input_cap_ff;
  EXPECT_NEAR(parsed.cell("INV_X1").pin("A").capacitance_ff, original,
              1e-3);
  EXPECT_FALSE(parsed.cell("INV_X1").pin("A").is_output);
  EXPECT_TRUE(parsed.cell("INV_X1").pin("Y").is_output);
}

TEST(LibertyRoundtrip, ExpandedVersionScalesSurvive) {
  const std::string text = to_liberty_expanded(
      flow().characterized(), flow().context_library(), "ctx");
  const ParsedLiberty parsed = parse_liberty(text);
  const std::size_t inv = flow().library().index_of("INV_X1");
  const VersionKey key{2, 2, 2, 2};
  const double scale =
      flow().context_library().arc_delay_scale(inv, key, 0);
  const auto& base =
      flow().characterized().cells[inv].arcs[0].nldm.delay_table();
  const auto& cell = parsed.cell("INV_X1" + version_suffix(key));
  EXPECT_NEAR(cell.timings[0].cell_rise.value_at(0, 0),
              base.value_at(0, 0) * scale, 1e-3);
}

TEST(LibertyRoundtrip, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_liberty("not liberty at all"), Error);
  EXPECT_THROW(parse_liberty("library (x) { cell (A) { } }"), Error);
}

// ------------------------------------------------------- Verilog roundtrip

TEST(VerilogRoundtrip, BenchmarkSurvives) {
  const Netlist original = flow().make_benchmark("C432");
  const std::string text = to_verilog(original);
  const Netlist parsed = parse_verilog(text, flow().library());
  parsed.validate();
  EXPECT_EQ(parsed.gates().size(), original.gates().size());
  EXPECT_EQ(parsed.primary_input_count(), original.primary_input_count());
  EXPECT_EQ(parsed.primary_output_count(),
            original.primary_output_count());
  // Cell-type histogram must survive exactly.
  std::vector<std::size_t> hist_a(10, 0), hist_b(10, 0);
  for (const auto& g : original.gates()) ++hist_a[g.cell_index];
  for (const auto& g : parsed.gates()) ++hist_b[g.cell_index];
  EXPECT_EQ(hist_a, hist_b);
}

TEST(VerilogRoundtrip, TimingInvariantUnderRoundtrip) {
  const Netlist original = flow().make_benchmark("C880");
  const Netlist parsed =
      parse_verilog(to_verilog(original), flow().library());
  const Sta sta_a(original, flow().characterized(), flow().config().sta);
  const Sta sta_b(parsed, flow().characterized(), flow().config().sta);
  const UnitScale scale;
  EXPECT_NEAR(sta_a.run(scale).critical_delay_ps,
              sta_b.run(scale).critical_delay_ps, 1e-6);
}

TEST(VerilogRoundtrip, EmitsDeclarations) {
  const Netlist nl = flow().make_benchmark("C432");
  const std::string text = to_verilog(nl);
  EXPECT_NE(text.find("module C432"), std::string::npos);
  EXPECT_NE(text.find("input pi0;"), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
  EXPECT_NE(text.find("NAND2_X1"), std::string::npos);
}

TEST(VerilogRoundtrip, ParserRejectsBadInput) {
  EXPECT_THROW(parse_verilog("module m (a); endmodule",
                             flow().library()),
               Error);  // no declarations -> no outputs
  EXPECT_THROW(
      parse_verilog("module m (a, y); input a; output y; "
                    "MYSTERY_CELL u0 (.A(a), .Y(y)); endmodule",
                    flow().library()),
      Error);  // unknown cell
  EXPECT_THROW(
      parse_verilog("module m (a, y); input a; output y; "
                    "INV_X1 u0 (.A(a)); endmodule",
                    flow().library()),
      Error);  // no .Y
}

TEST(VerilogRoundtrip, RejectsDoubleDriver) {
  const char* text =
      "module m (a, y); input a; output y; wire w;\n"
      "INV_X1 u0 (.A(a), .Y(y));\n"
      "INV_X1 u1 (.A(a), .Y(y));\n"
      "endmodule\n";
  EXPECT_THROW(parse_verilog(text, flow().library()), Error);
}

TEST(VerilogRoundtrip, HandlesOutOfOrderInstances) {
  const char* text =
      "module m (a, y); input a; output y; wire w;\n"
      "INV_X1 u1 (.A(w), .Y(y));\n"
      "INV_X1 u0 (.A(a), .Y(w));\n"
      "endmodule\n";
  const Netlist nl = parse_verilog(text, flow().library());
  EXPECT_EQ(nl.gates().size(), 2u);
  // u0 must come before u1 in the rebuilt netlist.
  EXPECT_EQ(nl.gates()[0].name, "u0");
}

}  // namespace
}  // namespace sva
