// Tests for the netlist module: netlist invariants, topological ordering,
// and the ISCAS85-like benchmark generator.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "netlist/bench_format.hpp"
#include "netlist/iscas85.hpp"
#include "netlist/netlist.hpp"
#include "netlist/verilog.hpp"
#include "util/error.hpp"

namespace sva {
namespace {

const CellLibrary& lib() {
  static const CellLibrary library = build_standard_library();
  return library;
}

Netlist tiny_netlist() {
  // pi0 -> INV -> NAND2(a, pi1) -> PO
  Netlist nl(lib(), "tiny");
  const std::size_t pi0 = nl.add_primary_input("pi0");
  const std::size_t pi1 = nl.add_primary_input("pi1");
  const std::size_t inv_out =
      nl.add_gate("u1", lib().index_of("INV_X1"), {pi0});
  const std::size_t nand_out =
      nl.add_gate("u2", lib().index_of("NAND2_X1"), {inv_out, pi1});
  nl.mark_primary_output(nand_out);
  return nl;
}

TEST(Netlist, BasicConstruction) {
  const Netlist nl = tiny_netlist();
  EXPECT_EQ(nl.gates().size(), 2u);
  EXPECT_EQ(nl.primary_input_count(), 2u);
  EXPECT_EQ(nl.primary_output_count(), 1u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, SinksRecorded) {
  const Netlist nl = tiny_netlist();
  const Net& pi0 = nl.nets()[0];
  ASSERT_EQ(pi0.sinks.size(), 1u);
  EXPECT_EQ(pi0.sinks[0].gate, 0u);
  EXPECT_EQ(pi0.sinks[0].pin_index, 0u);
}

TEST(Netlist, TopologicalOrderRespectsDependencies) {
  const Netlist nl = tiny_netlist();
  const auto& topo = nl.topological_order();
  ASSERT_EQ(topo.size(), 2u);
  EXPECT_EQ(topo[0], 0u);  // INV before NAND2
  EXPECT_EQ(topo[1], 1u);
}

TEST(Netlist, GateLevels) {
  const Netlist nl = tiny_netlist();
  const auto levels = nl.gate_levels();
  EXPECT_EQ(levels[0], 0u);
  EXPECT_EQ(levels[1], 1u);
}

TEST(Netlist, FaninCountMustMatchMaster) {
  Netlist nl(lib(), "bad");
  const std::size_t pi0 = nl.add_primary_input("pi0");
  EXPECT_THROW(nl.add_gate("u1", lib().index_of("NAND2_X1"), {pi0}),
               PreconditionError);
}

TEST(Netlist, InputPinsOf) {
  const Netlist nl(lib(), "t");
  EXPECT_EQ(nl.input_pins_of(lib().index_of("NAND3_X1")),
            (std::vector<std::string>{"A", "B", "C"}));
  EXPECT_EQ(nl.input_pins_of(lib().index_of("INV_X1")),
            (std::vector<std::string>{"A"}));
}

TEST(Netlist, InputPinCountMatchesPinNames) {
  const Netlist nl(lib(), "t");
  for (std::size_t ci = 0; ci < lib().size(); ++ci)
    EXPECT_EQ(nl.input_pin_count(ci), nl.input_pins_of(ci).size())
        << lib().master(ci).name();
  EXPECT_THROW(nl.input_pin_count(lib().size()), PreconditionError);
}

TEST(Netlist, FrozenAfterTopo) {
  Netlist nl = tiny_netlist();
  (void)nl.topological_order();
  EXPECT_THROW(nl.add_primary_input("late"), PreconditionError);
}

// ---------------------------------------------------------------- ISCAS85

TEST(Iscas85, SpecsArePublishedValues) {
  const auto& specs = iscas85_specs();
  ASSERT_EQ(specs.size(), 10u);
  const auto& c432 = iscas85_spec("C432");
  EXPECT_EQ(c432.primary_inputs, 36u);
  EXPECT_EQ(c432.primary_outputs, 7u);
  EXPECT_EQ(c432.gate_count, 160u);
  const auto& c7552 = iscas85_spec("c7552");  // case-insensitive
  EXPECT_EQ(c7552.gate_count, 3512u);
  EXPECT_THROW(iscas85_spec("C9999"), PreconditionError);
}

TEST(Iscas85, GeneratedCircuitMatchesSpec) {
  for (const char* name : {"C432", "C880", "C1355"}) {
    const auto& spec = iscas85_spec(name);
    const Netlist nl = generate_iscas85_like(spec, lib());
    EXPECT_EQ(nl.gates().size(), spec.gate_count) << name;
    EXPECT_EQ(nl.primary_input_count(), spec.primary_inputs) << name;
    EXPECT_EQ(nl.primary_output_count(), spec.primary_outputs) << name;
    EXPECT_NO_THROW(nl.validate());
  }
}

TEST(Iscas85, Deterministic) {
  const Netlist a = generate_iscas85_like("C432", lib());
  const Netlist b = generate_iscas85_like("C432", lib());
  ASSERT_EQ(a.gates().size(), b.gates().size());
  for (std::size_t i = 0; i < a.gates().size(); ++i) {
    EXPECT_EQ(a.gates()[i].cell_index, b.gates()[i].cell_index);
    EXPECT_EQ(a.gates()[i].fanin_nets, b.gates()[i].fanin_nets);
  }
}

TEST(Iscas85, DifferentBenchmarksDiffer) {
  const Netlist a = generate_iscas85_like("C432", lib());
  const Netlist b = generate_iscas85_like("C499", lib());
  EXPECT_NE(a.gates().size(), b.gates().size());
}

TEST(Iscas85, RealisticDepth) {
  const Netlist nl = generate_iscas85_like("C880", lib());
  const auto levels = nl.gate_levels();
  std::size_t depth = 0;
  for (std::size_t l : levels) depth = std::max(depth, l);
  EXPECT_GE(depth, 10u);
  EXPECT_LE(depth, 60u);
}

TEST(Iscas85, UsesDiverseCellMix) {
  const Netlist nl = generate_iscas85_like("C1908", lib());
  std::set<std::size_t> used;
  for (const auto& g : nl.gates()) used.insert(g.cell_index);
  EXPECT_GE(used.size(), 8u);  // nearly all ten masters appear
}

TEST(Iscas85, MostNetsAreConsumed) {
  const Netlist nl = generate_iscas85_like("C1355", lib());
  std::size_t dangling = 0;
  for (const auto& net : nl.nets())
    if (!net.is_primary_input() && net.sinks.empty() &&
        !net.is_primary_output)
      ++dangling;
  EXPECT_LT(static_cast<double>(dangling) /
                static_cast<double>(nl.gates().size()),
            0.25);
}

// Property sweep over every ISCAS85 benchmark: generated circuits honour
// their published interface statistics and are valid DAGs.
class AllBenchmarks : public ::testing::TestWithParam<std::string> {};

TEST_P(AllBenchmarks, SpecHonored) {
  const auto& spec = iscas85_spec(GetParam());
  const Netlist nl = generate_iscas85_like(spec, lib());
  EXPECT_EQ(nl.gates().size(), spec.gate_count);
  EXPECT_EQ(nl.primary_input_count(), spec.primary_inputs);
  EXPECT_EQ(nl.primary_output_count(), spec.primary_outputs);
  EXPECT_NO_THROW(nl.validate());
}

INSTANTIATE_TEST_SUITE_P(Iscas, AllBenchmarks,
                         ::testing::Values("C432", "C499", "C880", "C1355",
                                           "C1908", "C2670", "C3540",
                                           "C5315", "C6288", "C7552"));

// ----------------------------------------------- malformed-input corpus
//
// Every reader failure must be a precise sva::Error, never a crash or a
// silently wrong netlist.  Each case asserts the diagnostic substring the
// parser documents, so error messages stay stable contracts.

/// Run `fn`, assert it throws sva::Error whose message contains `expect`.
template <typename Fn>
void expect_parse_error(const std::string& what, const std::string& expect,
                        Fn&& fn) {
  try {
    fn();
    FAIL() << what << ": expected an sva::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
        << what << ": message was '" << e.what() << "'";
  }
}

TEST(BenchCorpus, WellFormedInputStillParses) {
  // Sanity anchor: the corpus failures below are caused by the
  // malformation alone, not by the harness.
  const Netlist nl = load_bench(
      "# c-tiny\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n", lib(),
      "tiny");
  EXPECT_GE(nl.gates().size(), 1u);  // mapper may decompose/buffer
  EXPECT_EQ(nl.primary_input_count(), 2u);
  EXPECT_EQ(nl.primary_output_count(), 1u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(BenchCorpus, EmptyAndDeclarationlessInputs) {
  expect_parse_error("empty file", "no INPUT declarations",
                     [] { parse_bench(""); });
  expect_parse_error("comments only", "no INPUT declarations",
                     [] { parse_bench("# just a comment\n\n"); });
  expect_parse_error("no outputs", "no OUTPUT declarations",
                     [] { parse_bench("INPUT(a)\n"); });
}

TEST(BenchCorpus, GarbageAndTruncatedLines) {
  expect_parse_error(".bench garbage line", ".bench line 2",
                     [] { parse_bench("INPUT(a)\n%!@ garbage\n"); });
  expect_parse_error("truncated gate", "expected 'out = OP(in, ...)'", [] {
    parse_bench("INPUT(a)\nOUTPUT(g)\ng = AND(a\n");
  });
  expect_parse_error("empty operand", "empty operand", [] {
    parse_bench("INPUT(a)\nOUTPUT(g)\ng = AND(a, )\n");
  });
  expect_parse_error("empty signal name", "empty signal name",
                     [] { parse_bench("INPUT()\n"); });
  expect_parse_error("unknown declaration", "unknown declaration",
                     [] { parse_bench("SIGNAL(a)\n"); });
}

TEST(BenchCorpus, SemanticViolations) {
  expect_parse_error("duplicate driver", "signal 'g' driven twice", [] {
    parse_bench(
        "INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = AND(a, b)\ng = OR(a, b)\n");
  });
  expect_parse_error("duplicate input", "duplicate INPUT 'a'",
                     [] { parse_bench("INPUT(a)\nINPUT(a)\nOUTPUT(a)\n"); });
  expect_parse_error("combinational cycle", "combinational cycle through", [] {
    parse_bench(
        "INPUT(a)\nOUTPUT(y)\n"
        "b = AND(a, c)\nc = AND(a, b)\ny = AND(b, c)\n");
  });
  expect_parse_error("unknown gate type", "unknown gate type 'MAJ'", [] {
    parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = MAJ(a, b)\n");
  });
  expect_parse_error("sequential element", "sequential element", [] {
    parse_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n");
  });
  expect_parse_error("undefined signal", "undefined signal 'phantom'", [] {
    parse_bench("INPUT(a)\nOUTPUT(g)\ng = AND(a, phantom)\n");
  });
  expect_parse_error("NOT arity", "NOT takes exactly one input", [] {
    parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = NOT(a, b)\n");
  });
}

TEST(VerilogCorpus, WellFormedInputStillParses) {
  const Netlist nl = parse_verilog(
      "module tiny (a, b, y);\n"
      "  input a, b;\n  output y;\n"
      "  NAND2_X1 u1 (.A(a), .B(b), .Y(y));\n"
      "endmodule\n",
      lib());
  EXPECT_EQ(nl.gates().size(), 1u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(VerilogCorpus, EmptyGarbageAndTruncatedSources) {
  EXPECT_THROW(parse_verilog("", lib()), PreconditionError);
  EXPECT_THROW(parse_verilog("// only a comment\n", lib()),
               PreconditionError);
  expect_parse_error("garbage prelude", "expected 'module'",
                     [] { parse_verilog("entity tiny is\n", lib()); });
  expect_parse_error("truncated module", "unexpected end of file",
                     [] { parse_verilog("module m (a);\ninput a;\n", lib()); });
  expect_parse_error("truncated instance", "unexpected end of file", [] {
    parse_verilog("module m (y);\noutput y;\nINV_X1 u1 (.A(", lib());
  });
}

TEST(VerilogCorpus, SemanticViolations) {
  expect_parse_error("duplicate input", "duplicate input 'a'", [] {
    parse_verilog(
        "module m (a, y);\ninput a, a;\noutput y;\n"
        "INV_X1 u1 (.A(a), .Y(y));\nendmodule\n",
        lib());
  });
  expect_parse_error("driven twice", "net 'y' driven twice", [] {
    parse_verilog(
        "module m (a, y);\ninput a;\noutput y;\n"
        "INV_X1 u1 (.A(a), .Y(y));\nINV_X1 u2 (.A(a), .Y(y));\nendmodule\n",
        lib());
  });
  expect_parse_error("combinational cycle", "combinational cycle through", [] {
    parse_verilog(
        "module m (a, y);\ninput a;\noutput y;\nwire w1, w2;\n"
        "INV_X1 u1 (.A(w2), .Y(w1));\n"
        "INV_X1 u2 (.A(w1), .Y(w2));\n"
        "INV_X1 u3 (.A(w1), .Y(y));\nendmodule\n",
        lib());
  });
  expect_parse_error("undriven net", "undriven net 'ghost'", [] {
    parse_verilog(
        "module m (y);\noutput y;\n"
        "INV_X1 u1 (.A(ghost), .Y(y));\nendmodule\n",
        lib());
  });
  expect_parse_error("no outputs", "module declares no outputs", [] {
    parse_verilog("module m (a);\ninput a;\nendmodule\n", lib());
  });
  expect_parse_error("missing .Y", "instance without .Y connection", [] {
    parse_verilog(
        "module m (a, y);\ninput a;\noutput y;\n"
        "INV_X1 u1 (.A(a));\nendmodule\n",
        lib());
  });
  expect_parse_error("unknown pin", "has no input pin Q", [] {
    parse_verilog(
        "module m (a, y);\ninput a;\noutput y;\n"
        "INV_X1 u1 (.Q(a), .Y(y));\nendmodule\n",
        lib());
  });
  expect_parse_error("unconnected pin", "leaves pin B unconnected", [] {
    parse_verilog(
        "module m (a, y);\ninput a;\noutput y;\n"
        "NAND2_X1 u1 (.A(a), .Y(y));\nendmodule\n",
        lib());
  });
}

}  // namespace
}  // namespace sva
