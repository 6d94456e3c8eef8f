#pragma once
// The end-to-end systematic-variation-aware timing flow (paper Secs. 3-4).
//
// Construction performs the design-independent setup:
//   1. build + characterize the 10-cell library;
//   2. calibrate the wafer and OPC-model litho processes (LithoModels);
//   3. library-based OPC of every master in the dummy environment and
//      per-device printed-CD measurement (Sec. 3.1.1);
//   4. post-OPC pitch->CD characterization of the test gratings and the
//      boundary-device lookup table (Sec. 3.3);
//   5. expansion into the 81-version context library (Sec. 3.1.2).
//
// analyze() then runs, for one benchmark circuit: placement, nps
// extraction and version binding (Sec. 3.1.3), traditional corner STA,
// and the proposed in-context corner STA, returning the Table 2 row.
//
// Steps 3-4 dominate construction time and are pure functions of the
// configuration, so with FlowConfig::cache_dir set they are persisted to
// a content-hash-keyed snapshot and restored bit-identically on later
// runs.  A warm start skips the OPC simulations and the step-2
// calibration they need: the litho models exist only during a cold setup.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cell/characterize.hpp"
#include "cell/context_library.hpp"
#include "cell/library.hpp"
#include "cell/library_opc.hpp"
#include "core/budget.hpp"
#include "core/classify.hpp"
#include "core/scales.hpp"
#include "engine/context_cache.hpp"
#include "engine/thread_pool.hpp"
#include "litho/cd_model.hpp"
#include "netlist/iscas85.hpp"
#include "opc/engine.hpp"
#include "opc/pitch_table.hpp"
#include "place/context.hpp"
#include "place/placement.hpp"
#include "sta/sta.hpp"
#include "util/diagnostics.hpp"

namespace sva {

struct FlowConfig {
  CellTech cell_tech;
  ElectricalTech electrical;
  OpticsConfig wafer_optics;
  /// Optics of the OPC model build.  Any difference from `wafer_optics`
  /// models finite OPC model fidelity (see opc/engine.hpp): the default
  /// uses a slightly tighter annulus and less resist blur than the wafer,
  /// giving the pitch-dependent systematic residual the paper observes
  /// after production OPC (Fig. 7).
  OpticsConfig opc_model_optics = default_opc_model_optics();

  static OpticsConfig default_opc_model_optics() {
    OpticsConfig o;
    o.sigma_inner = 0.40;
    o.sigma_outer = 1.00;
    o.resist_diffusion_length = 25.0;
    return o;
  }
  OpcConfig opc;
  LibraryOpcConfig library_opc;
  PlacementConfig placement;
  StaConfig sta;
  ContextBins bins;
  CdBudget budget;
  ArcLabelPolicy arc_policy = ArcLabelPolicy::Majority;
  /// One-sided spacings of the pitch->CD test gratings (nm).
  std::vector<Nm> table_spacings = {150, 200, 250, 300, 350,
                                    400, 450, 500, 550, 600};
  /// Dense anchor spacing used to calibrate resist thresholds.
  Nm anchor_spacing = 150.0;

  /// Directory of the persistent characterization cache.  When non-empty,
  /// construction tries to restore the library-OPC and pitch products
  /// from a snapshot there (keyed by setup_content_hash()) and snapshots
  /// them after a cold computation.  Empty disables persistence; the CLI
  /// plumbs --cache-dir / --no-cache into this field.
  std::string cache_dir;

  /// Reaction to recoverable setup faults (a failed per-cell OPC solve):
  /// Degrade isolates the cell with the uniform drawn-CD fallback and a
  /// warning diagnostic; Strict propagates the failure out of the
  /// constructor.  The CLI plumbs --strict / --keep-going into this field
  /// (keep-going, i.e. Degrade, is the default).
  FaultPolicy fault_policy = FaultPolicy::Degrade;
};

/// One benchmark circuit's corner results: a row of the paper's Table 2.
struct CircuitAnalysis {
  std::string name;
  std::size_t gate_count = 0;

  double trad_nom_ps = 0.0;
  double trad_bc_ps = 0.0;
  double trad_wc_ps = 0.0;
  double sva_nom_ps = 0.0;
  double sva_bc_ps = 0.0;
  double sva_wc_ps = 0.0;

  /// Arc-class counts over the design: [smile, frown, self-compensated].
  std::vector<std::size_t> arc_class_counts;

  double trad_spread_ps() const { return trad_wc_ps - trad_bc_ps; }
  double sva_spread_ps() const { return sva_wc_ps - sva_bc_ps; }
  /// The paper's "% Reduction in Uncertainty".
  double uncertainty_reduction() const {
    return 1.0 - sva_spread_ps() / trad_spread_ps();
  }
};

/// The calibrated litho models of the OPC setup: the wafer process, the
/// OPC-model process and the dual-process OPC engine over them, all built
/// from one FlowConfig.  SvaFlow builds them only for a cold setup; code
/// that runs OPC on placed designs (full-chip OPC, budget measurement)
/// builds its own from the flow's config().  Non-copyable and non-movable:
/// the engine points at the two processes.
class LithoModels {
 public:
  explicit LithoModels(const FlowConfig& config);
  LithoModels(const LithoModels&) = delete;
  LithoModels& operator=(const LithoModels&) = delete;

  const LithoProcess& wafer() const { return wafer_; }
  const OpcEngine& engine() const { return engine_; }

 private:
  LithoProcess wafer_;
  LithoProcess model_;
  OpcEngine engine_;
};

class SvaFlow {
 public:
  explicit SvaFlow(const FlowConfig& config = {});

  // Non-copyable: internal components hold cross-references.
  SvaFlow(const SvaFlow&) = delete;
  SvaFlow& operator=(const SvaFlow&) = delete;

  const FlowConfig& config() const { return config_; }
  const CellLibrary& library() const { return library_; }
  const CharacterizedLibrary& characterized() const { return characterized_; }
  const std::vector<LibraryOpcCellResult>& library_opc_results() const {
    return library_opc_;
  }
  const std::vector<PostOpcPitchPoint>& pitch_points() const {
    return pitch_points_;
  }
  const TableCdModel& boundary_model() const { return *boundary_model_; }
  const ContextLibrary& context_library() const { return *context_; }
  /// Memoized view of the context library: (cell, version) slots are
  /// characterized once, lazily, and shared by all analyses (and all
  /// threads) running against this flow.
  const ContextCache& context_cache() const { return *context_cache_; }

  /// Wall-clock seconds spent on library OPC + pitch characterization
  /// during construction (Table 1's "Library OPC Runtime"); the litho
  /// calibration before them is not counted.  Near zero when the setup was
  /// restored from a snapshot.  The whole constructor, warm or cold, is
  /// timed as the `flow.setup` metric.
  double setup_opc_seconds() const { return setup_opc_seconds_; }

  /// Threads the cold setup's OPC solves ran on (the calling thread plus
  /// a transient pool), i.e. what setup_opc_seconds() is the wall time
  /// over; 0 after a warm start.  The hardware thread count, capped at
  /// kMaxSetupThreads and at the number of solves.
  std::size_t setup_threads() const;

  /// Most threads a cold setup fans out on.  Its ~20 solves are few and
  /// uneven, so more threads barely shorten it, while each pool worker
  /// leaves a malloc arena behind that later threads keep memory in.
  static constexpr std::size_t kMaxSetupThreads = 4;

  /// True when construction restored the OPC setup products from a
  /// persistent snapshot instead of recomputing them.
  bool setup_from_cache() const { return setup_from_cache_; }

  /// True when at least one per-cell OPC solve failed and was replaced by
  /// the uniform drawn-CD fallback (FaultPolicy::Degrade).  A degraded
  /// setup is never snapshotted to the cache.
  bool setup_degraded() const { return setup_degraded_; }

  /// FNV-1a hash of everything the setup products depend on: library
  /// masters, tech and electrical parameters, both optics models, the OPC
  /// configs, grating spacings, and the binning config.  The snapshot
  /// invalidation key.
  std::uint64_t setup_content_hash() const;

  /// Setup snapshot file for this configuration inside `dir` (the content
  /// hash is part of the name, so snapshots of different configurations
  /// coexist).
  std::string setup_cache_file_path(const std::string& dir) const;

  /// Generate a benchmark netlist / its placement with this flow's
  /// library and configuration.
  Netlist make_benchmark(const std::string& name) const;
  Placement make_placement(const Netlist& netlist) const;

  /// Bind every placed instance to its context version.
  std::vector<VersionKey> bind_versions(const Placement& placement) const;

  /// Full Table 2 analysis of one placed circuit.
  CircuitAnalysis analyze(const Netlist& netlist,
                          const Placement& placement) const;

  /// Parallel analysis: the six corner STA runs fan out as pool tasks and
  /// each levelizes across the pool; bit-identical to the serial analyze()
  /// at any thread count.  A non-null `cancel` is polled per corner run and
  /// STA level; a trip surfaces as CancelledError out of analyze().
  CircuitAnalysis analyze(const Netlist& netlist, const Placement& placement,
                          ThreadPool& pool,
                          const CancelToken* cancel = nullptr) const;

  /// Convenience: generate, place, analyze.
  CircuitAnalysis analyze_benchmark(const std::string& name) const;

 private:
  CircuitAnalysis analyze_impl(const Netlist& netlist,
                               const Placement& placement, ThreadPool* pool,
                               const CancelToken* cancel) const;
  /// Restore library_opc_ + pitch_points_ from `dir` (util/sealed_file.hpp
  /// load policy); false, leaving both empty, on any cold start.
  bool try_load_setup(const std::string& dir);
  void save_setup(const std::string& dir) const;
  /// Library OPC + pitch characterization from scratch (the cold branch),
  /// fanned out on a transient pool.
  void compute_setup();

  /// Construction start, for the flow.setup timer; declared first so it
  /// is taken before the library is built.
  std::chrono::steady_clock::time_point constructed_at_ =
      std::chrono::steady_clock::now();
  FlowConfig config_;
  CellLibrary library_;
  CharacterizedLibrary characterized_;
  std::vector<LibraryOpcCellResult> library_opc_;
  std::vector<PostOpcPitchPoint> pitch_points_;
  std::unique_ptr<TableCdModel> boundary_model_;
  std::unique_ptr<ContextLibrary> context_;
  std::unique_ptr<ContextCache> context_cache_;
  double setup_opc_seconds_ = 0.0;
  bool setup_from_cache_ = false;
  bool setup_degraded_ = false;
};

}  // namespace sva
