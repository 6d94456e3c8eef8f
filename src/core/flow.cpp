#include "core/flow.hpp"

#include <chrono>

#include <algorithm>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/sealed_file.hpp"
#include "util/serialize.hpp"

namespace sva {
namespace {

/// Sealed-file kind of the setup snapshot.
constexpr char kSetupKind[] = "setup";

double seconds_since(
    const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

LithoModels::LithoModels(const FlowConfig& config)
    : wafer_(config.wafer_optics, config.cell_tech.gate_length,
             config.cell_tech.gate_length + config.anchor_spacing),
      model_(config.opc_model_optics, config.cell_tech.gate_length,
             config.cell_tech.gate_length + config.anchor_spacing),
      engine_(model_, wafer_, config.opc) {}

SvaFlow::SvaFlow(const FlowConfig& config)
    : config_(config),
      library_(build_standard_library(config.cell_tech)),
      characterized_(characterize_library(library_, config.electrical)) {
  config_.budget.validate();

  const auto t0 = std::chrono::steady_clock::now();
  if (!config_.cache_dir.empty() && try_load_setup(config_.cache_dir)) {
    setup_from_cache_ = true;
    setup_opc_seconds_ = seconds_since(t0);
    MetricsRegistry::global().counter("flow.setup_disk_hits").add();
    log_info("flow: characterization setup restored from ",
             setup_cache_file_path(config_.cache_dir));
  } else {
    if (!config_.cache_dir.empty())
      MetricsRegistry::global().counter("flow.setup_disk_misses").add();
    compute_setup();
    // Never persist a degraded setup: the fallback CDs are a conservative
    // stand-in, not characterization data a later healthy run should
    // warm-start from.
    if (!config_.cache_dir.empty() && !setup_degraded_) {
      try {
        save_setup(config_.cache_dir);
      } catch (const std::exception& e) {
        log_warn("flow: setup snapshot failed (", e.what(), ")");
      }
    }
  }

  boundary_model_ = std::make_unique<TableCdModel>(
      config_.cell_tech.gate_length, post_opc_spacing_table(pitch_points_),
      config_.cell_tech.radius_of_influence);
  context_ = std::make_unique<ContextLibrary>(
      characterized_, library_opc_, *boundary_model_, config_.bins);
  context_cache_ = std::make_unique<ContextCache>(*context_);
  MetricsRegistry::global().timer("flow.setup").add_seconds(
      seconds_since(constructed_at_));
}

std::size_t SvaFlow::setup_threads() const {
  if (setup_from_cache_) return 0;
  return std::min({ThreadPool::default_thread_count(), kMaxSetupThreads,
                   library_.size() + config_.table_spacings.size()});
}

void SvaFlow::compute_setup() {
  {
    const LithoModels litho(config_);
    const auto t0 = std::chrono::steady_clock::now();
    // Every per-master OPC solve and every per-spacing pitch solve is
    // independent, so both loops fan out on one transient pool: a pool task
    // runs the pitch loop while this thread runs library OPC's, and every
    // thread helps with both loops' solves, so the pitch solves fill the
    // tail of the OPC ones.  A warm start never gets here and spawns no
    // thread.
    ThreadPool pool(setup_threads() - 1);
    log_info("flow: library OPC of ", library_.size(), " masters and "
             "post-OPC pitch characterization (",
             config_.table_spacings.size(), " spacings) on ",
             pool.thread_count() + 1, " threads");
    auto characterize_pitch = [&](ThreadPool* on) {
      return characterize_post_opc_pitch(
          litho.engine(), config_.cell_tech.gate_length,
          config_.table_spacings, /*array_lines=*/7, on);
    };
    TaskGroup pitch(pool);
    pitch.run([&] { pitch_points_ = characterize_pitch(&pool); });
    // A library-OPC failure propagates first; ~TaskGroup still joins the
    // pitch task before the pool goes away.
    library_opc_ = library_opc_all(library_.masters(), litho.engine(),
                                   config_.library_opc, config_.fault_policy,
                                   &pool);
    try {
      pitch.wait();
    } catch (...) {
      // The pitch solves have no fallback, but a fault of the pool's task
      // wrapper is no fault of theirs: under Degrade they are redone here,
      // and a failure of the serial solve propagates as it always did.
      if (config_.fault_policy == FaultPolicy::Strict) throw;
      pitch_points_ = characterize_pitch(nullptr);
    }
    setup_opc_seconds_ = seconds_since(t0);
  }
#ifdef __GLIBC__
  // The pool's workers allocated in malloc arenas of their own, which
  // outlive them and are handed to later threads (a job pool's).  Return
  // their free pages now, or each arena keeps its share of freed setup
  // and job memory resident and the process's peak RSS grows with it.
  malloc_trim(0);
#endif
  setup_degraded_ = std::any_of(
      library_opc_.begin(), library_opc_.end(),
      [](const LibraryOpcCellResult& r) { return r.degraded; });
  if (setup_degraded_)
    MetricsRegistry::global().counter("flow.setup_degraded").add();
}

std::uint64_t SvaFlow::setup_content_hash() const {
  Fnv1aHasher h;
  const CellTech& t = config_.cell_tech;
  h.f64(t.gate_length).f64(t.cell_height).f64(t.site_width);
  h.f64(t.poly_y_lo).f64(t.poly_y_hi);
  h.f64(t.nmos_y_lo).f64(t.nmos_y_hi).f64(t.pmos_y_lo).f64(t.pmos_y_hi);
  h.f64(t.contacted_pitch).f64(t.radius_of_influence);
  const ElectricalTech& e = config_.electrical;
  h.f64(e.r_unit_kohm).f64(e.w_unit).f64(e.c_gate_ff).f64(e.c_parasitic_ff);
  h.f64(e.c_par_per_um).f64(e.t_intrinsic_ps).f64(e.slew_sensitivity);
  h.f64(e.slew_gain).f64(e.slew_floor_ps);
  for (const OpticsConfig* o :
       {&config_.wafer_optics, &config_.opc_model_optics}) {
    h.f64(o->wavelength).f64(o->na).f64(o->sigma_inner).f64(o->sigma_outer);
    h.u64(static_cast<std::uint64_t>(o->source_radial));
    h.u64(static_cast<std::uint64_t>(o->source_azimuthal));
    h.f64(o->resist_diffusion_length);
  }
  const OpcConfig& c = config_.opc;
  h.u64(static_cast<std::uint64_t>(c.max_iterations));
  h.f64(c.damping).f64(c.mask_grid).f64(c.min_width).f64(c.min_space);
  h.f64(c.max_bias).f64(c.convergence_epe).f64(c.radius_of_influence);
  h.f64(config_.library_opc.dummy_gap).f64(config_.library_opc.dummy_width);
  h.vec_f64(config_.table_spacings);
  h.f64(config_.anchor_spacing);
  h.vec_f64(config_.bins.upper_edges());
  h.vec_f64(config_.bins.representatives());
  // Master structure.  The geometry itself is a pure function of the tech
  // already hashed, so name + device/arc counts suffice to catch a
  // different library.
  h.u64(library_.size());
  for (const CellMaster& m : library_.masters()) {
    h.str(m.name());
    h.u64(m.devices().size());
    h.u64(m.arcs().size());
  }
  return h.digest();
}

std::string SvaFlow::setup_cache_file_path(const std::string& dir) const {
  return snapshot_path(dir, "setup", setup_content_hash());
}

bool SvaFlow::try_load_setup(const std::string& dir) {
  static constexpr SnapshotReporting kReporting = {
      "setup snapshot", "flow", "setup_read_failed", "setup_quarantined",
      "flow.setup_quarantined", "flow.setup_load"};
  std::vector<LibraryOpcCellResult> opc;
  std::vector<PostOpcPitchPoint> points;
  const auto decode = [&](ByteReader& r) {
    if (r.u64() != library_.size())
      throw SerializeError("master count mismatch");
    opc.reserve(library_.size());
    for (std::size_t i = 0; i < library_.size(); ++i) {
      LibraryOpcCellResult res;
      res.device_cd = r.vec_f64();
      res.device_mask_width = r.vec_f64();
      res.images_simulated = static_cast<std::size_t>(r.u64());
      if (res.device_cd.size() != library_.masters()[i].devices().size() ||
          res.device_mask_width.size() != res.device_cd.size())
        throw SerializeError("device count mismatch");
      opc.push_back(std::move(res));
    }
    if (r.u64() != config_.table_spacings.size())
      throw SerializeError("pitch point count mismatch");
    points.reserve(config_.table_spacings.size());
    for (std::size_t i = 0; i < config_.table_spacings.size(); ++i) {
      PostOpcPitchPoint p;
      p.spacing = r.f64();
      p.printed_cd = r.f64();
      p.mask_bias = r.f64();
      if (p.spacing != config_.table_spacings[i])
        throw SerializeError("pitch spacing mismatch");
      points.push_back(p);
    }
  };
  if (!load_snapshot(setup_cache_file_path(dir), kSetupKind,
                     setup_content_hash(), kReporting, decode))
    return false;
  library_opc_ = std::move(opc);
  pitch_points_ = std::move(points);
  return true;
}

void SvaFlow::save_setup(const std::string& dir) const {
  ByteWriter payload;
  payload.u64(library_opc_.size());
  for (const LibraryOpcCellResult& res : library_opc_) {
    payload.vec_f64(res.device_cd);
    payload.vec_f64(res.device_mask_width);
    payload.u64(res.images_simulated);
  }
  payload.u64(pitch_points_.size());
  for (const PostOpcPitchPoint& p : pitch_points_) {
    payload.f64(p.spacing);
    payload.f64(p.printed_cd);
    payload.f64(p.mask_bias);
  }
  write_sealed_file(setup_cache_file_path(dir), kSetupKind,
                    setup_content_hash(), payload.bytes());
  log_debug("flow: setup snapshot saved to ", setup_cache_file_path(dir));
}

Netlist SvaFlow::make_benchmark(const std::string& name) const {
  return generate_iscas85_like(name, library_);
}

Placement SvaFlow::make_placement(const Netlist& netlist) const {
  return Placement(netlist, config_.placement);
}

std::vector<VersionKey> SvaFlow::bind_versions(
    const Placement& placement) const {
  return assign_versions(extract_nps(placement), config_.bins);
}

CircuitAnalysis SvaFlow::analyze(const Netlist& netlist,
                                 const Placement& placement) const {
  return analyze_impl(netlist, placement, nullptr, nullptr);
}

CircuitAnalysis SvaFlow::analyze(const Netlist& netlist,
                                 const Placement& placement, ThreadPool& pool,
                                 const CancelToken* cancel) const {
  return analyze_impl(netlist, placement, &pool, cancel);
}

CircuitAnalysis SvaFlow::analyze_impl(const Netlist& netlist,
                                      const Placement& placement,
                                      ThreadPool* pool,
                                      const CancelToken* cancel) const {
  SVA_REQUIRE(&placement.netlist() == &netlist);
  ScopedTimer timer(MetricsRegistry::global().timer("flow.analyze"));
  const Nm l_nom = config_.cell_tech.gate_length;
  const Sta sta(netlist, characterized_, config_.sta);

  CircuitAnalysis out;
  out.name = netlist.name();
  out.gate_count = netlist.gates().size();

  // Traditional corners: the drawn-length library plus uniform
  // full-budget corners.
  const UnitScale trad_nom;
  const TraditionalCornerScale trad_bc(l_nom, config_.budget, Corner::Best);
  const TraditionalCornerScale trad_wc(l_nom, config_.budget, Corner::Worst);

  // In-context corners with the expanded library.  Delay tables come from
  // the binned versions (memoized in the context cache); device labels use
  // the measured spacings.  Annotating once and deriving the three corner
  // factor matrices is exactly what three SvaCornerScale constructions
  // would compute, without re-annotating per corner.
  const std::vector<InstanceNps> nps = extract_nps(placement);
  const std::vector<VersionKey> versions = assign_versions(nps, config_.bins);
  const std::vector<std::vector<ArcAnnotation>> annotations =
      annotate_arcs(netlist, *context_, versions, config_.budget,
                    config_.arc_policy, 0.0, &nps, context_cache_.get());
  const MatrixScale sva_nom(
      corner_factors(netlist, annotations, config_.budget, Corner::Nominal));
  const MatrixScale sva_bc(
      corner_factors(netlist, annotations, config_.budget, Corner::Best));
  const MatrixScale sva_wc(
      corner_factors(netlist, annotations, config_.budget, Corner::Worst));

  out.arc_class_counts.assign(3, 0);
  for (const auto& gate : annotations)
    for (const ArcAnnotation& ann : gate)
      ++out.arc_class_counts[static_cast<std::size_t>(ann.arc_class)];

  const ArcScaleProvider* scales[6] = {&trad_nom, &trad_bc, &trad_wc,
                                       &sva_nom, &sva_bc, &sva_wc};
  double* fields[6] = {&out.trad_nom_ps, &out.trad_bc_ps, &out.trad_wc_ps,
                       &out.sva_nom_ps, &out.sva_bc_ps, &out.sva_wc_ps};
  auto run_one = [&](std::size_t i) {
    *fields[i] =
        pool != nullptr
            ? sta.run_parallel(*scales[i], *pool, cancel).critical_delay_ps
            : sta.run(*scales[i]).critical_delay_ps;
  };
  if (pool != nullptr) {
    TaskGroup group(*pool, cancel);
    for (std::size_t i = 0; i < 6; ++i)
      group.run([&run_one, i] { run_one(i); });
    group.wait();
  } else {
    for (std::size_t i = 0; i < 6; ++i) {
      if (cancel) cancel->check();
      run_one(i);
    }
  }
  return out;
}

CircuitAnalysis SvaFlow::analyze_benchmark(const std::string& name) const {
  const Netlist netlist = make_benchmark(name);
  const Placement placement = make_placement(netlist);
  return analyze(netlist, placement);
}

}  // namespace sva
