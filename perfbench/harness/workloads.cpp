#include "workloads.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "cell/characterize.hpp"
#include "cell/library.hpp"
#include "cell/library_opc.hpp"
#include "common.hpp"
#include "core/flow.hpp"
#include "core/scales.hpp"
#include "engine/thread_pool.hpp"
#include "netlist/iscas85.hpp"
#include "opc/pitch_table.hpp"
#include "opt/eco.hpp"
#include "opt/sizing.hpp"
#include "opt/trajectory.hpp"
#include "place/context.hpp"
#include "report/table.hpp"
#include "server/client.hpp"
#include "server/jobs.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/socket.hpp"
#include "ssta/criticality.hpp"
#include "ssta/propagate.hpp"
#include "ssta/report.hpp"
#include "sta/scale.hpp"
#include "sta/sta.hpp"
#include "trace.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace perfbench {

using namespace sva;

namespace {

/// The timed phase runs as this many segments.  One cold set-up comes
/// before the first and one after each, so setup_s (their median) samples
/// the host across the whole run, as the job metrics do.
constexpr int kSegments = 4;
/// A segment also runs until it has this many jobs, so that a slow host
/// still leaves at least ten samples above job_p90_ms.
constexpr std::size_t kMinSegmentJobs = 25;
/// CLI spawns behind cli.process_start_ms (median).
constexpr int kProcessStartSpawns = 15;

/// daemon_mix: every third request repeats one of the last few specs
/// exactly; the daemon's result-cache size.  The cache holds fewer
/// entries than the pool has cacheable specs, so a fresh draw from the
/// dealt deck misses and only a near repeat can hit.
constexpr std::size_t kRepeatWindow = 4;
constexpr std::size_t kDaemonResultCache = 8;
constexpr std::size_t kDaemonClients = 2;
/// Busy answers and refused connects are retried this often, then the
/// request counts as failed.
constexpr int kMaxRetries = 50;

/// The per-layer metrics, in the order BENCHMARK.json lists them.  Every
/// traced run prints all of them; layers a workload does not reach read 0.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"litho.calibrate_ms", "ms"},     {"cell.characterize_ms", "ms"},
    {"opc.library_opc_ms", "ms"},     {"opc.pitch_table_ms", "ms"},
    {"cell.context_library_ms", "ms"}, {"setup.cold_ctor_ms", "ms"},
    {"setup.unattributed_ms", "ms"},  {"setup.prepare_ms", "ms"},
    {"util.setup_restore_ms", "ms"},  {"util.slot_load_ms", "ms"},
    {"util.slot_save_ms", "ms"},      {"cell.context_hit_ratio", "ratio"},
    {"cell.slots_filled", "count"},   {"engine.pool_start_ms", "ms"},
    {"engine.pool_stop_ms", "ms"},    {"engine.tasks", "count"},
    {"engine.steals", "count"},       {"netlist.generate_map_ms", "ms"},
    {"place.placement_ms", "ms"},     {"place.nps_bind_ms", "ms"},
    {"core.annotate_ms", "ms"},       {"core.corner_factors_ms", "ms"},
    {"sta.compile_ms", "ms"},         {"sta.run_ms", "ms"},
    {"sta.runs", "count"},            {"ssta.engine_build_ms", "ms"},
    {"ssta.propagate_ms", "ms"},      {"ssta.criticality_ms", "ms"},
    {"ssta.residual_slots", "count"}, {"opt.sized_library_ms", "ms"},
    {"opt.optimizer_build_ms", "ms"}, {"opt.eco_run_ms", "ms"},
    {"opt.candidates", "count"},      {"opt.candidates_per_s", "1/s"},
    {"opt.commit_ratio", "ratio"},    {"report.render_ms", "ms"},
    {"server.rtt_ms", "ms"},          {"server.queue_wait_ms", "ms"},
    {"server.exec_ms", "ms"},         {"server.wire_ms", "ms"},
    {"server.result_cache_hit_ratio", "ratio"},
    {"server.busy_rejects", "count"}, {"server.retries", "count"},
    {"cli.process_start_ms", "ms"},   {"job_ms", "ms"},
    {"unattributed_ms", "ms"},        {"trace_overhead_frac", "ratio"},
    {"fail_rate", "ratio"},
};

FlowConfig flow_config(const std::string& dir) {
  FlowConfig cfg;
  cfg.cache_dir = dir;
  return cfg;
}

/// A fresh directory: set-up must start from nothing.
void make_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0)
    throw std::runtime_error("cannot create a fresh " + dir);
}

/// Per-job counts summed over the traced jobs of a run.
struct Counts {
  double tasks = 0, steals = 0;
  double ctx_hits = 0, ctx_lookups = 0, slots_filled = 0;
  double sta_runs = 0, residual_slots = 0;
  double candidates = 0, moves = 0;

  void add_pool(const ThreadPool& pool) {
    const ThreadPool::Stats s = pool.stats();
    tasks += static_cast<double>(s.executed);
    steals += static_cast<double>(s.steals);
  }
  void add_cache(const ContextCache& cache) {
    const ContextCache::Stats s = cache.stats();
    ctx_hits += static_cast<double>(s.hits);
    ctx_lookups += static_cast<double>(s.hits + s.misses);
    slots_filled += static_cast<double>(s.characterized);
  }
};

// ---------------------------------------------------------------------------
// CLI-style jobs: what `sva-timing analyze|ssta|optimize` does in-process,
// with its persistent cache in `dir`.

JobResult cli_job(const PoolSpec& s, const std::string& dir,
                  std::size_t threads) {
  const CancelToken cancel;
  const SvaFlow flow{flow_config(dir)};
  if (s.kind == JobKind::Optimize) {
    const SizedLibrary sized(flow.library(), flow.config().electrical,
                             flow.library_opc_results(), flow.boundary_model(),
                             flow.config().bins);
    sized.context_cache().try_load(dir);
    ThreadPool pool(threads);
    OptimizeJobSpec spec = s.optimize;
    spec.checkpoint_path = dir + "/sva_optimize.ckpt";
    JobResult result = run_optimize_job(flow, sized, pool, spec, &cancel);
    sized.context_cache().save(dir);
    return result;
  }
  flow.context_cache().try_load(dir);
  ThreadPool pool(threads);
  JobResult result;
  if (s.kind == JobKind::Analyze) {
    AnalyzeJobSpec spec = s.analyze;
    spec.checkpoint_path = dir + "/sva_analyze.ckpt";
    result = run_analyze_job(flow, pool, spec, &cancel);
  } else {
    result = run_ssta_job(flow, pool, s.ssta, &cancel);
  }
  flow.context_cache().save(dir);
  return result;
}

/// The Table 2 text run_analyze_job prints for these rows.
std::string analyze_table(const std::vector<CircuitAnalysis>& rows,
                          std::size_t threads, double seconds) {
  Table table({"Testcase", "#Gates", "Trad Nom", "Trad BC", "Trad WC",
               "New Nom", "New BC", "New WC", "Reduction"});
  for (const CircuitAnalysis& a : rows)
    table.add_row({a.name, std::to_string(a.gate_count),
                   fmt(units::ps_to_ns(a.trad_nom_ps), 3),
                   fmt(units::ps_to_ns(a.trad_bc_ps), 3),
                   fmt(units::ps_to_ns(a.trad_wc_ps), 3),
                   fmt(units::ps_to_ns(a.sva_nom_ps), 3),
                   fmt(units::ps_to_ns(a.sva_bc_ps), 3),
                   fmt(units::ps_to_ns(a.sva_wc_ps), 3),
                   fmt_pct(a.uncertainty_reduction(), 1)});
  char trailer[96];
  std::snprintf(trailer, sizeof trailer, "(%zu circuits, %zu threads, %.2f s)\n",
                rows.size(), threads, seconds);
  return table.render() + trailer;
}

/// One circuit of an analyze job as the public calls SvaFlow::analyze
/// makes (batch runner settings: corners fanned out, levelized STA).
CircuitAnalysis analyze_circuit(const SvaFlow& flow, const std::string& name,
                                ThreadPool& pool, const CancelToken& cancel,
                                Recorder& rec, Counts& counts) {
  const FlowConfig& fc = flow.config();
  const Netlist netlist = rec.layer("netlist.generate_map_ms",
                                    [&] { return flow.make_benchmark(name); });
  const Placement placement = rec.layer(
      "place.placement_ms", [&] { return flow.make_placement(netlist); });
  const Sta sta = rec.layer("sta.compile_ms", [&] {
    return Sta(netlist, flow.characterized(), fc.sta);
  });
  std::vector<InstanceNps> nps;
  std::vector<VersionKey> versions;
  rec.layer("place.nps_bind_ms", [&] {
    nps = extract_nps(placement);
    versions = assign_versions(nps, fc.bins);
  });
  const auto annotations = rec.layer("core.annotate_ms", [&] {
    return annotate_arcs(netlist, flow.context_library(), versions, fc.budget,
                         fc.arc_policy, 0.0, &nps, &flow.context_cache());
  });
  const Nm l_nom = fc.cell_tech.gate_length;
  std::unique_ptr<ArcScaleProvider> scales[6];
  rec.layer("core.corner_factors_ms", [&] {
    scales[0] = std::make_unique<UnitScale>();
    scales[1] = std::make_unique<TraditionalCornerScale>(l_nom, fc.budget,
                                                         Corner::Best);
    scales[2] = std::make_unique<TraditionalCornerScale>(l_nom, fc.budget,
                                                         Corner::Worst);
    const Corner corners[3] = {Corner::Nominal, Corner::Best, Corner::Worst};
    for (int i = 0; i < 3; ++i)
      scales[3 + i] = std::make_unique<MatrixScale>(
          corner_factors(netlist, annotations, fc.budget, corners[i]));
  });
  CircuitAnalysis out;
  out.name = netlist.name();
  out.gate_count = netlist.gates().size();
  double* fields[6] = {&out.trad_nom_ps, &out.trad_bc_ps, &out.trad_wc_ps,
                       &out.sva_nom_ps,  &out.sva_bc_ps,  &out.sva_wc_ps};
  rec.layer("sta.run_ms", [&] {
    TaskGroup group(pool, &cancel);
    for (std::size_t i = 0; i < 6; ++i)
      group.run([&, i] {
        *fields[i] =
            sta.run_parallel(*scales[i], pool, &cancel).critical_delay_ps;
      });
    group.wait();
  });
  counts.sta_runs += 6;
  return out;
}

/// The same job as cli_job, issued as the individual public calls the
/// command makes so each lands in its layer.  Circuits of an analyze job
/// run one after another (cli_job fans them out across the pool).
JobResult cli_job_decomposed(const PoolSpec& s, const std::string& dir,
                             std::size_t threads, Recorder& rec,
                             Counts& counts) {
  const CancelToken cancel;
  const auto t0 = Clock::now();
  auto flow = rec.layer("util.setup_restore_ms", [&] {
    return std::make_unique<const SvaFlow>(flow_config(dir));
  });
  const FlowConfig& fc = flow->config();
  std::unique_ptr<SizedLibrary> sized;
  if (s.kind == JobKind::Optimize)
    sized = rec.layer("opt.sized_library_ms", [&] {
      return std::make_unique<SizedLibrary>(
          flow->library(), fc.electrical, flow->library_opc_results(),
          flow->boundary_model(), fc.bins);
    });
  const ContextCache& cache =
      sized ? sized->context_cache() : flow->context_cache();
  rec.layer("util.slot_load_ms", [&] { cache.try_load(dir); });
  auto pool = rec.layer("engine.pool_start_ms",
                        [&] { return std::make_unique<ThreadPool>(threads); });

  JobResult result;
  if (s.kind == JobKind::Analyze) {
    std::vector<CircuitAnalysis> rows;
    for (const std::string& name : s.analyze.circuits)
      rec.group("circuit " + name, [&] {
        rows.push_back(analyze_circuit(*flow, name, *pool, cancel, rec, counts));
      });
    result.output = rec.layer("report.render_ms", [&] {
      return analyze_table(rows, pool->thread_count(),
                           std::chrono::duration<double>(Clock::now() - t0).count());
    });
  } else if (s.kind == JobKind::Ssta) {
    const SstaJobSpec& spec = s.ssta;
    if (spec.mc_samples > 0)
      throw std::runtime_error(s.text + ": --mc is not decomposed");
    const Netlist netlist = rec.layer("netlist.generate_map_ms", [&] {
      return flow->make_benchmark(spec.circuit);
    });
    const Placement placement = rec.layer(
        "place.placement_ms", [&] { return flow->make_placement(netlist); });
    const std::vector<VersionKey> versions = rec.layer(
        "place.nps_bind_ms", [&] { return flow->bind_versions(placement); });
    SstaVariationModel model;
    model.budget = fc.budget;
    model.policy = fc.arc_policy;
    model.global_share = spec.global_share;
    const auto engine = rec.layer("ssta.engine_build_ms", [&] {
      return std::make_unique<const SstaEngine>(
          netlist, flow->characterized(), flow->context_library(), versions,
          model, fc.sta, &flow->context_cache());
    });
    const SstaResult ssta = rec.layer(
        "ssta.propagate_ms", [&] { return engine->run_parallel(*pool, &cancel); });
    const CriticalityResult crit = rec.layer(
        "ssta.criticality_ms", [&] { return compute_criticality(netlist, ssta); });
    rec.layer("report.render_ms", [&] {
      result.output = ssta_text_report(netlist, ssta, crit, spec.quantile,
                                       spec.clock_period_ps);
      if (!spec.csv_path.empty())
        result.artifacts.push_back(
            {spec.csv_path, criticality_csv(netlist, ssta, crit)});
    });
    double slots = static_cast<double>(netlist.gates().size());
    for (const GateInst& g : netlist.gates())
      slots += static_cast<double>(
          flow->library().masters()[g.cell_index].arcs().size());
    counts.residual_slots += slots;
  } else {
    const OptimizeJobSpec& spec = s.optimize;
    EcoConfig eco;
    eco.clock_period_ps = spec.clock_period_ps;
    eco.max_moves = spec.max_moves;
    eco.near_critical_window_ps = spec.window_ps;
    eco.mode = spec.mode();
    eco.budget = fc.budget;
    eco.arc_policy = fc.arc_policy;
    eco.sta = fc.sta;
    Netlist netlist = rec.layer("netlist.generate_map_ms", [&] {
      return generate_iscas85_like(spec.circuit, sized->library());
    });
    auto optimizer = rec.layer("opt.optimizer_build_ms", [&] {
      return std::make_unique<EcoOptimizer>(*sized, std::move(netlist),
                                            fc.placement, eco);
    });
    const EcoResult eco_result = rec.layer(
        "opt.eco_run_ms", [&] { return optimizer->run(pool.get(), &cancel); });
    if (eco_result.cancelled) throw std::runtime_error(s.text + ": cancelled");
    rec.layer("report.render_ms", [&] {
      result.output = trajectory_table(eco_result);
      if (!spec.csv_path.empty())
        result.artifacts.push_back({spec.csv_path, trajectory_csv(eco_result)});
    });
    result.exit_code = eco_result.met_timing ? 0 : 1;
    counts.candidates += static_cast<double>(eco_result.candidates_evaluated);
    counts.moves += static_cast<double>(eco_result.moves_committed());
  }
  rec.layer("util.slot_save_ms", [&] { cache.save(dir); });
  counts.add_cache(cache);
  counts.add_pool(*pool);
  rec.layer("engine.pool_stop_ms", [&] { pool.reset(); });
  return result;
}

// ---------------------------------------------------------------------------
// Set-up replica: the cold SvaFlow constructor's work, as its public calls.

struct SetupLayers {
  double characterize = 0, calibrate = 0, library_opc = 0, pitch_table = 0,
         context_library = 0;
  double sum() const {
    return characterize + calibrate + library_opc + pitch_table +
           context_library;
  }
};

/// Times each stage; `why` is set when its products differ from a real
/// cold flow's (the replica would then be timing other work).
SetupLayers time_setup_layers(std::string& why) {
  const FlowConfig cfg;
  const Nm l = cfg.cell_tech.gate_length;
  SetupLayers t;
  auto t0 = Clock::now();
  const CellLibrary library = build_standard_library(cfg.cell_tech);
  const CharacterizedLibrary characterized =
      characterize_library(library, cfg.electrical);
  t.characterize = ms_since(t0);
  t0 = Clock::now();
  const LithoProcess wafer(cfg.wafer_optics, l, l + cfg.anchor_spacing);
  const LithoProcess model(cfg.opc_model_optics, l, l + cfg.anchor_spacing);
  const OpcEngine engine(model, wafer, cfg.opc);
  t.calibrate = ms_since(t0);
  t0 = Clock::now();
  const std::vector<LibraryOpcCellResult> opc = library_opc_all(
      library.masters(), engine, cfg.library_opc, cfg.fault_policy);
  t.library_opc = ms_since(t0);
  t0 = Clock::now();
  const std::vector<PostOpcPitchPoint> points =
      characterize_post_opc_pitch(engine, l, cfg.table_spacings);
  t.pitch_table = ms_since(t0);
  t0 = Clock::now();
  {
    const TableCdModel boundary(l, post_opc_spacing_table(points),
                                cfg.cell_tech.radius_of_influence);
    const ContextLibrary context(characterized, opc, boundary, cfg.bins);
    const ContextCache cache(context);
  }
  t.context_library = ms_since(t0);

  const SvaFlow flow{cfg};
  bool same = flow.library_opc_results().size() == opc.size() &&
              flow.pitch_points().size() == points.size();
  for (std::size_t i = 0; same && i < opc.size(); ++i)
    same = flow.library_opc_results()[i].device_cd == opc[i].device_cd &&
           flow.library_opc_results()[i].device_mask_width ==
               opc[i].device_mask_width;
  for (std::size_t i = 0; same && i < points.size(); ++i)
    same = flow.pitch_points()[i].printed_cd == points[i].printed_cd &&
           flow.pitch_points()[i].mask_bias == points[i].mask_bias;
  if (!same) why = "set-up replica products differ from SvaFlow's";
  return t;
}

// ---------------------------------------------------------------------------
// Process-level measurements.

/// Start the peak-RSS window here (Linux: clear_refs 5 resets VmHWM).
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  return f.good();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Median wall time of spawning the CLI on `list` and reaping it.
double time_process_start(const std::string& cli, const std::string& dir) {
  std::vector<double> ms;
  const std::string env_cache = "SVA_CACHE_DIR=" + dir + "/cli_cache";
  char* const env[] = {const_cast<char*>(env_cache.c_str()), nullptr};
  char* const argv[] = {const_cast<char*>("sva-timing"),
                        const_cast<char*>("list"), nullptr};
  for (int i = 0; i < kProcessStartSpawns; ++i) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
    const auto t0 = Clock::now();
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, cli.c_str(), &actions, nullptr, argv, env);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + cli);
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
      throw std::runtime_error(cli + " list failed");
    ms.push_back(ms_since(t0));
  }
  return median(ms);
}

// ---------------------------------------------------------------------------
// Run bookkeeping shared by the workloads.

struct Sample {
  std::vector<double> latency_ms;  ///< every timed job
  double phase_s = 0.0;
  std::vector<double> setup_ms;       ///< cold ctor + prepare, per repeat
  std::vector<double> cold_ctor_ms;   ///< per repeat
  std::vector<double> prepare_ms;     ///< per repeat
  std::vector<SetupLayers> replicas;  ///< traced runs: one per repeat
  double peak_rss_mb = 0.0;           ///< highest over the timed segments
  bool rss_window = true;  ///< peak RSS covers only the segments
  /// Host CPU time stolen by other guests during the segments: a
  /// provenance figure that explains slow runs on shared hosts.
  double cpu_ticks = 0.0, steal_ticks = 0.0;
  // Traced runs only.
  std::vector<std::unique_ptr<Recorder>> traced;
  /// (spec index, job ms) of traced and untraced jobs, for the overhead.
  std::vector<std::pair<std::size_t, double>> traced_ms, untraced_ms;
  Counts counts;
  std::map<std::string, double> extra;  ///< workload-specific layer values

  void add_setup(double cold_ms, double prep_ms) {
    cold_ctor_ms.push_back(cold_ms);
    prepare_ms.push_back(prep_ms);
    setup_ms.push_back(cold_ms + prep_ms);
  }
};

/// Host CPU ticks (all, stolen) from /proc/stat; zeros where unavailable.
std::pair<double, double> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

/// One segment of the timed phase: it lasts seconds / kSegments (plus the
/// rest of the deck in flight); the peak-RSS window covers only it.
class Segment {
 public:
  explicit Segment(double seconds)
      : start_(Clock::now()),
        end_(start_ + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds / kSegments))),
        rss_window_(reset_peak_rss()),
        ticks_(cpu_ticks()) {}
  bool over() const { return Clock::now() >= end_; }
  void close(Sample& sample) const {
    sample.phase_s += std::chrono::duration<double>(Clock::now() - start_).count();
    sample.peak_rss_mb = std::max(sample.peak_rss_mb, peak_rss_mb());
    sample.rss_window &= rss_window_;
    const auto [total, steal] = cpu_ticks();
    sample.cpu_ticks += total - ticks_.first;
    sample.steal_ticks += steal - ticks_.second;
  }

 private:
  Clock::time_point start_, end_;
  bool rss_window_;
  std::pair<double, double> ticks_;
};

void note_failure(Report& report, const std::string& why) {
  ++report.failed;
  if (report.errors.size() < 20) report.errors.push_back(why);
}

/// Traced runs time the set-up replica right before each cold set-up, so
/// both see the same machine state.
void replicate_setup(Sample& sample, Report& report) {
  std::string why;
  sample.replicas.push_back(time_setup_layers(why));
  if (!why.empty()) report.errors.push_back(why);
}

void check_job(Report& report, const PoolSpec& spec, const JobResult& result) {
  ++report.attempted;
  const std::string why = check_result(spec, result);
  if (!why.empty()) note_failure(report, why);
}

// ---------------------------------------------------------------------------
// CLI workloads: table2_cli, ssta_sweep, eco_closure.

void run_cli_workload(const Options& opts, const std::vector<PoolSpec>& pool,
                      Report& report, Sample& sample) {
  // `--threads nproc/4`: the pool plus the caller that helps it while it
  // waits keep the job at about half the cores, like daemon_mix's lane and
  // pool.  With every core busy, one core descheduled by a shared host
  // stalls each fork/join barrier of the job, and run-to-run spread grows
  // several-fold.
  const std::size_t threads =
      std::max<std::size_t>(1, ThreadPool::default_thread_count() / 4);
  report.provenance.push_back({"pool_threads", std::to_string(threads)});
  report.provenance.push_back({"lanes", "0"});
  report.provenance.push_back({"clients", "1"});
  // From nothing: an empty cache dir, a cold flow that writes the setup
  // snapshot, then one job that fills and saves the context slots.
  auto set_up = [&](int r) {
    const std::string dir = "setup" + std::to_string(r);
    make_dir(dir);
    if (opts.trace) replicate_setup(sample, report);
    const auto t0 = Clock::now();
    { const SvaFlow cold{flow_config(dir)}; }
    const double cold_ms = ms_since(t0);
    const auto t1 = Clock::now();
    const JobResult warm = cli_job(pool.front(), dir, threads);
    sample.add_setup(cold_ms, ms_since(t1));
    const std::string why = check_result(pool.front(), warm);
    if (!why.empty()) report.errors.push_back("set-up job " + why);
    return dir;
  };
  const std::string dir = set_up(0);

  Dealer dealer(pool.size(), opts.seed);
  const Clock::time_point epoch = Clock::now();
  Recorder traced(true, 1, epoch);
  Recorder plain(false, 1, epoch);
  Counts discard;
  std::size_t n = 0;
  auto one_job = [&](const PoolSpec& spec) {
    if (!opts.trace) {
      const auto t0 = Clock::now();
      const JobResult result = cli_job(spec, dir, threads);
      sample.latency_ms.push_back(ms_since(t0));
      check_job(report, spec, result);
      return;
    }
    // Each spec runs twice back to back, traced and untraced (order
    // alternating), so the overhead compares like with like.
    for (int k = 0; k < 2; ++k) {
      const bool on = (k == 0) == (n % 2 == 0);
      Recorder& rec = on ? traced : plain;
      const auto t0 = Clock::now();
      rec.begin_job();
      const JobResult result = cli_job_decomposed(
          spec, dir, threads, rec, on ? sample.counts : discard);
      rec.end_job();
      const double ms = ms_since(t0);
      sample.latency_ms.push_back(ms);
      (on ? sample.traced_ms : sample.untraced_ms)
          .push_back({static_cast<std::size_t>(&spec - pool.data()), ms});
      check_job(report, spec, result);
    }
  };
  for (int seg = 0; seg < kSegments; ++seg) {
    const Segment segment(opts.seconds);
    const std::size_t first = sample.latency_ms.size();
    for (; !segment.over() || !dealer.deck_done() ||
           sample.latency_ms.size() - first < kMinSegmentJobs;
         ++n) {
      const PoolSpec& spec = pool[dealer.next()];
      try {
        one_job(spec);
      } catch (const std::exception& e) {
        ++report.attempted;
        note_failure(report, spec.text + ": " + e.what());
      }
    }
    segment.close(sample);
    set_up(seg + 1);
  }
  if (opts.trace) sample.traced.push_back(std::make_unique<Recorder>(traced));
}

// ---------------------------------------------------------------------------
// daemon_mix: a hot in-process TimingServer on a Unix socket, closed-loop
// clients.

struct DaemonCall {
  bool ok = false;
  JobResult result;
  std::string failure;
  int busy = 0;
  int retries = 0;
};

Frame request_frame(const PoolSpec& s) {
  switch (s.kind) {
    case JobKind::Analyze:
      return {MsgType::AnalyzeRequest, encode_analyze_request({s.analyze, 0})};
    case JobKind::Ssta:
      return {MsgType::SstaRequest, encode_ssta_request({s.ssta, 0})};
    case JobKind::Optimize:
      break;
  }
  return {MsgType::OptimizeRequest, encode_optimize_request({s.optimize, 0})};
}

/// One request/response exchange, connect included; Busy answers and
/// refused connects are retried (and counted).
DaemonCall call_daemon(const std::string& endpoint, const Frame& request) {
  DaemonCall out;
  for (int attempt = 0;; ++attempt) {
    if (attempt > kMaxRetries) {
      out.failure = "gave up after " + std::to_string(kMaxRetries) + " retries";
      return out;
    }
    if (attempt > 0) ++out.retries;
    try {
      ServerClient client(endpoint);
      const Frame response = client.call(request);
      if (response.type == MsgType::BusyResponse) {
        ++out.busy;
        const BusyResponse busy = decode_busy_response(response.body);
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<std::uint64_t>(busy.retry_after_ms, 20)));
        continue;
      }
      if (response.type == MsgType::ResultResponse) {
        out.result = decode_result_response(response.body);
        out.ok = true;
      } else if (response.type == MsgType::ErrorResponse) {
        out.failure = "daemon error: " + decode_error_response(response.body).message;
      } else {
        out.failure = std::string("daemon answered ") + msg_type_name(response.type);
      }
    } catch (const SocketError&) {
      // Refused connect or a connection dropped before any response byte:
      // nothing was delivered, so the request is safe to resend.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    } catch (const std::exception& e) {
      out.failure = e.what();
    }
    return out;
  }
}

class Daemon {
 public:
  Daemon(const std::string& dir, const std::string& socket, std::size_t threads,
         std::size_t lanes)
      : flow_(flow_config(dir)), pool_(threads) {
    ServerConfig cfg;
    cfg.socket_path = socket;
    cfg.lanes = lanes;
    cfg.result_cache_capacity = kDaemonResultCache;
    cfg.cache_dir = dir;
    server_ = std::make_unique<TimingServer>(flow_, cfg);
    serving_ = std::thread([this] {
      try {
        server_->serve(pool_);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu_);
        serve_error_ = e.what();
      }
    });
    for (int i = 0; i < 5000; ++i) {
      try {
        Fd probe = unix_connect(socket);
        return;
      } catch (const SocketError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    stop();
    throw std::runtime_error("daemon never listened on " + socket);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void stop() {
    if (serving_.joinable()) {
      server_->request_stop();
      serving_.join();
    }
  }
  const SvaFlow& flow() const { return flow_; }
  ThreadPool& pool() { return pool_; }
  std::string serve_error() {
    std::lock_guard<std::mutex> lock(mu_);
    return serve_error_;
  }

 private:
  const SvaFlow flow_;
  ThreadPool pool_;
  std::unique_ptr<TimingServer> server_;
  std::mutex mu_;
  std::string serve_error_;  ///< guarded by mu_
  std::thread serving_;
};

/// A number in the daemon's metrics JSON: `"key":N` for counters, or a
/// field of `"key":{"seconds":S,"count":N}` for timers; 0 when absent.
double metric_value(const std::string& json, const std::string& key,
                    const std::string& field = "") {
  std::size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return 0.0;
  at += key.size() + 3;
  if (!field.empty()) {
    at = json.find("\"" + field + "\":", at);
    if (at == std::string::npos) return 0.0;
    at += field.size() + 3;
  }
  return std::strtod(json.c_str() + at, nullptr);
}

struct DaemonMetrics {
  double wait_s = 0, exec_s = 0, hits = 0, misses = 0;
  static DaemonMetrics fetch(const std::string& endpoint) {
    const std::string json = fetch_remote_metrics(endpoint).json;
    return {metric_value(json, "server.queue_wait", "seconds"),
            metric_value(json, "server.job_exec", "seconds"),
            metric_value(json, "server.result_cache.hits"),
            metric_value(json, "server.result_cache.misses")};
  }
};

void run_daemon_workload(const Options& opts, const std::vector<PoolSpec>& pool,
                         Report& report, Sample& sample) {
  const std::size_t nproc = ThreadPool::default_thread_count();
  const std::size_t clients = kDaemonClients;
  const std::size_t lanes = std::max<std::size_t>(1, (nproc - std::min(nproc, clients)) / 2);
  const std::size_t threads = nproc - std::min(nproc, clients + lanes);
  report.provenance.push_back({"pool_threads", std::to_string(threads)});
  report.provenance.push_back({"lanes", std::to_string(lanes)});
  report.provenance.push_back({"clients", std::to_string(clients)});
  report.provenance.push_back({"result_cache", std::to_string(kDaemonResultCache)});

  // The warm-up issues the first spec of each kind, so the lazily built
  // SizedLibrary is ready before the timed phase.
  std::vector<std::size_t> warmup;
  for (JobKind kind : {JobKind::Analyze, JobKind::Ssta, JobKind::Optimize})
    for (std::size_t i = 0; i < pool.size(); ++i)
      if (pool[i].kind == kind) {
        warmup.push_back(i);
        break;
      }

  // From nothing: a cold flow, the daemon listening, one request of each
  // kind answered.
  auto set_up = [&](int r) {
    const std::string dir = "setup" + std::to_string(r);
    make_dir(dir);
    if (opts.trace) replicate_setup(sample, report);
    const std::string socket = "d" + std::to_string(r) + ".sock";
    const auto t0 = Clock::now();
    auto fresh = std::make_unique<Daemon>(dir, socket, threads, lanes);
    const double cold_ms = ms_since(t0);
    const auto t1 = Clock::now();
    for (std::size_t i : warmup) {
      const DaemonCall call = call_daemon(socket, request_frame(pool[i]));
      const std::string why = call.ok ? check_result(pool[i], call.result)
                                      : pool[i].text + ": " + call.failure;
      if (!why.empty()) report.errors.push_back("set-up request " + why);
    }
    sample.add_setup(cold_ms, ms_since(t1));
    return std::make_pair(std::move(fresh), socket);
  };
  std::unique_ptr<Daemon> daemon;
  std::string endpoint;
  std::tie(daemon, endpoint) = set_up(0);

  struct ClientLog {
    std::vector<double> latency_ms;
    std::vector<std::pair<std::size_t, double>> traced_ms, untraced_ms;
    std::uint64_t attempted = 0;
    std::vector<std::string> failures;
    std::map<std::size_t, Digest> first_digest;
    int busy = 0, retries = 0;
    std::size_t jobs = 0;
    std::unique_ptr<Recorder> traced, plain;
  };
  const Clock::time_point epoch = Clock::now();
  std::vector<ClientLog> logs(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    logs[c].traced = std::make_unique<Recorder>(true, static_cast<std::uint32_t>(c + 1), epoch);
    logs[c].plain = std::make_unique<Recorder>(false, static_cast<std::uint32_t>(c + 1), epoch);
  }

  // Shared closed-loop stream: every third request repeats one of the last
  // few specs exactly, the others come from the dealt deck.
  std::mutex stream_mu;
  Dealer dealer(pool.size(), opts.seed);
  std::deque<std::size_t> recent;
  std::size_t issued = 0;
  const Segment* segment = nullptr;
  // Returns pool.size() once the segment is over and a deck is done.
  auto next_spec = [&] {
    std::lock_guard<std::mutex> lock(stream_mu);
    if (segment->over() && dealer.deck_done()) return pool.size();
    std::size_t idx = 0;
    if (++issued % 3 == 0)
      idx = recent[dealer.rng()() % recent.size()];
    else
      idx = dealer.next();
    recent.push_back(idx);
    if (recent.size() > kRepeatWindow) recent.pop_front();
    return idx;
  };
  auto client = [&](std::size_t c) {
    ClientLog& me = logs[c];
    for (;;) {
      const std::size_t idx = next_spec();
      if (idx == pool.size()) break;
      const PoolSpec& spec = pool[idx];
      const bool on = opts.trace && me.jobs++ % 2 == c % 2;
      Recorder& rec = on ? *me.traced : *me.plain;
      ++me.attempted;
      try {
        const auto t0 = Clock::now();
        rec.begin_job();
        const Frame request = request_frame(spec);
        DaemonCall call = rec.layer(
            "server.rtt_ms", [&] { return call_daemon(endpoint, request); });
        rec.end_job();
        const double ms = ms_since(t0);
        me.latency_ms.push_back(ms);
        if (opts.trace) (on ? me.traced_ms : me.untraced_ms).push_back({idx, ms});
        me.busy += call.busy;
        me.retries += call.retries;
        std::string why = call.ok ? check_result(spec, call.result)
                                  : spec.text + ": " + call.failure;
        if (why.empty() && !me.first_digest.count(idx))
          me.first_digest[idx] = digest_of(call.result);
        if (!why.empty()) me.failures.push_back(std::move(why));
      } catch (const std::exception& e) {
        me.failures.push_back(spec.text + ": " + e.what());
      }
    }
  };

  // The daemon's pool, context cache and metrics serve every client, so
  // their counts are deltas over the segments, per request.
  DaemonMetrics server_delta;
  double pool_tasks = 0, pool_steals = 0, cache_hits = 0, cache_lookups = 0,
         slots = 0;
  for (int seg = 0; seg < kSegments; ++seg) {
    const DaemonMetrics before = DaemonMetrics::fetch(endpoint);
    const ThreadPool::Stats pool_before = daemon->pool().stats();
    const ContextCache::Stats cache_before = daemon->flow().context_cache().stats();
    const Segment current(opts.seconds);
    segment = &current;
    std::vector<std::thread> running;
    for (std::size_t c = 0; c < clients; ++c) running.emplace_back(client, c);
    for (std::thread& t : running) t.join();
    current.close(sample);
    const DaemonMetrics after = DaemonMetrics::fetch(endpoint);
    server_delta.wait_s += after.wait_s - before.wait_s;
    server_delta.exec_s += after.exec_s - before.exec_s;
    server_delta.hits += after.hits - before.hits;
    server_delta.misses += after.misses - before.misses;
    const ThreadPool::Stats pool_after = daemon->pool().stats();
    const ContextCache::Stats cache_after = daemon->flow().context_cache().stats();
    pool_tasks += static_cast<double>(pool_after.executed - pool_before.executed);
    pool_steals += static_cast<double>(pool_after.steals - pool_before.steals);
    const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
    cache_hits += hits;
    cache_lookups += hits + static_cast<double>(cache_after.misses - cache_before.misses);
    slots += static_cast<double>(cache_after.characterized - cache_before.characterized);
    set_up(seg + 1);  // a separate daemon, stopped again right away
  }

  std::map<std::size_t, Digest> daemon_digest;
  int busy = 0, retries = 0;
  for (ClientLog& log : logs) {
    sample.latency_ms.insert(sample.latency_ms.end(), log.latency_ms.begin(),
                             log.latency_ms.end());
    sample.traced_ms.insert(sample.traced_ms.end(), log.traced_ms.begin(),
                            log.traced_ms.end());
    sample.untraced_ms.insert(sample.untraced_ms.end(), log.untraced_ms.begin(),
                              log.untraced_ms.end());
    report.attempted += log.attempted;
    for (const std::string& why : log.failures) note_failure(report, why);
    daemon_digest.insert(log.first_digest.begin(), log.first_digest.end());
    busy += log.busy;
    retries += log.retries;
    if (opts.trace) sample.traced.push_back(std::move(log.traced));
  }
  if (opts.trace) {
    const double jobs = static_cast<double>(report.attempted);
    const double requests = server_delta.hits + server_delta.misses;
    sample.extra["server.queue_wait_ms"] = 1000.0 * server_delta.wait_s / jobs;
    sample.extra["server.exec_ms"] = 1000.0 * server_delta.exec_s / jobs;
    sample.extra["server.result_cache_hit_ratio"] =
        requests > 0 ? server_delta.hits / requests : 0.0;
    sample.extra["server.busy_rejects"] = busy;
    sample.extra["server.retries"] = retries;
    sample.extra["engine.tasks"] = pool_tasks / jobs;
    sample.extra["engine.steals"] = pool_steals / jobs;
    sample.extra["cell.context_hit_ratio"] =
        cache_lookups > 0 ? cache_hits / cache_lookups : 0.0;
    sample.extra["cell.slots_filled"] = slots / jobs;
  }

  // Every response must be byte-identical to a direct run of its spec on
  // the same flow (wall-time trailer aside).
  daemon->stop();
  const std::string serve_error = daemon->serve_error();
  if (!serve_error.empty()) report.errors.push_back("daemon: " + serve_error);
  const SvaFlow& flow = daemon->flow();
  const SizedLibrary sized(flow.library(), flow.config().electrical,
                           flow.library_opc_results(), flow.boundary_model(),
                           flow.config().bins);
  for (const auto& [idx, digest] : daemon_digest) {
    const JobResult direct = run_direct(flow, sized, daemon->pool(), pool[idx]);
    if (!(digest_of(direct) == digest))
      report.errors.push_back(pool[idx].text + ": daemon response differs from the direct run");
  }
}

// ---------------------------------------------------------------------------
// Reporting.

void add_end_to_end(const Sample& s, Report& report) {
  const double jobs = static_cast<double>(s.latency_ms.size());
  report.metrics.push_back({"setup_s", "s", median(s.setup_ms) / 1000.0,
                            s.setup_ms.size()});
  report.metrics.push_back({"jobs_per_s", "1/s", s.phase_s > 0 ? jobs / s.phase_s : 0.0,
                            s.latency_ms.size()});
  report.metrics.push_back({"job_p50_ms", "ms", percentile(s.latency_ms, 0.5),
                            s.latency_ms.size()});
  report.metrics.push_back({"job_p90_ms", "ms", percentile(s.latency_ms, 0.9),
                            s.latency_ms.size()});
  report.metrics.push_back({"peak_rss_mb", "MB", s.peak_rss_mb, 1});
}

void add_per_layer(const Options& opts, Sample& s, Report& report,
                   const std::string& run_dir) {
  std::map<std::string, double> v = s.extra;
  std::map<std::string, std::uint64_t> n;
  for (const auto& entry : s.extra) n[entry.first] = report.attempted;

  auto replica_median = [&](double SetupLayers::*field) {
    std::vector<double> xs;
    for (const SetupLayers& t : s.replicas) xs.push_back(t.*field);
    return median(xs);
  };
  v["cell.characterize_ms"] = replica_median(&SetupLayers::characterize);
  v["litho.calibrate_ms"] = replica_median(&SetupLayers::calibrate);
  v["opc.library_opc_ms"] = replica_median(&SetupLayers::library_opc);
  v["opc.pitch_table_ms"] = replica_median(&SetupLayers::pitch_table);
  v["cell.context_library_ms"] = replica_median(&SetupLayers::context_library);
  v["setup.cold_ctor_ms"] = median(s.cold_ctor_ms);
  v["setup.prepare_ms"] = median(s.prepare_ms);
  double replica_sum = 0.0;
  for (const char* k : {"cell.characterize_ms", "litho.calibrate_ms",
                        "opc.library_opc_ms", "opc.pitch_table_ms",
                        "cell.context_library_ms"})
    replica_sum += v[k];
  v["setup.unattributed_ms"] = v["setup.cold_ctor_ms"] - replica_sum;
  for (const char* k : {"cell.characterize_ms", "litho.calibrate_ms",
                        "opc.library_opc_ms", "opc.pitch_table_ms",
                        "cell.context_library_ms", "setup.unattributed_ms"})
    n[k] = s.replicas.size();
  for (const char* k : {"setup.cold_ctor_ms", "setup.prepare_ms"})
    n[k] = s.cold_ctor_ms.size();

  // Per traced job: layer means, the job time they add up to, and the
  // remainder no layer covers.
  double jobs = 0.0, job_ms = 0.0;
  std::map<std::string, double> layer_total;
  for (const auto& rec : s.traced) {
    jobs += static_cast<double>(rec->jobs());
    job_ms += rec->job_ms_total();
    for (const auto& [name, ms] : rec->layer_ms()) layer_total[name] += ms;
  }
  const std::uint64_t traced_jobs = static_cast<std::uint64_t>(jobs);
  const double per_job = jobs > 0 ? 1.0 / jobs : 0.0;
  double attributed = 0.0;
  for (const auto& [name, total] : layer_total) {
    v[name] = total * per_job;
    n[name] = traced_jobs;
    attributed += v[name];
  }
  if (v.count("server.rtt_ms")) {
    // The daemon's own split of the round trip; wire is what remains.
    v["server.wire_ms"] = v["server.rtt_ms"] - v["server.queue_wait_ms"] -
                          v["server.exec_ms"];
    for (const char* k : {"server.queue_wait_ms", "server.exec_ms",
                          "server.wire_ms", "server.result_cache_hit_ratio",
                          "server.busy_rejects", "server.retries"})
      n[k] = report.attempted;
  }
  v["job_ms"] = job_ms * per_job;
  v["unattributed_ms"] = v["job_ms"] - attributed;
  const Counts& c = s.counts;
  v.emplace("engine.tasks", c.tasks * per_job);
  v.emplace("engine.steals", c.steals * per_job);
  v.emplace("cell.context_hit_ratio",
            c.ctx_lookups > 0 ? c.ctx_hits / c.ctx_lookups : 0.0);
  v.emplace("cell.slots_filled", c.slots_filled * per_job);
  v["sta.runs"] = c.sta_runs * per_job;
  v["ssta.residual_slots"] = c.residual_slots * per_job;
  v["opt.candidates"] = c.candidates * per_job;
  v["opt.candidates_per_s"] =
      v["opt.eco_run_ms"] > 0 ? c.candidates * per_job / (v["opt.eco_run_ms"] / 1000.0) : 0.0;
  v["opt.commit_ratio"] = c.candidates > 0 ? c.moves / c.candidates : 0.0;
  for (const char* k : {"job_ms", "unattributed_ms", "engine.tasks",
                        "engine.steals", "cell.context_hit_ratio",
                        "cell.slots_filled", "sta.runs", "ssta.residual_slots",
                        "opt.candidates", "opt.candidates_per_s",
                        "opt.commit_ratio"})
    n.emplace(k, traced_jobs);
  // Traced over untraced mean time per spec, weighted by traced jobs, so
  // the mix of specs on each side does not count as overhead.
  std::map<std::size_t, std::array<double, 4>> per_spec;  // sum/n, traced/untraced
  for (const auto& [idx, ms] : s.traced_ms) per_spec[idx][0] += ms, per_spec[idx][1] += 1;
  for (const auto& [idx, ms] : s.untraced_ms) per_spec[idx][2] += ms, per_spec[idx][3] += 1;
  double ratio_sum = 0.0, weight = 0.0;
  for (const auto& [idx, a] : per_spec)
    if (a[1] > 0 && a[3] > 0 && a[2] > 0) {
      ratio_sum += a[1] * (a[0] / a[1]) / (a[2] / a[3]);
      weight += a[1];
    }
  v["trace_overhead_frac"] = weight > 0 ? ratio_sum / weight - 1.0 : 0.0;
  n["trace_overhead_frac"] = s.traced_ms.size() + s.untraced_ms.size();
  v["fail_rate"] = report.attempted > 0
                       ? static_cast<double>(report.failed) / report.attempted
                       : 0.0;
  n["fail_rate"] = report.attempted;
  if (!opts.cli_path.empty()) {
    v["cli.process_start_ms"] = time_process_start(opts.cli_path, run_dir);
    n["cli.process_start_ms"] = kProcessStartSpawns;
  }

  for (const auto& [name, value] : v) {
    const bool known = std::any_of(kLayerMetrics.begin(), kLayerMetrics.end(),
                                   [&](const auto& m) { return m.first == name; });
    if (!known) throw std::logic_error("unlisted layer metric " + name);
  }
  for (const auto& [name, unit] : kLayerMetrics)
    report.metrics.push_back({name, unit, v.count(name) ? v[name] : 0.0,
                              n.count(name) ? n[name] : 0});

  if (!opts.trace_path.empty()) {
    std::vector<const Recorder*> recs;
    for (const auto& rec : s.traced) recs.push_back(rec.get());
    write_trace_file(opts.trace_path, recs);
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"table2_cli", "ssta_sweep",
                                                 "eco_closure", "daemon_mix"};
  return names;
}

Report run_workload(const Options& opts) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opts.workload) == names.end())
    throw std::invalid_argument("unknown workload '" + opts.workload + "'");
  const std::vector<PoolSpec> pool = load_pool(opts.reference_path, opts.workload);
  char cwd[4096];
  if (::getcwd(cwd, sizeof cwd) == nullptr)
    throw std::runtime_error("cannot read the working directory");

  Report report;
  report.provenance.push_back({"pool_specs", std::to_string(pool.size())});
  Sample sample;
  if (opts.workload == "daemon_mix")
    run_daemon_workload(opts, pool, report, sample);
  else
    run_cli_workload(opts, pool, report, sample);
  report.provenance.push_back({"segments", std::to_string(kSegments)});
  char steal[32];
  std::snprintf(steal, sizeof steal, "%.4f",
                sample.cpu_ticks > 0 ? sample.steal_ticks / sample.cpu_ticks : 0.0);
  report.provenance.push_back({"host_steal_frac", steal});
  report.provenance.push_back(
      {"rss_window", sample.rss_window ? "\"timed segments\"" : "\"process\""});
  if (opts.trace)
    add_per_layer(opts, sample, report, cwd);
  else
    add_end_to_end(sample, report);
  return report;
}

}  // namespace perfbench
