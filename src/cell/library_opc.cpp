#include "cell/library_opc.hpp"

#include <exception>

#include "engine/thread_pool.hpp"
#include "opc/cutline.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/serialize.hpp"

namespace sva {

Layout library_opc_environment(const CellMaster& master,
                               const LibraryOpcConfig& config) {
  SVA_REQUIRE(config.dummy_gap > 0.0);
  Layout env = master.layout();
  const CellTech& tech = master.tech();
  const Nm w = config.dummy_width > 0.0 ? config.dummy_width
                                        : tech.gate_length;
  // Left and right dummy poly, full gate height (Fig. 3: "dummy poly
  // geometries inserted to emulate the impact of neighboring cells").
  env.add(Layer::DummyPoly, Rect::make(-config.dummy_gap - w, tech.poly_y_lo,
                                       -config.dummy_gap, tech.poly_y_hi));
  env.add(Layer::DummyPoly,
          Rect::make(master.width() + config.dummy_gap, tech.poly_y_lo,
                     master.width() + config.dummy_gap + w, tech.poly_y_hi));
  return env;
}

LibraryOpcCellResult library_opc_cell(const CellMaster& master,
                                      const OpcEngine& engine,
                                      const LibraryOpcConfig& config) {
  // Keyed by cell name: a prob() fault degrades the same deterministic
  // subset of masters in every run and on every thread schedule.
  SVA_FAILPOINT_KEYED(
      "opc.cell_solve",
      fnv1a64(master.name().data(), master.name().size()));
  const Layout env = library_opc_environment(master, config);
  // Tag each poly shape with its gate index; the master's layout() emits
  // gates first, so shape i < gates().size() is gate i.
  std::vector<long> tags(env.size(), -1);
  for (std::size_t i = 0; i < master.gates().size(); ++i)
    tags[i] = static_cast<long>(i);

  const CellTech& tech = master.tech();
  const Nm y_n = 0.5 * (tech.nmos_y_lo + tech.nmos_y_hi);
  const Nm y_p = 0.5 * (tech.pmos_y_lo + tech.pmos_y_hi);

  LibraryOpcCellResult result;
  result.device_cd.assign(master.devices().size(), 0.0);
  result.device_mask_width.assign(master.devices().size(), 0.0);

  for (const auto& [y, type] :
       {std::pair{y_n, DeviceType::Nmos}, std::pair{y_p, DeviceType::Pmos}}) {
    const OpcProblem problem = extract_cutline(env, y, tags);
    const OpcResult corrected = engine.correct(problem);
    result.images_simulated += corrected.images_simulated;
    for (std::size_t di = 0; di < master.devices().size(); ++di) {
      const Device& d = master.devices()[di];
      if (d.type != type) continue;
      const auto& line = corrected.by_tag(static_cast<long>(d.gate_index));
      result.device_cd[di] = line.printed_cd;
      result.device_mask_width[di] = line.line.mask_width();
    }
  }
  return result;
}

LibraryOpcCellResult library_opc_fallback(const CellMaster& master) {
  LibraryOpcCellResult result;
  const Nm drawn = master.tech().gate_length;
  result.device_cd.assign(master.devices().size(), drawn);
  result.device_mask_width.assign(master.devices().size(), drawn);
  result.images_simulated = 0;
  result.degraded = true;
  return result;
}

std::vector<LibraryOpcCellResult> library_opc_all(
    const std::vector<CellMaster>& masters, const OpcEngine& engine,
    const LibraryOpcConfig& config, FaultPolicy policy, ThreadPool* pool) {
  std::vector<LibraryOpcCellResult> out(masters.size());
  std::vector<std::exception_ptr> failure(masters.size());
  std::vector<char> solved(masters.size(), 0);
  auto solve = [&](std::size_t i) {
    try {
      out[i] = library_opc_cell(masters[i], engine, config);
    } catch (...) {
      failure[i] = std::current_exception();
    }
    solved[i] = 1;
  };
  // No pool: a workerless one, whose parallel_for is the plain loop.
  ThreadPool inline_pool(0);
  try {
    (pool != nullptr ? *pool : inline_pool)
        .parallel_for(0, masters.size(), solve, /*grain=*/1);
  } catch (...) {
    // solve() records its own failures, so this is a fault of the pool's
    // task wrapper, which skipped the solves of its task.  Strict reports
    // it; Degrade redoes those solves here.
    if (policy == FaultPolicy::Strict) throw;
    for (std::size_t i = 0; i < masters.size(); ++i)
      if (!solved[i]) solve(i);
  }

  for (std::size_t i = 0; i < masters.size(); ++i) {
    if (!failure[i]) continue;
    if (policy == FaultPolicy::Strict) std::rethrow_exception(failure[i]);
    try {
      std::rethrow_exception(failure[i]);
    } catch (const std::exception& e) {
      out[i] = library_opc_fallback(masters[i]);
      MetricsRegistry::global().counter("opc.cells_degraded").add();
      diag_warn("opc", "opc_cell_degraded",
                "cell " + masters[i].name() + " OPC solve failed (" +
                    e.what() + "); using uniform drawn-CD fallback");
    }
  }
  return out;
}

}  // namespace sva
