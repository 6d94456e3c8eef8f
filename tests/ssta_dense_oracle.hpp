#pragma once
// Dense reference propagation for differential SSTA tests.
//
// The exact-local-correlation math of SstaEngine with every net's local
// terms held as full-length coefficient vectors over the whole residual
// index space (one slot per (gate, master-arc) CD residual, then one
// max-noise slot per gate) and every loop running over all of it.  It is
// built only from the engine's public surface -- arc_factor(),
// base_result() and a Sta over the same netlist -- so it shares no
// propagation code with the engine.  SstaEngine, which stores each net's
// coefficients over its fanin-cone support only, must match it bit for
// bit.

#include "cell/characterize.hpp"
#include "ssta/propagate.hpp"
#include "sta/sta.hpp"

namespace sva {

/// Serial dense propagation in topological order.  `library` and
/// `config` must be the ones the engine was built with.
SstaResult dense_ssta(const SstaEngine& engine,
                      const CharacterizedLibrary& library,
                      const StaConfig& config);

}  // namespace sva
