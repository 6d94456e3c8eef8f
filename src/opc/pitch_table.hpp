#pragma once
// Post-OPC pitch -> CD characterization (paper Sec. 3.1.1 / 3.3).
//
// "To compute the impact of through-pitch variation, we draw test layouts
// consisting of parallel poly lines with fixed width and length but
// varying spacing.  These test layouts are then corrected with the
// standard OPC flow and CD is measured to construct the lookup table."
//
// Each test layout here is a finite array of lines at one spacing; the
// centre line's post-OPC printed CD is recorded.  The resulting table is
// what the in-context timing flow uses for cell-boundary devices, and its
// half-range is the measured +-lvar_pitch.

#include <vector>

#include "litho/cd_model.hpp"
#include "opc/engine.hpp"
#include "util/interp.hpp"

namespace sva {

struct PostOpcPitchPoint {
  Nm spacing = 0.0;     ///< one-sided clear spacing of the test grating
  Nm printed_cd = 0.0;  ///< centre-line CD after OPC (0 = print failure)
  Nm mask_bias = 0.0;   ///< total mask-width change applied by OPC
};

/// Run the OPC flow on a line array per spacing and measure the centre CD.
/// `array_lines` is the number of parallel lines per test layout (odd;
/// default 7 gives three shielding lines each side of the measured one).
std::vector<PostOpcPitchPoint> characterize_post_opc_pitch(
    const OpcEngine& engine, Nm linewidth, const std::vector<Nm>& spacings,
    std::size_t array_lines = 7);

/// Spacing -> printed-CD lookup table from the characterization points.
/// Throws if any point failed to print.
LookupTable1D post_opc_spacing_table(
    const std::vector<PostOpcPitchPoint>& points);

/// Half-range (max - min)/2 of the post-OPC printed CD over the table:
/// the measured +-lvar_pitch.
Nm post_opc_pitch_half_range(const std::vector<PostOpcPitchPoint>& points);

}  // namespace sva
