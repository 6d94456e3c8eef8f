#pragma once
// Direct-evaluation printed-line measurement for differential tests.
//
// The CD measurement as it was before scan positions were tabulated: scan
// outward from the centre in 1-nm steps evaluating ImageProfile::intensity
// at every step, then bisect the crossing.  It reads only the image's
// public intensity(), so it shares no evaluation path with the ScanBasis
// rows ThresholdResist::printed_line reads, which must match it bit for
// bit.

#include <optional>

#include "litho/aerial.hpp"
#include "litho/resist.hpp"

namespace sva {

/// The printed line around x_center of `image` for a resist of the given
/// threshold at `dose`; nullopt on print failure.
std::optional<PrintedLine> direct_printed_line(const ImageProfile& image,
                                               double threshold, Nm x_center,
                                               double dose = 1.0);

}  // namespace sva
