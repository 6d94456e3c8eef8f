#include "litho/resist.hpp"

#include <cmath>

#include "util/error.hpp"

namespace sva {
namespace {

// Coarse scan step when hunting for the threshold crossing (the image's
// ScanBasis tabulates exactly these positions), and the bisection
// tolerance on the located edge.
constexpr Nm kScanStep = ScanBasis::kStep;
constexpr Nm kEdgeTolerance = 1e-3;

// Bisect a crossing of intensity == th between x_in (dark side) and x_out
// (bright side).
Nm bisect_edge(const ImageProfile& image, double th, Nm x_in, Nm x_out) {
  for (int it = 0; it < 60; ++it) {
    const Nm mid = 0.5 * (x_in + x_out);
    if (image.intensity(mid) < th)
      x_in = mid;
    else
      x_out = mid;
    if (std::abs(x_out - x_in) < kEdgeTolerance) break;
  }
  return 0.5 * (x_in + x_out);
}

}  // namespace

ThresholdResist::ThresholdResist(double threshold) : threshold_(threshold) {
  SVA_REQUIRE_MSG(threshold > 0.0, "resist threshold must be positive");
}

std::optional<PrintedLine> ThresholdResist::printed_line(
    const ImageProfile& image, Nm x_center, double dose) const {
  SVA_REQUIRE(dose > 0.0);
  const double th = threshold_ / dose;
  // Scan positions are numbered outward from the centre (step 0); at the
  // period's own centre they are the image's tabulated ScanBasis rows.
  if (image.scan_intensity(0, x_center) >= th) return std::nullopt;

  const Nm half_period = image.period() / 2.0;

  // Scan right from the centre until intensity rises through the threshold.
  Nm right = x_center;
  {
    Nm x = x_center;
    int step = 0;
    bool found = false;
    while (x - x_center < half_period) {
      const Nm next = x + kScanStep;
      if (image.scan_intensity(++step, next) >= th) {
        right = bisect_edge(image, th, x, next);
        found = true;
        break;
      }
      x = next;
    }
    if (!found) return std::nullopt;  // dark over the whole half-period
  }
  // Scan left symmetrically.
  Nm left = x_center;
  {
    Nm x = x_center;
    int step = 0;
    bool found = false;
    while (x_center - x < half_period) {
      const Nm next = x - kScanStep;
      if (image.scan_intensity(--step, next) >= th) {
        left = bisect_edge(image, th, x, next);
        found = true;
        break;
      }
      x = next;
    }
    if (!found) return std::nullopt;
  }
  return PrintedLine{left, right};
}

std::optional<Nm> ThresholdResist::printed_cd(const ImageProfile& image,
                                              Nm x_center,
                                              double dose) const {
  const auto line = printed_line(image, x_center, dose);
  if (!line) return std::nullopt;
  return line->cd();
}

ThresholdResist ThresholdResist::calibrate(
    const AerialImageSimulator& simulator, const MaskPattern1D& anchor,
    Nm target_cd) {
  SVA_REQUIRE(target_cd > 0.0);
  const ImageProfile image = simulator.image(anchor, /*defocus=*/0.0);
  const Nm center = anchor.period() / 2.0;

  // Printed CD grows monotonically with threshold (a higher threshold keeps
  // more of the dip "dark"), so bisection on the threshold converges.
  double lo = 1e-4;
  double hi = image.sampled_max() * 0.999;
  auto cd_at = [&](double th) -> double {
    const auto cd = ThresholdResist(th).printed_cd(image, center);
    return cd ? *cd : 0.0;
  };
  SVA_REQUIRE_MSG(cd_at(hi) >= target_cd,
                  "anchor pattern cannot print the target CD at any "
                  "threshold; check optics/pattern");
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (cd_at(mid) < target_cd)
      lo = mid;
    else
      hi = mid;
  }
  const double th = 0.5 * (lo + hi);
  const double achieved = cd_at(th);
  SVA_ASSERT_MSG(std::abs(achieved - target_cd) < 0.5,
                 "threshold calibration failed to converge");
  return ThresholdResist(th);
}

}  // namespace sva
