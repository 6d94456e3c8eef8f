#include "scan_oracle.hpp"

#include <cmath>

namespace sva {
namespace {

constexpr Nm kScanStep = 1.0;
constexpr Nm kEdgeTolerance = 1e-3;

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

std::optional<PrintedLine> direct_printed_line(const ImageProfile& image,
                                               double threshold, Nm x_center,
                                               double dose) {
  const double th = threshold / dose;
  if (image.intensity(x_center) >= th) return std::nullopt;

  const Nm half_period = image.period() / 2.0;

  Nm right = x_center;
  {
    Nm x = x_center;
    bool found = false;
    while (x - x_center < half_period) {
      const Nm next = x + kScanStep;
      if (image.intensity(next) >= th) {
        right = bisect_edge(image, th, x, next);
        found = true;
        break;
      }
      x = next;
    }
    if (!found) return std::nullopt;
  }
  Nm left = x_center;
  {
    Nm x = x_center;
    bool found = false;
    while (x_center - x < half_period) {
      const Nm next = x - kScanStep;
      if (image.intensity(next) >= th) {
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

}  // namespace sva
