#pragma once
// Partially coherent aerial-image computation for 1-D periodic masks.
//
// Hopkins formulation specialized to 1-D periodic objects: with mask
// Fourier coefficients c_n, the image is
//
//   I(x) = sum_{n,m} TCC(n, m) c_n conj(c_m) exp(i 2 pi (n - m) x / p)
//
// where the transmission cross-coefficients
//
//   TCC(n, m) = sum_s w(s) P_s(n) conj(P_s(m))
//
// integrate, over the discretized annular source, the (defocus-aberrated)
// pupil evaluated at each diffraction order shifted by the source point.
// Defocus enters as the exact scalar phase
// (2 pi / lambda) * dz * (1 - sqrt(1 - alpha^2 - beta^2)) with alpha/beta
// the direction cosines of the order as launched by the source point.
//
// The TCC depends only on (period, defocus, optics), not on the mask
// contents, so it is cached: OPC iterations that re-simulate an edited mask
// at a fixed supercell period reuse the same TCC and only recompute the
// O(N^2) coefficient contraction.
//
// The resulting image is stored as a short cosine series (class
// ImageProfile), which can be evaluated exactly at any x; CD measurement
// then uses bisection on the analytic profile instead of grid sampling.
//
// CD measurement scans outward from the line centre p/2 in fixed steps
// before bisecting, and every image of one period is measured around the
// same centre, so the scan visits the same x positions for every image.
// The simulator therefore also keeps, per period, one ScanBasis: the
// cos/sin of every harmonic at those positions.  A scan step then costs a
// dot product instead of one cos and one sin per harmonic, with the same
// floating-point sequence as the direct evaluation (see intensity()).

#include <atomic>
#include <complex>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "litho/mask1d.hpp"
#include "litho/optics.hpp"
#include "util/units.hpp"

namespace sva {

/// cos/sin(k 2 pi x_j / p) for the harmonics k of one image period at the
/// outward-scan positions x_j, j in [-kRadius, kRadius]: x_0 = p/2 and
/// x_{+-j} = x_{+-(j-1)} +- kStep, accumulated exactly as the scan in
/// ThresholdResist::printed_line accumulates them.  A row is computed on
/// first use (once, under its own once_flag) and read-only afterwards, so
/// periods that are measured only a few times pay only for the rows they
/// touch, and images on any thread can share one basis.
class ScanBasis {
 public:
  /// Distance between scan positions (nm).
  static constexpr Nm kStep = 1.0;
  /// Farthest tabulated step from the centre.  The library-OPC and pitch
  /// setup scans reach at most 117 steps; farther steps evaluate directly.
  static constexpr int kRadius = 256;

  /// Basis for images of `period` with `harmonics` Fourier coefficients
  /// (b_0 .. b_{harmonics-1}).
  ScanBasis(Nm period, std::size_t harmonics);

  Nm period() const { return period_; }
  std::size_t harmonics() const { return harmonics_; }

  /// Scan position j (|j| <= kRadius).
  Nm x(int j) const { return x_[static_cast<std::size_t>(j + kRadius)]; }

  /// Row j: cos at [0, harmonics), sin at [harmonics, 2 harmonics); index
  /// k holds harmonic k (index 0 is unused).
  const double* row(int j) const;

 private:
  Nm period_;
  std::size_t harmonics_;
  std::vector<Nm> x_;
  std::unique_ptr<double[]> rows_;  // filled lazily, row by row
  std::unique_ptr<std::once_flag[]> filled_;
};

/// Aerial-image intensity over one mask period, stored as Fourier series
/// I(x) = b_0 + 2 sum_{k>=1} Re(b_k exp(i 2 pi k x / p)).
class ImageProfile {
 public:
  /// `scan_basis`, if given, must be a basis of this period with
  /// coefficients.size() harmonics; it only speeds up scan_intensity().
  ImageProfile(Nm period, std::vector<std::complex<double>> coefficients,
               std::shared_ptr<const ScanBasis> scan_basis = nullptr);

  Nm period() const { return period_; }

  /// Exact intensity at x (periodic in x).
  double intensity(Nm x) const;

  /// intensity(x), bit for bit, where x is meant to be scan position
  /// `step` of the period's ScanBasis: the tabulated row is read when x
  /// equals that position exactly, and any other x (an off-centre scan, a
  /// step beyond kRadius, no basis) is evaluated directly.
  double scan_intensity(int step, Nm x) const;

  /// Sample n evenly spaced points over one period (for plotting/tests).
  std::vector<double> sample(std::size_t n) const;

  /// Mean intensity over the period (== b_0).
  double mean_intensity() const;

  /// Minimum / maximum of n-point sampling (n = 512), for contrast checks.
  double sampled_min() const;
  double sampled_max() const;

 private:
  Nm period_;
  std::vector<std::complex<double>> b_;  // b_[k], k = 0..K
  std::shared_ptr<const ScanBasis> basis_;
};

/// Abbe/Hopkins imaging engine with TCC caching.  Thread-safe: concurrent
/// image() calls share the TCC and scan-basis caches under one mutex.
class AerialImageSimulator {
 public:
  explicit AerialImageSimulator(const OpticsConfig& optics);

  /// Image of `mask` at the given defocus (nm; 0 = best focus).
  /// Exposure dose is not applied here -- it scales intensity linearly and
  /// is handled by the resist model.
  ImageProfile image(const MaskPattern1D& mask, Nm defocus) const;

  const OpticsConfig& optics() const { return optics_; }

  /// Number of distinct TCCs computed so far (cache statistics; used by
  /// tests and the OPC runtime accounting).
  std::size_t tcc_cache_size() const;

  /// Total images computed (proxy for simulation work; the Table 1
  /// runtime comparison uses wall-clock, this is for sanity checks).
  std::size_t images_computed() const {
    return images_computed_.load(std::memory_order_relaxed);
  }

 private:
  struct Tcc {
    int n_max = 0;
    // Row-major (2*n_max+1)^2 matrix, index (n + n_max, m + n_max).
    std::vector<std::complex<double>> t;
  };

  const Tcc& tcc_for(Nm period, Nm defocus) const;
  Tcc compute_tcc(Nm period, Nm defocus) const;

  OpticsConfig optics_;
  std::vector<SourcePoint> source_;
  // Guards both caches.  std::map nodes are stable, so references handed
  // out under the lock stay valid after it is released; entries are never
  // modified once inserted.
  mutable std::mutex mu_;
  // Cache key: (period, defocus) quantized to 1e-3 nm.
  mutable std::map<std::pair<long long, long long>, Tcc> cache_;
  // Keyed by the exact period bits, because the basis phases must be those
  // of the image's own period, not of a 1e-3-nm neighbour sharing its TCC;
  // and by the harmonic count, which comes from the TCC: two periods that
  // share a TCC at one defocus can have TCCs of different orders at
  // another.
  mutable std::map<std::pair<std::uint64_t, std::size_t>,
                   std::shared_ptr<const ScanBasis>>
      bases_;
  mutable std::atomic<std::size_t> images_computed_{0};
};

}  // namespace sva
