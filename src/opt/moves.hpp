#pragma once
// ECO move vocabulary and the ArcScaleProviders that price candidates.
//
// Two move families (Sec. 6 of the paper motivates both knobs):
//
//   * sizing (Upsize / Downsize): swap a gate to an adjacent rung of its
//     drive-strength ladder (opt/sizing.hpp).  Printing-context-neutral,
//     so the committed corner factors are reused unchanged; the candidate
//     is priced with Sta::price_what_if's hypothetical master swap.
//
//   * context re-spacing (Respace): shift a gate inside its row
//     whitespace.  The poly spacings of the gate and its abutting
//     neighbours change, re-binning boundary devices and re-labelling
//     arcs -- a move with zero area cost that only a context-aware corner
//     model can see (under a traditional uniform corner every position
//     prices identically, which is the mechanism behind the headline
//     SVA-vs-traditional ECO comparison).
//
// FactorsScale serves the committed per-(gate, arc) corner factors;
// OverlayScale overrides a handful of gate rows for one respace candidate
// without touching shared state, so any number of candidates can be
// priced concurrently.

#include <cstddef>
#include <utility>
#include <vector>

#include "sta/scale.hpp"
#include "util/units.hpp"

namespace sva {

enum class MoveKind { Upsize = 0, Downsize = 1, Respace = 2 };

const char* move_kind_name(MoveKind kind);

/// One candidate ECO move.
struct Move {
  MoveKind kind = MoveKind::Upsize;
  std::size_t gate = 0;
  std::size_t to_cell = 0;  ///< target master (sizing moves)
  Nm dx = 0.0;              ///< row shift (respace moves)
};

/// ArcScaleProvider view of an externally owned factors matrix (the ECO
/// loop's committed state).  The matrix must outlive the provider and
/// must not be resized while a provider reads it.
class FactorsScale final : public ArcScaleProvider {
 public:
  explicit FactorsScale(const std::vector<std::vector<double>>& factors)
      : factors_(&factors) {}

  double scale(std::size_t gate, std::size_t arc_index) const override {
    return (*factors_)[gate][arc_index];
  }

 private:
  const std::vector<std::vector<double>>* factors_;
};

/// A factors matrix with a few replaced gate rows: the hypothetical
/// post-move factors of one respace candidate.  Rows are sorted by gate;
/// lookups off the overlay fall through to the base matrix.
class OverlayScale final : public ArcScaleProvider {
 public:
  using Row = std::pair<std::size_t, std::vector<double>>;

  /// `rows` must be sorted by gate index (ascending, unique).
  OverlayScale(const std::vector<std::vector<double>>& base,
               const std::vector<Row>& rows);

  double scale(std::size_t gate, std::size_t arc_index) const override;

 private:
  const std::vector<std::vector<double>>* base_;
  const std::vector<Row>* rows_;
};

}  // namespace sva
