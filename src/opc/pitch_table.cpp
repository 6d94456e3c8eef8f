#include "opc/pitch_table.hpp"

#include <algorithm>

#include "engine/thread_pool.hpp"
#include "util/error.hpp"

namespace sva {

std::vector<PostOpcPitchPoint> characterize_post_opc_pitch(
    const OpcEngine& engine, Nm linewidth, const std::vector<Nm>& spacings,
    std::size_t array_lines, ThreadPool* pool) {
  SVA_REQUIRE(linewidth > 0.0);
  SVA_REQUIRE(!spacings.empty());
  SVA_REQUIRE_MSG(array_lines >= 3 && array_lines % 2 == 1,
                  "need an odd number of array lines >= 3");
  for (Nm spacing : spacings) SVA_REQUIRE(spacing > 0.0);

  std::vector<PostOpcPitchPoint> out(spacings.size());
  auto solve = [&](std::size_t i) {
    const Nm spacing = spacings[i];
    const Nm pitch = linewidth + spacing;
    OpcProblem problem;
    for (std::size_t k = 0; k < array_lines; ++k) {
      OpcLine line;
      line.drawn_lo = static_cast<double>(k) * pitch;
      line.drawn_hi = line.drawn_lo + linewidth;
      line.mask_lo = line.drawn_lo;
      line.mask_hi = line.drawn_hi;
      line.tag = static_cast<long>(k);
      problem.lines.push_back(line);
    }
    const OpcResult result = engine.correct(problem);
    const auto& center = result.by_tag(static_cast<long>(array_lines / 2));
    PostOpcPitchPoint& point = out[i];
    point.spacing = spacing;
    point.printed_cd = center.printed_cd;
    point.mask_bias = center.line.mask_width() - linewidth;
  };
  // No pool: a workerless one, whose parallel_for is the plain loop.
  ThreadPool inline_pool(0);
  (pool != nullptr ? *pool : inline_pool)
      .parallel_for(0, spacings.size(), solve, /*grain=*/1);
  return out;
}

LookupTable1D post_opc_spacing_table(
    const std::vector<PostOpcPitchPoint>& points) {
  SVA_REQUIRE(points.size() >= 2);
  std::vector<double> axis;
  std::vector<double> values;
  for (const auto& p : points) {
    SVA_REQUIRE_MSG(p.printed_cd > 0.0,
                    "print failure in post-OPC pitch characterization");
    axis.push_back(p.spacing);
    values.push_back(p.printed_cd);
  }
  return LookupTable1D(std::move(axis), std::move(values));
}

Nm post_opc_pitch_half_range(const std::vector<PostOpcPitchPoint>& points) {
  SVA_REQUIRE(!points.empty());
  Nm lo = points.front().printed_cd;
  Nm hi = lo;
  for (const auto& p : points) {
    lo = std::min(lo, p.printed_cd);
    hi = std::max(hi, p.printed_cd);
  }
  return (hi - lo) / 2.0;
}

}  // namespace sva
