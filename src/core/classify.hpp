#pragma once
// Device and timing-arc classification (paper Sec. 3.2, Fig. 5).
//
// "We analyze the devices in the layout and label them as isolated, dense
// or self-compensated depending on the spacing to the nearest poly line on
// the left and the right. ... We assume dense spacing to be less than the
// contacted-pitch and anything larger to be isolated."
//
// Arc labels follow from the devices in the transition: all-dense -> the
// arc smiles (gets slower out of focus), all-isolated -> frowns (gets
// faster), mixed -> self-compensated.  The default policy is the paper's
// majority vote (footnote 6); a conservative policy (any mix ->
// self-compensated) is provided for the ablation bench.

#include <cstddef>
#include <vector>

#include "util/units.hpp"

namespace sva {

enum class DeviceClass { Dense, Isolated, SelfCompensated };
enum class ArcClass { Smile, Frown, SelfCompensated };

const char* to_string(DeviceClass c);
const char* to_string(ArcClass c);

/// Classify one device from its two side spacings.  A side is dense if
/// its spacing is below `contacted_pitch`; dense+dense -> Dense,
/// iso+iso -> Isolated, mixed -> SelfCompensated.
DeviceClass classify_device(Nm s_left, Nm s_right, Nm contacted_pitch);

enum class ArcLabelPolicy {
  /// Paper footnote 6: "the majority determines the nature"; ties and any
  /// self-compensated majority map to SelfCompensated.
  Majority,
  /// Conservative: an arc is Smile/Frown only if *every* device agrees;
  /// any mixture is SelfCompensated.  (Ablation: less corner trimming on
  /// one side, never wrong-sided.)
  Conservative,
};

/// Per-class count of one arc's devices: all an arc label depends on.
struct DeviceClassTally {
  std::size_t dense = 0;
  std::size_t isolated = 0;
  std::size_t total = 0;

  void add(DeviceClass c) {
    dense += c == DeviceClass::Dense ? 1 : 0;
    isolated += c == DeviceClass::Isolated ? 1 : 0;
    ++total;
  }
};

/// Label an arc from its devices' classes.
ArcClass classify_arc(const std::vector<DeviceClass>& devices,
                      ArcLabelPolicy policy = ArcLabelPolicy::Majority);

/// Label an arc from the tally of its devices' classes (classify_arc
/// without building a class vector per arc).
ArcClass classify_tally(const DeviceClassTally& tally,
                        ArcLabelPolicy policy = ArcLabelPolicy::Majority);

}  // namespace sva
