#include "core/classify.hpp"

#include "util/error.hpp"

namespace sva {

const char* to_string(DeviceClass c) {
  switch (c) {
    case DeviceClass::Dense: return "dense";
    case DeviceClass::Isolated: return "isolated";
    case DeviceClass::SelfCompensated: return "self-compensated";
  }
  return "?";
}

const char* to_string(ArcClass c) {
  switch (c) {
    case ArcClass::Smile: return "smile";
    case ArcClass::Frown: return "frown";
    case ArcClass::SelfCompensated: return "self-compensated";
  }
  return "?";
}

DeviceClass classify_device(Nm s_left, Nm s_right, Nm contacted_pitch) {
  SVA_REQUIRE(contacted_pitch > 0.0);
  const bool dense_l = s_left < contacted_pitch;
  const bool dense_r = s_right < contacted_pitch;
  if (dense_l && dense_r) return DeviceClass::Dense;
  if (!dense_l && !dense_r) return DeviceClass::Isolated;
  return DeviceClass::SelfCompensated;
}

ArcClass classify_arc(const std::vector<DeviceClass>& devices,
                      ArcLabelPolicy policy) {
  DeviceClassTally tally;
  for (DeviceClass c : devices) tally.add(c);
  return classify_tally(tally, policy);
}

ArcClass classify_tally(const DeviceClassTally& tally,
                        ArcLabelPolicy policy) {
  SVA_REQUIRE_MSG(tally.total > 0, "arc must involve at least one device");
  const std::size_t dense = tally.dense;
  const std::size_t isolated = tally.isolated;
  const std::size_t selfcomp = tally.total - dense - isolated;

  if (policy == ArcLabelPolicy::Conservative) {
    if (dense == tally.total) return ArcClass::Smile;
    if (isolated == tally.total) return ArcClass::Frown;
    return ArcClass::SelfCompensated;
  }
  // Majority policy.
  if (dense > isolated && dense > selfcomp) return ArcClass::Smile;
  if (isolated > dense && isolated > selfcomp) return ArcClass::Frown;
  return ArcClass::SelfCompensated;
}

}  // namespace sva
