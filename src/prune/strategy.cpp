#include "prune/strategy.h"

namespace pt::prune {

ReconfigDecision Strategy::propose_reconfigure(const EpochInfo& info) const {
  // The paper's cadence: periodic reconfiguration every reconfig_interval
  // epochs when the phase allows it, plus the kOneShot point.
  ReconfigDecision d;
  const bool periodic_hit = info.periodic_reconfig &&
                            info.reconfig_interval > 0 &&
                            (info.epoch_in_phase + 1) % info.reconfig_interval == 0;
  const bool one_shot_hit =
      info.one_shot_at >= 0 && (info.epoch_in_phase + 1) == info.one_shot_at;
  d.reconfigure = periodic_hit || one_shot_hit;
  d.threshold = info.threshold;
  return d;
}

}  // namespace pt::prune
