#include "sched/timeliness.h"

#include <algorithm>
#include <stdexcept>

namespace canvas::sched {

TimelinessTracker::TimelinessTracker(const Config& cfg) : cfg_(cfg) {
  if (cfg.window == 0)
    throw std::invalid_argument("timeliness window must be >= 1");
  if (!(cfg.quantile >= 0.0 && cfg.quantile <= 1.0))
    throw std::invalid_argument("timeliness quantile must be in [0, 1]");
  if (cfg.floor > cfg.ceiling)
    throw std::invalid_argument("timeliness floor must not exceed ceiling");
}

void TimelinessTracker::Record(CgroupId cg, SimDuration dt) {
  State& st = states_[cg];
  if (st.ring.size() < cfg_.window) {
    st.ring.push_back(dt);
  } else {
    SimDuration& slot = st.ring[st.next];
    st.sorted.erase(std::lower_bound(st.sorted.begin(), st.sorted.end(), slot));
    slot = dt;
    st.next = (st.next + 1) % cfg_.window;
  }
  st.sorted.insert(std::upper_bound(st.sorted.begin(), st.sorted.end(), dt),
                   dt);
  ++st.count;
}

SimDuration TimelinessTracker::Threshold(CgroupId cg) const {
  auto it = states_.find(cg);
  if (it == states_.end() || it->second.sorted.empty())
    return cfg_.initial_threshold;
  const std::vector<SimDuration>& sorted = it->second.sorted;
  auto idx = std::size_t(cfg_.quantile * double(sorted.size() - 1));
  return std::clamp(sorted[idx], cfg_.floor, cfg_.ceiling);
}

std::uint64_t TimelinessTracker::samples(CgroupId cg) const {
  auto it = states_.find(cg);
  return it == states_.end() ? 0 : it->second.count;
}

}  // namespace canvas::sched
