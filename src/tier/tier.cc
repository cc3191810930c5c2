#include "tier/tier.h"

#include <algorithm>
#include <stdexcept>

namespace canvas::tier {

std::uint64_t TierConfig::CgroupQuota() const {
  if (!enabled()) return 0;
  double q = double(capacity_pages) * quota_frac;
  return std::max<std::uint64_t>(1, std::uint64_t(q));
}

TierConfig TierConfig::FromName(const std::string& name) {
  TierConfig cfg;
  if (name.empty() || name == "none") {
    cfg.name = "none";
    return cfg;  // capacity 0: disabled
  }
  if (name == "cxl") {
    // CXL-attached DRAM expander: ~2-3x DRAM load-to-use, near-DRAM
    // bandwidth ("Emulating Hybrid Memory on NUMA Hardware" table 1 class).
    cfg.name = "cxl";
    cfg.capacity_pages = 8192;  // 32 MiB
    cfg.bandwidth_bytes_per_sec = 12.0e9;
    cfg.latency = 800;  // ns
    return cfg;
  }
  if (name == "nvm") {
    // Optane-class persistent memory: microsecond media, larger capacity,
    // lower bandwidth.
    cfg.name = "nvm";
    cfg.capacity_pages = 16384;  // 64 MiB
    cfg.bandwidth_bytes_per_sec = 3.0e9;
    cfg.latency = 5 * kMicrosecond;
    return cfg;
  }
  throw std::invalid_argument("unknown tier preset: " + name +
                              " (known: none, cxl, nvm)");
}

std::vector<std::pair<std::string, std::string>> TierConfig::ListTiers() {
  return {
      {"none", "no local slow-memory tier (default; two-level hierarchy)"},
      {"cxl", "CXL DRAM expander: 800ns, 12 GB/s, 8192 pages (32 MiB)"},
      {"nvm", "NVM/Optane class: 5us, 3 GB/s, 16384 pages (64 MiB)"},
  };
}

TierBackend::TierBackend(sim::Simulator& sim, TierConfig cfg,
                         std::shared_ptr<const fault::FaultPlan> plan)
    : sim_(sim),
      cfg_(std::move(cfg)),
      quota_(cfg_.CgroupQuota()),
      device_(sim, SwapBackend::kLocalTier,
              {cfg_.bandwidth_bytes_per_sec, cfg_.latency}) {
  if (plan) {
    latency_windows_ = plan->tier_latency_spikes();
    freeze_windows_ = plan->tier_freezes();
  }
}

bool TierBackend::Frozen(SimTime t) const {
  for (const auto& w : freeze_windows_)
    if (w.window.Covers(t)) return true;
  return false;
}

SimDuration TierBackend::ExtraLatency(SimTime t) const {
  SimDuration extra = 0;
  for (const auto& w : latency_windows_)
    if (w.window.Covers(t)) extra += w.extra;
  return extra;
}

std::uint64_t TierBackend::cgroup_used(CgroupId cg) const {
  return cg < cg_used_.size() ? cg_used_[cg] : 0;
}

bool TierBackend::Admit(std::uint64_t key, CgroupId cg) {
  if (residents_.Contains(key)) return true;  // idempotent
  if (residents_.size() >= cfg_.capacity_pages || Frozen(sim_.Now()) ||
      cgroup_used(cg) >= quota_) {
    ++rejects_;
    return false;
  }
  residents_[key] = cg;
  if (cg >= cg_used_.size()) cg_used_.resize(cg + 1, 0);
  ++cg_used_[cg];
  ++admits_;
  peak_used_ = std::max(peak_used_, std::uint64_t(residents_.size()));
  return true;
}

void TierBackend::Release(std::uint64_t key) {
  const CgroupId* r = residents_.Find(key);
  if (!r) return;
  CgroupId cg = *r;
  residents_.Erase(key);
  if (cg < cg_used_.size() && cg_used_[cg] > 0) --cg_used_[cg];
  ++releases_;
}

}  // namespace canvas::tier
