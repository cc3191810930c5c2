#include "workload/arrival.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace canvas::workload {

const char* ArrivalKindName(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kDiurnal: return "diurnal";
    case ArrivalKind::kFlashCrowd: return "flash";
  }
  return "?";
}

std::optional<ArrivalKind> ArrivalKindFromName(const std::string& name) {
  if (name == "poisson") return ArrivalKind::kPoisson;
  if (name == "diurnal") return ArrivalKind::kDiurnal;
  if (name == "flash" || name == "flash-crowd") return ArrivalKind::kFlashCrowd;
  return std::nullopt;
}

double ArrivalConfig::RateAt(SimTime t) const {
  switch (kind) {
    case ArrivalKind::kPoisson:
      return rate_rps;
    case ArrivalKind::kDiurnal: {
      double phase = 2.0 * M_PI * double(t) / double(diurnal_period);
      return rate_rps * (1.0 + diurnal_amplitude * std::sin(phase));
    }
    case ArrivalKind::kFlashCrowd:
      return t >= flash_start && t < flash_start + flash_duration
                 ? rate_rps * flash_multiplier
                 : rate_rps;
  }
  return rate_rps;
}

double ArrivalConfig::PeakRate() const {
  switch (kind) {
    case ArrivalKind::kPoisson: return rate_rps;
    case ArrivalKind::kDiurnal: return rate_rps * (1.0 + diurnal_amplitude);
    case ArrivalKind::kFlashCrowd: return rate_rps * flash_multiplier;
  }
  return rate_rps;
}

ArrivalProcess::ArrivalProcess(ArrivalConfig cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed), peak_(cfg.PeakRate()) {
  assert(peak_ > 0);
}

SimTime ArrivalProcess::NextArrival() {
  for (;;) {
    // Exponential gap at the peak rate. 1 - u keeps the argument in (0, 1].
    double u = 1.0 - rng_.NextDouble();
    double gap_ns = -std::log(u) / peak_ * 1e9;
    // Strict progress (monotone schedule) even when the gap rounds to 0.
    clock_ += std::max<SimDuration>(1, SimDuration(gap_ns));
    // Thin: accept with probability lambda(t)/peak. The homogeneous case
    // accepts unconditionally without consuming a draw.
    if (cfg_.kind == ArrivalKind::kPoisson) return clock_;
    if (rng_.NextDouble() * peak_ <= cfg_.RateAt(clock_)) return clock_;
  }
}

OpenLoopZipfStream::OpenLoopZipfStream(Params p)
    : p_(p),
      arrivals_(p.arrival, p.seed ^ 0x5E121C0DEull),
      rng_(p.seed),
      zipf_(std::max<std::uint64_t>(p.region.len, 1), p.theta) {
  // Same rank-scatter as the closed-loop ZipfStream so serving runs hit the
  // same hot-page layout as the batch memcached model.
  perm_.resize(p_.region.len);
  for (PageId i = 0; i < p_.region.len; ++i) perm_[i] = p_.region.start + i;
  Rng perm_rng(p.seed ^ 0xABCD1234u);
  Shuffle(perm_, perm_rng);
}

std::optional<Access> OpenLoopZipfStream::NextAt(SimTime now) {
  last_now_ = now;
  if (p_.region.len == 0) return std::nullopt;
  LoadControl* ctl = p_.control.get();
  for (;;) {
    SimTime t = arrivals_.NextArrival();
    if (t >= p_.horizon) return std::nullopt;
    if (ctl) {
      ++ctl->offered;
      // Admission deferral: requests arriving before admit_time queue up
      // and are served at the gate; ones deferred past the horizon drop.
      if (t < ctl->admit_time) {
        ++ctl->deferred;
        t = ctl->admit_time;
        if (t >= p_.horizon) continue;
      }
    }
    // Pace against the DES clock: idle until the arrival instant when
    // ahead; serve immediately (and record the lag) when behind.
    std::uint64_t wait_ns = 0;
    if (t > now) {
      wait_ns = t - now;
    } else if (ctl) {
      ctl->max_lag = std::max<SimDuration>(ctl->max_lag, now - t);
    }
    std::uint64_t compute =
        std::min<std::uint64_t>(wait_ns + p_.service_ns,
                                std::numeric_limits<std::uint32_t>::max());
    if (ctl) ++ctl->served;
    std::uint64_t rank = zipf_.Next(rng_);
    assert(rank < perm_.size());  // zipf_ spans the whole (non-empty) region
    return Access{perm_[rank],
                  rng_.NextBool(p_.write_fraction),
                  std::uint32_t(compute)};
  }
}

}  // namespace canvas::workload
