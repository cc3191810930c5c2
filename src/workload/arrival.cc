#include "workload/arrival.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <system_error>

#include <pthread.h>
#include <sched.h>

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

namespace {

std::atomic<unsigned> g_live_helpers{0};
std::atomic<unsigned> g_helper_cap{OpenLoopZipfStream::kMaxHelpers};

bool AcquireHelperSlot() {
  unsigned live = g_live_helpers.load();
  while (live < g_helper_cap.load()) {
    if (g_live_helpers.compare_exchange_weak(live, live + 1)) return true;
  }
  return false;
}

}  // namespace

unsigned OpenLoopZipfStream::LiveHelpers() { return g_live_helpers.load(); }

unsigned OpenLoopZipfStream::SetHelperCapForTest(unsigned cap) {
  return g_helper_cap.exchange(cap);
}

std::uint64_t OpenLoopZipfStream::ChunksFilledForTest() {
  std::lock_guard<std::mutex> lk(mu_);
  return filled_;
}

OpenLoopZipfStream::OpenLoopZipfStream(Params p)
    : p_(p),
      arrivals_(p.arrival, p.seed ^ 0x5E121C0DEull),
      rng_(p.seed),
      zipf_(std::max<std::uint64_t>(p.region.len, 1), p.theta),
      done_(p.region.len == 0) {
  // Same rank-scatter as the closed-loop ZipfStream so serving runs hit the
  // same hot-page layout as the batch memcached model.
  perm_.resize(p_.region.len);
  for (PageId i = 0; i < p_.region.len; ++i) perm_[i] = p_.region.start + i;
  Rng perm_rng(p.seed ^ 0xABCD1234u);
  Shuffle(perm_, perm_rng);
}

OpenLoopZipfStream::~OpenLoopZipfStream() {
  if (!helper_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  space_.notify_one();
  helper_.join();
  g_live_helpers.fetch_sub(1);
}

bool OpenLoopZipfStream::Fill(std::size_t slot) {
  Draw* out = &ring_[slot * kChunkDraws];
  for (std::size_t i = 0; i < kChunkDraws; ++i) {
    Draw& d = out[i];
    d.t = arrivals_.NextArrival();
    if (d.t >= p_.horizon) {
      d.flags = kEnd;
      return true;
    }
    d.flags = 0;
    // Admission deferral: requests arriving before admit_time queue up and
    // are served at the gate; ones deferred past the horizon drop and draw
    // no page.
    if (d.t < admit_time_) {
      d.flags = kDeferred;
      d.t = admit_time_;
      if (d.t >= p_.horizon) {
        d.flags |= kDropped;
        continue;
      }
    }
    std::uint64_t rank = zipf_.Next(rng_);
    assert(rank < perm_.size());  // zipf_ spans the whole (non-empty) region
    d.page = perm_[rank];
    if (rng_.NextBool(p_.write_fraction)) d.flags |= kWrite;
  }
  return false;
}

void OpenLoopZipfStream::Start() {
  started_ = true;
  admit_time_ = p_.control ? p_.control->admit_time : 0;
  // Allocated here, before the helper exists: the helper allocates nothing,
  // so glibc gives it no arena of its own.
  ring_.resize(kRingChunks * kChunkDraws);
  ended_ = Fill(0);
  claimed_ = filled_ = 1;
  if (!ended_ && AcquireHelperSlot()) {
    try {
      helper_ = std::thread([this] { HelperLoop(); });
    } catch (const std::system_error&) {
      g_live_helpers.fetch_sub(1);  // no thread to be had: fill inline
    }
  }
}

void OpenLoopZipfStream::HelperLoop() {
#ifdef SCHED_IDLE
  // The helper only prefetches: run it on idle CPUs, so that its wake-up
  // never pre-empts a simulation thread. The consumer fills a chunk itself
  // when the helper has not got to it.
  sched_param param{};
  pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
#endif
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    space_.wait(lk, [&] { return stop_ || ended_ || CanClaim(kRefillChunks); });
    // Fill until the ring is full, one claimed chunk at a time.
    while (!stop_ && CanClaim(1)) {
      std::uint64_t n = claimed_++;
      lk.unlock();
      bool end = Fill(n % kRingChunks);
      lk.lock();
      filled_ = n + 1;
      ended_ = end;
      ready_.notify_one();
    }
    if (stop_ || ended_) return;
  }
}

const OpenLoopZipfStream::Draw& OpenLoopZipfStream::NextDraw() {
  if (pos_ == kChunkDraws) {
    pos_ = 0;
    ++chunk_;
    std::unique_lock<std::mutex> lk(mu_);
    released_ = chunk_;
    if (filled_ <= chunk_ && claimed_ == filled_) {
      // Nobody is filling the chunk we need: fill it here.
      claimed_ = chunk_ + 1;
      lk.unlock();
      bool end = Fill(chunk_ % kRingChunks);
      lk.lock();
      filled_ = chunk_ + 1;
      ended_ = end;
    }
    ready_.wait(lk, [&] { return filled_ > chunk_; });
    if (CanClaim(kRefillChunks)) space_.notify_one();
  }
  return ring_[(chunk_ % kRingChunks) * kChunkDraws + pos_++];
}

std::optional<Access> OpenLoopZipfStream::NextAt(SimTime now) {
  last_now_ = now;
  if (done_) return std::nullopt;
  if (!started_) Start();
  LoadControl* ctl = p_.control.get();
  for (;;) {
    const Draw& d = NextDraw();
    if (d.flags & kEnd) {
      done_ = true;
      return std::nullopt;
    }
    if (ctl) {
      ++ctl->offered;
      if (d.flags & kDeferred) ++ctl->deferred;
    }
    if (d.flags & kDropped) continue;
    // Pace against the DES clock: idle until the arrival instant when
    // ahead; serve immediately (and record the lag) when behind.
    std::uint64_t wait_ns = 0;
    if (d.t > now) {
      wait_ns = d.t - now;
    } else if (ctl) {
      ctl->max_lag = std::max<SimDuration>(ctl->max_lag, now - d.t);
    }
    std::uint64_t compute =
        std::min<std::uint64_t>(wait_ns + p_.service_ns,
                                std::numeric_limits<std::uint32_t>::max());
    if (ctl) ++ctl->served;
    return Access{d.page, (d.flags & kWrite) != 0, std::uint32_t(compute)};
  }
}

}  // namespace canvas::workload
