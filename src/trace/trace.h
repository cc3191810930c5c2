// Tracing & telemetry core (DESIGN.md §9).
//
// A Tracer records fixed-size binary TraceRecords — spans, instants and
// counters stamped with sim-time — into a preallocated ring buffer
// (TraceBuffer). The hot path is one enabled check plus a 40-byte store;
// nothing here schedules events or touches simulation state, so recording
// can never perturb event order (the determinism suite asserts reports are
// byte-identical with tracing on and off).
//
// Track model (mirrors the Chrome trace-event pid/tid scheme):
//   pid = application index           tid = 0      cgroup-level track
//                                     tid = 1+tid  one track per sim thread
//   pid = kRdmaPid (fabric)           tid = 0/1    ingress / egress lane
//                                     tid = 2      control (blackout) events
//
// Span begin/end times are carried by the caller (the swap stack already
// timestamps every request and stall), so spans are written as one record
// at end time — there is no open-span table and no allocation.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace canvas::trace {

/// Interned record names. Spans and instants use the lifecycle names;
/// counters use the sampler names. NameString() maps to the exported label.
enum class Name : std::uint16_t {
  // --- page-fault lifecycle spans ---
  kFault,            ///< whole fault stall of one thread (outermost span)
  kSwapCacheLookup,  ///< trap + swap-cache lookup (kFaultEntryCost)
  kRdmaQueue,        ///< request created -> dispatched (scheduler queueing)
  kRdmaDma,          ///< request dispatched -> completion (DMA + wire)
  kMap,              ///< mapping a swap-cache page into the page table
  kWire,             ///< per-lane serialization occupancy (NIC track)
  // --- instants ---
  kAllocWait,        ///< swap-entry allocation finished; arg = wait+hold ns
  kSwapOutIssue,     ///< writeback issued; arg = page
  kRescue,           ///< blocked-thread rescue demand issued (§5.3)
  kWake,             ///< in-flight page resolved; arg = #waiters woken
  kPrefetchIssue,    ///< prefetch enqueued; arg = page
  kPrefetchHit,      ///< prefetched page mapped before release; arg = page
  kPrefetchDiscard,  ///< stale prefetch discarded itself (§5.3); arg = page
  kPrefetchDrop,     ///< prefetch dropped (scheduler/drain); arg = page
  kRetry,            ///< NIC retry scheduled; arg = backoff ns
  kTimeoutEvt,       ///< attempt died by timeout
  kCqeErrorEvt,      ///< attempt died by CQE error
  kExhaustedEvt,     ///< retry budget exhausted; request handed to issuer
  kFailover,         ///< cgroup failed over to the local disk
  kFailback,         ///< cgroup failed back to the remote path
  kServerDown,       ///< memory-server blackout began
  kServerUp,         ///< memory-server blackout ended
  // --- remote memory-server pool (DESIGN.md §11) ---
  kMigrateSpan,      ///< live slab migration bulk copy (source server track)
  kSlabPlaceEvt,     ///< slab placed on a server; arg = slab index
  kSlabToDiskEvt,    ///< slab evicted to the disk backend; arg = slab index
  kHarvestEvt,       ///< producer reclaimed capacity; arg = slabs taken
  // --- sampler counters (per-cgroup time series) ---
  kRssPages,          ///< resident pages
  kCachePages,        ///< swap-cache pages charged
  kCacheHitRatio,     ///< cumulative faults_minor / faults
  kPrefetchAccuracy,  ///< cumulative prefetch accuracy (pct)
  kQueueDepth,        ///< requests queued in the dispatch scheduler
  kBandwidthIngress,  ///< bytes/sec over the last sample period
  kBandwidthEgress,   ///< bytes/sec over the last sample period
  // --- per-server counters (remote pool; tid = server id) ---
  kServerInflight,    ///< requests dispatched to the server, not yet done
  kServerSlabs,       ///< slabs currently homed on the server
  kNumNames,
};

const char* NameString(Name n);

enum class RecordType : std::uint8_t { kSpan, kInstant, kCounter };

/// Synthetic pid for the RDMA fabric tracks (lane occupancy, retries,
/// blackout control events). Large enough to never collide with app indices.
inline constexpr std::uint32_t kRdmaPid = 0xFFFF'0000u;
/// tid of the per-application cgroup-level track (threads use 1 + ThreadId).
inline constexpr std::uint32_t kCgroupTrack = 0;
/// tid of the fabric control track under kRdmaPid.
inline constexpr std::uint32_t kFabricControlTrack = 2;
/// Synthetic pid for the remote memory-server pool; tid = server id.
inline constexpr std::uint32_t kRemotePoolPid = 0xFFFF'0001u;

/// One fixed-size binary record. Counters store their double value
/// bit-cast into `arg`.
struct TraceRecord {
  SimTime ts = 0;        ///< begin time (spans) or event time
  SimDuration dur = 0;   ///< span duration; 0 for instants/counters
  std::uint64_t arg = 0; ///< page id / count / bit-cast counter value
  std::uint32_t pid = 0; ///< process track (app index or kRdmaPid)
  std::uint32_t tid = 0; ///< thread track within the pid
  Name name = Name::kFault;
  RecordType type = RecordType::kInstant;

  double CounterValue() const { return std::bit_cast<double>(arg); }
};

/// Preallocated fixed-record ring. When full, Push overwrites the oldest
/// record and counts it as dropped — memory stays bounded and the most
/// recent history (what a tail-latency investigation wants) survives.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity) : ring_(capacity) {}

  void Push(const TraceRecord& r) {
    if (ring_.empty()) {
      ++dropped_;
      return;
    }
    std::size_t slot = (head_ + size_) % ring_.size();
    if (size_ == ring_.size()) {
      // Overwrite the oldest record.
      ring_[head_] = r;
      head_ = (head_ + 1) % ring_.size();
      ++dropped_;
    } else {
      ring_[slot] = r;
      ++size_;
    }
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Records lost to ring wrap (or to a zero-capacity ring).
  std::uint64_t dropped() const { return dropped_; }

  /// i = 0 is the oldest retained record.
  const TraceRecord& At(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }

  template <typename F>
  void ForEach(F&& f) const {
    for (std::size_t i = 0; i < size_; ++i) f(At(i));
  }

  void Clear() {
    head_ = size_ = 0;
    dropped_ = 0;
  }

 private:
  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Sim-time period of the per-cgroup counter sampler.
inline constexpr SimDuration kSamplePeriod = kMillisecond;

/// Runtime configuration (a member of core::SystemConfig, so any experiment
/// can toggle tracing without rebuilding).
struct TraceConfig {
  bool enabled = false;
  /// Ring capacity in records (40 bytes each; the default retains ~10MB).
  std::size_t ring_capacity = std::size_t(1) << 18;
  /// Emit per-cgroup counter time series every kSamplePeriod on the DES
  /// clock.
  bool sampler = true;

  bool operator==(const TraceConfig&) const = default;
};

/// The recording front-end. All methods are no-ops while disabled (one
/// predictable branch), and none of them allocate: the ring is sized once
/// when tracing is first enabled.
class Tracer {
 public:
  Tracer() : Tracer(TraceConfig{}) {}
  explicit Tracer(TraceConfig cfg)
      : cfg_(cfg), buf_(cfg.enabled ? cfg.ring_capacity : 0) {
    enabled_ = cfg.enabled;
  }

  bool enabled() const { return enabled_; }
  /// Runtime toggle. Enabling for the first time allocates the ring.
  void set_enabled(bool on) {
    if (on && buf_.capacity() == 0 && cfg_.ring_capacity > 0)
      buf_ = TraceBuffer(cfg_.ring_capacity);
    enabled_ = on;
  }
  const TraceConfig& config() const { return cfg_; }

  void Span(std::uint32_t pid, std::uint32_t tid, Name name, SimTime begin,
            SimTime end, std::uint64_t arg = 0) {
    if (!enabled_) return;
    buf_.Push({begin, end - begin, arg, pid, tid, name, RecordType::kSpan});
  }

  void Instant(std::uint32_t pid, std::uint32_t tid, Name name, SimTime ts,
               std::uint64_t arg = 0) {
    if (!enabled_) return;
    buf_.Push({ts, 0, arg, pid, tid, name, RecordType::kInstant});
  }

  void Counter(std::uint32_t pid, std::uint32_t tid, Name name, SimTime ts,
               double value) {
    if (!enabled_) return;
    buf_.Push({ts, 0, std::bit_cast<std::uint64_t>(value), pid, tid, name,
               RecordType::kCounter});
  }

  const TraceBuffer& buffer() const { return buf_; }
  void Clear() { buf_.Clear(); }

 private:
  TraceConfig cfg_;
  bool enabled_ = false;
  TraceBuffer buf_;
};

}  // namespace canvas::trace
