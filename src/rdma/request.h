// RDMA request descriptor flowing from the fault handler through the
// dispatch scheduler to the simulated NIC.
//
// A request corresponds to one 4KB page transfer: a demand swap-in, a
// prefetch swap-in, or a swap-out (writeback). Timestamps along the path let
// the metrics layer reconstruct the latency CDFs of the paper's Figures 6
// and 14 and the timeliness statistics used by the horizontal scheduler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/types.h"
#include "sim/inline_callback.h"

namespace canvas::rdma {

enum class Op : std::uint8_t {
  kDemandIn,    // synchronous, fault-critical read
  kPrefetchIn,  // asynchronous, speculative read
  kSwapOut,     // writeback of an evicted dirty page
};

inline const char* OpName(Op op) {
  switch (op) {
    case Op::kDemandIn: return "demand-in";
    case Op::kPrefetchIn: return "prefetch-in";
    case Op::kSwapOut: return "swap-out";
  }
  return "?";
}

/// Transfer direction over the (full-duplex) link.
enum class Direction : std::uint8_t { kIngress, kEgress };

inline Direction DirectionOf(Op op) {
  return op == Op::kSwapOut ? Direction::kEgress : Direction::kIngress;
}

/// `Request::partition` value for requests that do not flow through a
/// remote::ServerPool (the single-server fast path).
inline constexpr std::uint32_t kNoPoolPartition = 0xFFFF'FFFFu;

/// Outcome of the most recent transfer attempt (set by the NIC / disk
/// backend before the terminal callback fires).
enum class RequestStatus : std::uint8_t {
  kOk,        // completed successfully
  kCqeError,  // completion arrived flagged as failed (simulated CQE error)
  kTimeout,   // no completion within the per-attempt timeout (blackout)
};

struct Request {
  Op op = Op::kDemandIn;
  CgroupId cgroup = kInvalidCgroup;
  PageId page = kInvalidPage;
  SwapEntryId entry = kInvalidEntry;
  std::uint32_t bytes = kPageSize;

  /// Index of the application that issued the request (unlike `cgroup`,
  /// which is the *charged* cgroup — the shared cgroup for shared pages).
  /// Lets the recovery path route a drained request back to its owner.
  std::uint32_t owner_app = 0xFFFF'FFFFu;

  SimTime created = 0;     ///< generated by the fault/eviction path
  SimTime dispatched = 0;  ///< last handed to the NIC / disk by a scheduler
  SimTime completed = 0;   ///< data transferred and completion fired

  // --- robustness bookkeeping (DESIGN.md §8) ---
  RequestStatus status = RequestStatus::kOk;
  /// Failed transfer attempts so far (the NIC retries up to the configured
  /// maximum before handing the request to on_error).
  std::uint32_t attempts = 0;
  /// Backoff delay applied before the most recent retry (diagnostics and
  /// the monotonic-backoff property test).
  SimDuration last_backoff = 0;
  /// Stamped by the local device (tier or disk) that served the request,
  /// so completion handlers can tag the page's home; kRemote otherwise.
  SwapBackend served_by = SwapBackend::kRemote;

  // --- remote memory-server pool routing (DESIGN.md §11) ---
  /// ServerPool partition id of `entry` (kNoPoolPartition = unpooled; the
  /// NIC then skips per-server routing entirely).
  std::uint32_t partition = kNoPoolPartition;
  /// Memory server this attempt was dispatched to. Resolved *at dispatch*
  /// (late binding) so retries automatically chase slab migrations; -1
  /// (remote::kNoServer) when unpooled or the slab never had a remote home.
  std::int32_t server = -1;

  /// Fired exactly once at completion time (never if the request is
  /// dropped by the scheduler or exhausts its retries). Inline storage: the
  /// fault-path closures fit the 56-byte buffer, so the only heap
  /// allocation per RDMA operation is the request itself.
  sim::InlineFunction<void(const Request&)> on_complete;

  /// Fired if the scheduler drops the request (stale prefetch).
  sim::InlineFunction<void(const Request&)> on_drop;

  /// Fired when the NIC exhausts the retry budget; ownership of the request
  /// returns to the issuer, which may re-enqueue it (callbacks intact),
  /// redirect it to another backend, or unwind it. When absent the NIC
  /// falls back to on_drop. Exactly one of on_complete / on_drop / on_error
  /// fires per request lifetime. A std::function: the NIC copies it out
  /// before handing ownership back, and its captures fit the 16-byte
  /// small-object buffer.
  std::function<void(std::unique_ptr<Request>)> on_error;

  /// Requests are recycled through a per-thread free list (request.cc), so
  /// once it holds a run's peak number of requests in flight, a swap-out,
  /// demand read or prefetch allocates nothing. Only where the bytes come
  /// from changes: RequestPtr still owns the request, and on_error still
  /// hands it back. Under AddressSanitizer the pool steps aside, so a freed
  /// request goes to ASan's quarantine and a stale use is still caught.
  static void* operator new(std::size_t size);
  static void operator delete(void* p, std::size_t size) noexcept;
};

using RequestPtr = std::unique_ptr<Request>;

}  // namespace canvas::rdma
