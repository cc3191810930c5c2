// Fundamental identifiers and units shared by every Canvas module.
//
// All simulated time is kept in nanoseconds as a 64-bit unsigned count from
// the start of the simulation. Page identifiers are indices into a
// per-application virtual page space; swap entries are indices into a swap
// partition. kInvalid* sentinels mark "no value" without resorting to
// std::optional in hot structures.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace canvas {

/// Simulated time in nanoseconds since simulation start.
using SimTime = std::uint64_t;

/// Duration in nanoseconds.
using SimDuration = std::uint64_t;

inline constexpr SimTime kTimeNever = std::numeric_limits<SimTime>::max();

inline constexpr SimDuration kMicrosecond = 1'000;
inline constexpr SimDuration kMillisecond = 1'000'000;
inline constexpr SimDuration kSecond = 1'000'000'000;

/// Largest time the text parsers accept (2^62 ns, ~146 years; the sum of
/// two still fits in a SimTime).
inline constexpr double kMaxParsedNs = 0x1p62;
/// `value` `unit`s as a SimTime; false for NaN, negative values and values
/// past kMaxParsedNs, whose conversion would be undefined.
inline bool ToSimTime(double value, SimDuration unit, SimTime* out) {
  double ns = value * double(unit);
  if (!(ns >= 0 && ns <= kMaxParsedNs)) return false;
  *out = SimTime(ns);
  return true;
}

/// Index of a 4KB virtual page within one application's address space.
using PageId = std::uint64_t;
inline constexpr PageId kInvalidPage = std::numeric_limits<PageId>::max();

/// Index of a 4KB swap entry within a swap partition.
using SwapEntryId = std::uint64_t;
inline constexpr SwapEntryId kInvalidEntry =
    std::numeric_limits<SwapEntryId>::max();

/// Identifier of a cgroup (one per co-running application, plus the special
/// shared cgroup used for pages mapped by more than one process).
using CgroupId = std::uint32_t;
inline constexpr CgroupId kInvalidCgroup =
    std::numeric_limits<CgroupId>::max();
inline constexpr CgroupId kSharedCgroup = 0xFFFF'FFFEu;

/// Identifier of a simulated kernel thread, unique across applications.
using ThreadId = std::uint32_t;
inline constexpr ThreadId kInvalidThread =
    std::numeric_limits<ThreadId>::max();

/// Identifier of a simulated CPU core.
using CoreId = std::uint32_t;

inline constexpr std::uint32_t kPageSize = 4096;

/// A swap backend: where a page's copy of record lives (mem::Page::home,
/// swapalloc::EntryMeta::home), which device served a request
/// (rdma::Request::served_by), and where a cgroup's writebacks go
/// (Cgroup::backend). Healthy cgroups write to remote memory; after
/// sustained RDMA failure a cgroup fails over to the hybrid local tier when
/// one is configured (DESIGN.md §14), else to the local disk (§8).
enum class SwapBackend : std::uint8_t { kRemote, kLocalTier, kLocalDisk };

/// Pretty-print a simulated time, e.g. "12.345ms".
std::string FormatTime(SimTime t);

/// Pretty-print a byte count, e.g. "1.5GB".
std::string FormatBytes(double bytes);

}  // namespace canvas
