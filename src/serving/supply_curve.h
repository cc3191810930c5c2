// Per-window latency/supply curve for the QoS plane (DESIGN.md §13).
//
// Memtrade's consumer manager consults a `cmanager_latency` trace: a time
// series telling the control loop how much latency headroom the current
// spot-memory supply leaves each control window. We reproduce the shape
// as a step function over the DES clock, loaded from `time_ms,scale` CSV
// rows. Each control tick the QoS plane looks up the scale for "now" and
// multiplies every tenant's SLO bounds by it before judging the window:
// scale > 1 loosens the bounds (plentiful supply — tolerate slower faults
// before escalating), scale < 1 tightens them (supply crunch — escalate
// earlier). An empty curve, the default, scales by exactly 1.0 and leaves
// judgment byte-for-byte identical to a plane built before this knob
// existed.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace canvas::serving {

struct SupplyCurve {
  struct Point {
    SimTime at = 0;      ///< step edge on the DES clock
    double scale = 1.0;  ///< SLO-bound multiplier from `at` onward
  };

  /// Step edges in nondecreasing time order (enforced by Parse).
  std::vector<Point> points;

  bool empty() const { return points.empty(); }

  /// Step-function lookup: the scale of the last point at or before
  /// `now`; 1.0 before the first point or when the curve is empty.
  double ScaleAt(SimTime now) const;

  /// Parse `time_ms,scale` CSV text: one point (exactly two fields) per
  /// line, commas or whitespace as separators, `#` starts a comment, blank
  /// lines are skipped. Times must be nondecreasing, nonnegative and at
  /// most kMaxParsedNs, scales positive. Returns nullopt and fills `err` on
  /// malformed input, including a line whose time is not a number: a
  /// header line such as `time_ms,scale` must start with `#`.
  static std::optional<SupplyCurve> Parse(const std::string& text,
                                          std::string* err = nullptr);

  /// Parse() over the contents of `path`.
  static std::optional<SupplyCurve> LoadFile(const std::string& path,
                                             std::string* err = nullptr);
};

}  // namespace canvas::serving
