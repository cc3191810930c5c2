#include "serving/supply_curve.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace canvas::serving {

namespace {

void SetError(std::string* err, int line_no, const std::string& line,
              const char* what) {
  if (err) {
    std::ostringstream os;
    os << "supply curve line " << line_no << ": " << what << ": " << line;
    *err = os.str();
  }
}

}  // namespace

double SupplyCurve::ScaleAt(SimTime now) const {
  auto it = std::upper_bound(
      points.begin(), points.end(), now,
      [](SimTime t, const Point& p) { return t < p.at; });
  return it == points.begin() ? 1.0 : std::prev(it)->scale;
}

std::optional<SupplyCurve> SupplyCurve::Parse(const std::string& text,
                                              std::string* err) {
  SupplyCurve curve;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::replace(line.begin(), line.end(), ',', ' ');
    if (line.find_first_not_of(" \t\r\v\f") == std::string::npos)
      continue;  // blank / comment-only line
    std::istringstream ls(line);
    double at_ms = 0;
    if (!(ls >> at_ms)) {
      SetError(err, line_no, line, "bad time");
      return std::nullopt;
    }
    double scale = 0;
    if (std::string extra; !(ls >> scale) || scale <= 0 || ls >> extra) {
      SetError(err, line_no, line, "bad scale (want time_ms,scale)");
      return std::nullopt;
    }
    SimTime at = 0;
    if (!ToSimTime(at_ms, kMillisecond, &at)) {
      SetError(err, line_no, line,
               at_ms < 0 ? "negative time" : "time out of range");
      return std::nullopt;
    }
    if (!curve.points.empty() && at < curve.points.back().at) {
      SetError(err, line_no, line, "time goes backwards");
      return std::nullopt;
    }
    curve.points.push_back({at, scale});
  }
  return curve;
}

std::optional<SupplyCurve> SupplyCurve::LoadFile(const std::string& path,
                                                 std::string* err) {
  std::ifstream f(path);
  if (!f) {
    if (err) *err = "cannot open supply curve file: " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return Parse(buf.str(), err);
}

}  // namespace canvas::serving
