#include "common.hpp"

#include <sys/resource.h>

#include <cinttypes>
#include <sstream>

namespace perfbench {

namespace host {
namespace {

constexpr std::size_t kSortValues = 4096;
constexpr int kSorts = 8;
constexpr std::size_t kWindow = 9;

struct Reference {
  std::vector<double> values = std::vector<double>(kSortValues);
  std::uint64_t state = 1;
  std::vector<double> recent;  // the last kWindow loop times, oldest first
  Samples all;
  int depth = 0;

  void run() {
    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < kSorts; ++r) {
      for (double& v : values) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        v = static_cast<double>(state >> 11);
      }
      std::sort(values.begin(), values.end());
    }
    const double s = seconds_since(t0);
    if (recent.size() == kWindow) recent.erase(recent.begin());
    recent.push_back(s);
    all.add(s);
  }
};

Reference& reference() {
  static Reference r;
  return r;
}

}  // namespace

void sample() {
  Reference& r = reference();
  if (r.depth == 0) r.run();
}

double scale() {
  Reference& r = reference();
  if (r.recent.empty()) r.run();
  std::vector<double> s = r.recent;
  std::nth_element(s.begin(), s.begin() + s.size() / 2, s.end());
  return std::pow(kReferenceS / s[s.size() / 2], kSensitivity);
}

double reference_median_s() { return reference().all.median(); }

Span::Span() { ++reference().depth; }
Span::~Span() { --reference().depth; }

}  // namespace host

void check_window(const Oracle& oracle, std::span<const gq::Key> outputs,
                  const std::vector<bool>& valid, double phi, double eps,
                  Tally& tally, const std::string& what) {
  bool any = false;
  double lo = 0.0, hi = 0.0;
  for (std::size_t v = 0; v < outputs.size(); ++v) {
    if (!valid[v]) continue;
    const double x = outputs[v].value;
    if (!any) {
      lo = hi = x;
      any = true;
    } else {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
  }
  if (!any) {
    tally.check(false, what + ": no node served an output");
    return;
  }
  const double err =
      std::max(oracle.rank_error(lo, phi), oracle.rank_error(hi, phi));
  tally.note_rank_error(err);
  // One rank of slack for the ceil in the target rank.
  const double allowed = eps + 1.0 / static_cast<double>(oracle.size());
  std::ostringstream os;
  os << what << ": phi=" << phi << " rank error " << err << " > eps " << eps;
  tally.check(err <= allowed, os.str());
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MiB
}

void MetricSink::print(const Tally& tally) const {
  for (const auto& [name, vu] : metrics_) {
    std::printf("%-40s %16.6f %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  std::string json = "{\"correct\": ";
  json += tally.failed() == 0 ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                tally.attempted(), tally.failed());
  json += buf;
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
