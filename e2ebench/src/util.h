// Small shared helpers of the benchmark driver: clocks, order statistics,
// the run report and the answer digest.
#ifndef E2EBENCH_UTIL_H_
#define E2EBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank quantile of `values` (q in [0,1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// `q`-quantile of each of up to `max_slices` consecutive slices of
/// `values` holding at least `min_per_slice` values each (one slice when
/// there are fewer), and the median of those: a stall of the shared
/// machine inside one slice does not set the figure.
double SlicedQuantile(const std::vector<double>& values, double q,
                      size_t min_per_slice, size_t max_slices);
double Mean(const std::vector<double>& values);

/// FNV-1a over `data`, continuing from `h`: the digest of a workload's
/// ordered answers.
uint64_t Digest(std::string_view data, uint64_t h = 14695981039346656037ull);
std::string Hex64(uint64_t v);

/// The program's replies carry JSON booleans ("degraded":true,
/// "store_durable":true), which the repository's JSON subset does not
/// parse: rewrite the literals outside strings to 1/0 first.
std::string BooleansAsNumbers(std::string_view text);

/// Steal and total jiffies of all CPUs so far (/proc/stat): the time the
/// hypervisor ran something else while this machine's CPUs had work.
/// Zeros where the file is missing.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
/// Share of CPU time stolen between two readings.
double StealShare(const CpuTicks& before, const CpuTicks& after);

/// The metrics of one run. Metrics named in BENCHMARK.json go to the final
/// JSON line (`gated`); every metric is printed on its own human-readable
/// line with its unit.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           bool gated);
  /// A free-form line printed before the metrics (phase counts, ratios
  /// with their base, check outcomes).
  void Note(const std::string& line);
  /// A failed output check: the run is reported incorrect.
  void Fail(const std::string& what);

  void CountAttempted(uint64_t n) { attempted_ += n; }
  void CountFailed(uint64_t n) { failed_ += n; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failures_.empty(); }

  /// Prints notes, metric lines and the final JSON line to stdout.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    bool gated;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace e2e

#endif  // E2EBENCH_UTIL_H_
