// In-memory span log of the traced replay: each span has a name, start,
// end, parent and the id of the request it belongs to. Spans are kept in
// memory while the replay runs and written out as ldjson at the end.
#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "util.h"

namespace e2e {

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index into the log, -1 for a root
  uint64_t request = 0;
  double micros() const { return (end_ns - start_ns) / 1000.0; }
};

class SpanLog {
 public:
  /// Closes its span on destruction. A disabled log records nothing and a
  /// scope costs one branch.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int64_t index_ = -1;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of its interval
  /// that its children cover.
  std::vector<double> SelfMicros() const;
  /// Total duration per span name, summed over the spans of one request.
  std::map<std::string, double> RequestMicros(uint64_t request) const;

  uctr::Status WriteLdjson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int64_t> open_;  ///< stack of open span indices
  Clock::time_point epoch_ = Clock::now();
};

}  // namespace e2e

#endif  // E2EBENCH_SPANS_H_
