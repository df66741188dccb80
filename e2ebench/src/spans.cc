#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/json.h"

namespace e2e {

SpanLog::Scope::Scope(SpanLog* log, const char* name, uint64_t request)
    : log_(log) {
  if (!log_->enabled_) return;
  SpanRecord r;
  r.name = name;
  r.request = request;
  r.parent = log_->open_.empty() ? -1 : log_->open_.back();
  index_ = static_cast<int64_t>(log_->spans_.size());
  log_->spans_.push_back(std::move(r));
  log_->open_.push_back(index_);
  log_->spans_[index_].start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           log_->epoch_)
          .count();
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  log_->spans_[index_].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           log_->epoch_)
          .count();
  log_->open_.pop_back();
}

std::vector<double> SpanLog::SelfMicros() const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) children[spans_[i].parent].push_back(i);
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    // Children of one span never overlap in this single-threaded replay,
    // but merge intervals anyway so the rule holds for any span tree.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t c : children[i]) {
      iv.push_back({std::max(spans_[c].start_ns, spans_[i].start_ns),
                    std::min(spans_[c].end_ns, spans_[i].end_ns)});
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_start = 0, cur_end = -1;
    for (auto [s, e] : iv) {
      if (e <= s) continue;
      if (s > cur_end) {
        if (cur_end > cur_start) covered += cur_end - cur_start;
        cur_start = s;
        cur_end = e;
      } else {
        cur_end = std::max(cur_end, e);
      }
    }
    if (cur_end > cur_start) covered += cur_end - cur_start;
    self[i] = (spans_[i].end_ns - spans_[i].start_ns - covered) / 1000.0;
  }
  return self;
}

std::map<std::string, double> SpanLog::RequestMicros(uint64_t request) const {
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans_) {
    if (s.request == request) out[s.name] += s.micros();
  }
  return out;
}

uctr::Status SpanLog::WriteLdjson(const std::string& path) const {
  std::ofstream out(path);
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  ",\"id\":%zu,\"parent\":%lld,\"request\":%llu,"
                  "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                  i, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    out << "{\"name\":" << uctr::json::Quote(s.name) << buf;
  }
  out.flush();
  if (!out) return uctr::Status::Unavailable("cannot write " + path);
  return uctr::Status::OK();
}

}  // namespace e2e
