// The load generator's side of the wire: a length-prefixed frame client
// written against the documented protocol (4-byte big-endian length + JSON
// payload) and the closed- and open-loop phase drivers. It deliberately
// does not reuse the program's net::Client, so a change to the program's
// networking code cannot change how the benchmark measures it.
#ifndef E2EBENCH_WIRE_H_
#define E2EBENCH_WIRE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "util.h"

namespace e2e {

class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(Conn&& other) noexcept;
  Conn& operator=(Conn&& other) noexcept;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  static uctr::Result<Conn> Dial(int port);

  uctr::Status Send(std::string_view payload);
  /// One recv() into the frame buffer; fails on EOF or error.
  uctr::Status ReadSome();
  /// Pops the next complete frame's payload, if any.
  bool Pop(std::string* payload);
  /// Send + wait for the next response frame.
  uctr::Result<std::string> Call(std::string_view payload,
                                 double timeout_s = 30.0);

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buf_;
  size_t consumed_ = 0;
};

/// Where a phase's requests come from and where its responses go.
struct Source {
  /// Writes the JSON request with id `id`; `tag` identifies it to `check`.
  /// Returns false when no request can be sent yet (an ingest read whose
  /// table's put is not acknowledged); the loop retries later.
  std::function<bool(uint64_t id, std::string* payload, size_t* tag)> next;
  /// True once the stream has no requests left: a phase stops sending.
  std::function<bool()> exhausted;
  /// Checks one response; false counts the request as failed.
  std::function<bool(size_t tag, const std::string& response,
                     double latency_ms)>
      check;
};

inline constexpr size_t kRateWindows = 8;

struct PhaseStats {
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;       ///< error/wrong/reordered/lost responses
  double seconds = 0.0;      ///< start to last completion (closed loop)
  /// Closed loop: successes per second in each of kRateWindows slices of
  /// equally many completions. Their median is the phase's throughput, so
  /// a stall of the shared machine in one slice does not set the figure.
  std::vector<double> window_rates;
  std::vector<Clock::time_point> done_at;  ///< completion times, in order
  std::vector<double> latency_ms;  ///< successful requests only
  std::vector<double> late_ms;     ///< open loop: send time minus due time
};

/// Sends `requests` requests (giving up after `max_seconds`), keeping
/// `depth` outstanding on every connection, then drains. Latency is timed
/// from the send. A fixed count keeps the work, and so the set of tables
/// and answers, the same on every run.
PhaseStats RunClosed(std::vector<Conn>* conns, size_t depth, uint64_t requests,
                     double max_seconds, Source* source);

/// Sends `count` requests at `rate` per second, spread evenly over time and
/// round-robin over the connections, regardless of responses. Latency is
/// timed from each request's due time, so a stall delays every request
/// due behind it.
PhaseStats RunOpen(std::vector<Conn>* conns, double rate, size_t count,
                   Source* source);

}  // namespace e2e

#endif  // E2EBENCH_WIRE_H_
