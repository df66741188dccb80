#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace e2e {

using uctr::Result;
using uctr::Status;

namespace {

constexpr size_t kMaxFrame = 64u << 20;

/// Request ids are unique over the whole run, across phases.
uint64_t next_id = 1;

/// The request id a response carries (responses begin {"id":N,...}).
uint64_t ResponseId(const std::string& response) {
  size_t pos = response.find("\"id\":");
  if (pos == std::string::npos) return 0;
  return std::strtoull(response.c_str() + pos + 5, nullptr, 10);
}

struct Pending {
  uint64_t id;
  size_t tag;
  Clock::time_point t0;  ///< send time (closed) or due time (open)
};

/// Reads every frame that has arrived on the readable connections and
/// checks it against the oldest outstanding request of that connection:
/// responses come back in request order per connection, so an id
/// mismatch is a reordering.
void Collect(std::vector<Conn>* conns, std::vector<std::deque<Pending>>* out,
             int64_t timeout_us, Source* source, PhaseStats* stats) {
  std::vector<pollfd> fds;
  for (Conn& c : *conns) fds.push_back({c.fd(), POLLIN, 0});
  timespec ts{static_cast<time_t>(timeout_us / 1000000),
              static_cast<long>(timeout_us % 1000000) * 1000};
  int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready <= 0) return;
  for (size_t i = 0; i < conns->size(); ++i) {
    if (fds[i].revents == 0) continue;
    Conn& conn = (*conns)[i];
    if (!conn.ReadSome().ok()) continue;  // counted as lost at the end
    std::string frame;
    while (conn.Pop(&frame)) {
      auto now = Clock::now();
      std::deque<Pending>& q = (*out)[i];
      if (q.empty()) {
        ++stats->failed;  // a response nobody asked for
        continue;
      }
      Pending p = q.front();
      q.pop_front();
      double ms = MicrosBetween(p.t0, now) / 1000.0;
      if (ResponseId(frame) != p.id || !source->check(p.tag, frame, ms)) {
        ++stats->failed;
        continue;
      }
      ++stats->succeeded;
      stats->done_at.push_back(now);
      stats->latency_ms.push_back(ms);
    }
  }
}

void Drain(std::vector<Conn>* conns, std::vector<std::deque<Pending>>* out,
           Source* source, PhaseStats* stats) {
  auto deadline = Clock::now() + std::chrono::seconds(60);
  auto outstanding = [&] {
    size_t n = 0;
    for (const auto& q : *out) n += q.size();
    return n;
  };
  while (outstanding() > 0 && Clock::now() < deadline) {
    Collect(conns, out, 50000, source, stats);
  }
  stats->failed += outstanding();  // lost
}

}  // namespace

Conn::~Conn() {
  if (fd_ >= 0) close(fd_);
}

Conn::Conn(Conn&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)), consumed_(other.consumed_) {
  other.fd_ = -1;
}

Conn& Conn::operator=(Conn&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) close(fd_);
    fd_ = other.fd_;
    buf_ = std::move(other.buf_);
    consumed_ = other.consumed_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Conn> Conn::Dial(int port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket: ") + strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    close(fd);
    return Status::Unavailable("connect :" + std::to_string(port) + ": " +
                           strerror(err));
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Conn c;
  c.fd_ = fd;
  return c;
}

Status Conn::Send(std::string_view payload) {
  uint32_t n = htonl(static_cast<uint32_t>(payload.size()));
  std::string frame(reinterpret_cast<const char*>(&n), 4);
  frame.append(payload);
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t w = send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      return Status::Unavailable(std::string("send: ") + strerror(errno));
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status Conn::ReadSome() {
  char tmp[65536];
  ssize_t r;
  do {
    r = recv(fd_, tmp, sizeof(tmp), 0);
  } while (r < 0 && errno == EINTR);
  if (r == 0) return Status::Unavailable("connection closed");
  if (r < 0) {
    return Status::Unavailable(std::string("recv: ") + strerror(errno));
  }
  if (consumed_ > 0 && consumed_ * 2 > buf_.size()) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
  buf_.append(tmp, static_cast<size_t>(r));
  return Status::OK();
}

bool Conn::Pop(std::string* payload) {
  if (buf_.size() - consumed_ < 4) return false;
  uint32_t n;
  std::memcpy(&n, buf_.data() + consumed_, 4);
  n = ntohl(n);
  if (n > kMaxFrame || buf_.size() - consumed_ - 4 < n) return false;
  payload->assign(buf_, consumed_ + 4, n);
  consumed_ += 4 + n;
  return true;
}

Result<std::string> Conn::Call(std::string_view payload, double timeout_s) {
  UCTR_RETURN_NOT_OK(Send(payload));
  auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  std::string out;
  while (!Pop(&out)) {
    int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count());
    if (left <= 0) return Status::DeadlineExceeded("no response");
    pollfd p{fd_, POLLIN, 0};
    if (poll(&p, 1, left) > 0) UCTR_RETURN_NOT_OK(ReadSome());
  }
  return out;
}

PhaseStats RunClosed(std::vector<Conn>* conns, size_t depth, uint64_t requests,
                     double max_seconds, Source* source) {
  PhaseStats stats;
  std::vector<std::deque<Pending>> out(conns->size());
  auto start = Clock::now();
  auto give_up = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(max_seconds));
  while (stats.sent < requests && Clock::now() < give_up &&
         !source->exhausted()) {
    for (size_t i = 0; i < conns->size(); ++i) {
      while (out[i].size() < depth && stats.sent < requests) {
        std::string payload;
        size_t tag = 0;
        uint64_t id = next_id;
        if (!source->next(id, &payload, &tag)) break;
        ++next_id;
        auto t0 = Clock::now();
        ++stats.sent;
        if (!(*conns)[i].Send(payload).ok()) {
          ++stats.failed;
          break;
        }
        out[i].push_back({id, tag, t0});
      }
    }
    Collect(conns, &out, 5000, source, &stats);
  }
  Drain(conns, &out, source, &stats);
  const std::vector<Clock::time_point>& done = stats.done_at;
  if (done.empty()) return stats;
  stats.seconds = SecondsBetween(start, done.back());
  size_t slices = std::min<size_t>(kRateWindows, done.size());
  for (size_t k = 0; k < slices; ++k) {
    size_t begin = done.size() * k / slices;
    size_t end = done.size() * (k + 1) / slices;
    double secs = SecondsBetween(begin == 0 ? start : done[begin - 1],
                                 done[end - 1]);
    if (secs > 0) stats.window_rates.push_back((end - begin) / secs);
  }
  return stats;
}

PhaseStats RunOpen(std::vector<Conn>* conns, double rate, size_t count,
                   Source* source) {
  PhaseStats stats;
  std::vector<std::deque<Pending>> out(conns->size());
  auto start = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / rate));
  };
  size_t i = 0;
  // A stream that runs dry, or a run this far behind schedule, ends the
  // phase; the unsent requests count as failed.
  auto give_up = due(count) + std::chrono::seconds(30);
  while (i < count) {
    auto now = Clock::now();
    if (source->exhausted() || now > give_up) {
      stats.failed += count - i;
      break;
    }
    while (i < count && due(i) <= now) {
      size_t c = i % conns->size();
      std::string payload;
      size_t tag = 0;
      uint64_t id = next_id;
      if (!source->next(id, &payload, &tag)) break;  // retried next pass
      ++next_id;
      auto sent_at = Clock::now();
      stats.late_ms.push_back(MicrosBetween(due(i), sent_at) / 1000.0);
      ++stats.sent;
      if ((*conns)[c].Send(payload).ok()) {
        out[c].push_back({id, tag, due(i)});
      } else {
        ++stats.failed;
      }
      ++i;
    }
    int64_t wait_us = 0;
    if (i < count) {
      wait_us = std::chrono::duration_cast<std::chrono::microseconds>(
                    due(i) - Clock::now())
                    .count();
      wait_us = std::max<int64_t>(0, wait_us);
    }
    Collect(conns, &out, wait_us, source, &stats);
  }
  auto last_due = due(count);
  Drain(conns, &out, source, &stats);
  stats.seconds = SecondsBetween(start, last_due);
  return stats;
}

}  // namespace e2e
