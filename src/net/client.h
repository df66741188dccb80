#ifndef UCTR_NET_CLIENT_H_
#define UCTR_NET_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "net/frame.h"

namespace uctr::net {

/// \brief A blocking client for the UCTR wire protocol (net/frame.h):
/// connect, send framed request payloads, receive framed responses.
///
/// Send and Recv are independent, so callers may pipeline: send many
/// requests, then collect responses — the server guarantees responses
/// come back in per-connection request order. Call() is the ping-pong
/// convenience for one request at a time.
///
/// Thread safety: none. One Client per thread, or one sender thread plus
/// one receiver thread (Send touches only the fd; Recv touches the fd
/// and the decoder) — that split is what the load generator's open-loop
/// mode uses.
class Client {
 public:
  Client() = default;
  ~Client() { Close(); }

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// \brief Opens a blocking TCP connection (IPv4; `host` may be a name
  /// or dotted quad).
  static Result<Client> Connect(const std::string& host, uint16_t port,
                                size_t max_frame_bytes =
                                    kDefaultMaxFrameBytes);

  bool connected() const { return fd_ >= 0; }

  /// \brief Frames and writes one request payload, looping over partial
  /// writes until the whole frame is on the wire.
  Status Send(const std::string& payload);

  /// \brief Blocks until the next complete response frame (or EOF /
  /// error). EOF with no partial frame buffered is kUnavailable
  /// "connection closed"; EOF mid-frame is a ParseError.
  Result<std::string> Recv();

  /// \brief Recv with a poll() timeout; kDeadlineExceeded when no frame
  /// completes in time (already-buffered frames return immediately).
  Result<std::string> RecvTimeout(int timeout_ms);

  /// \brief Send + Recv. Only valid with no other responses in flight.
  Result<std::string> Call(const std::string& payload);

  /// \brief Half-closes the write side (shutdown(SHUT_WR)): tells the
  /// server no more requests are coming while still collecting the
  /// responses it owes.
  void ShutdownWrite();

  void Close();

 private:
  int fd_ = -1;
  FrameDecoder decoder_{kDefaultMaxFrameBytes};
  size_t max_frame_bytes_ = kDefaultMaxFrameBytes;
};

}  // namespace uctr::net

#endif  // UCTR_NET_CLIENT_H_
