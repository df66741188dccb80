// uctr_router — consistent-hash shard router over a pool of
// `uctr_serve --listen` backends.
//
//   uctr_router --listen HOST:PORT --backends HOST:PORT[,HOST:PORT...]
//               [--workers N] [--queue N] [--put-replicas N]
//               [--probe-interval-ms N] [--probe-timeout-ms N]
//               [--timeout-ms N] [--vnodes N]
//               [--metrics] [--trace-out FILE]
//               [--fault-spec SPEC] [--fault-seed N]
//
// Speaks the exact uctr_serve wire protocol (length-prefixed JSON lines,
// per-connection ordered responses), so clients — including uctr_load —
// cannot tell a router from a single backend. Requests route by table
// fingerprint over a consistent-hash ring (see src/net/router.h for the
// routing, failover, replication, and membership rules).
//
// Port 0 binds an ephemeral port; the resolved address is announced on
// stderr as "uctr_router: listening on HOST:PORT" (same contract as
// uctr_serve, so scripts/check.sh reuses its port-scraping). SIGINT /
// SIGTERM drain gracefully: stop accepting, finish every in-flight
// request against the backends, flush every response, then exit. Exit 0
// guarantees every requested byte made it out.
//
// Numeric flags take unsigned decimal values; a malformed one exits 1
// with a message naming the flag, before any thread or socket starts.
//
// --fault-spec arms the injector for the router's own sites
// (router.connect / router.send / router.recv / router.probe) plus the
// shared transport sites (net.accept / net.read / net.write).

#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/flags.h"
#include "fault/fault.h"
#include "net/router.h"
#include "net/server.h"
#include "net/socket_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace uctr;

int Fail(const std::string& message) {
  std::cerr << "uctr_router: " << message << "\n";
  return 1;
}

volatile std::sig_atomic_t g_shutdown_requested = 0;

extern "C" void HandleShutdownSignal(int) { g_shutdown_requested = 1; }

void InstallShutdownHandlers() {
  struct sigaction action = {};
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: the loop tick observes the flag
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

std::string MaybeEnableTracing(const FlagMap& flags) {
  auto it = flags.find("trace-out");
  if (it == flags.end()) return "";
  obs::Tracer::Default().set_enabled(true);
  return it->second;
}

int DumpTrace(const std::string& path) {
  Status s = WriteFileAtomic(path, obs::Tracer::Default().ToLdjson());
  if (!s.ok()) return Fail(s.ToString());
  std::cerr << "wrote " << obs::Tracer::Default().size() << " spans to "
            << path << "\n";
  return 0;
}

Result<std::vector<net::HostPort>> ParseBackends(const std::string& list) {
  std::vector<net::HostPort> backends;
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    std::string piece = list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!piece.empty()) {
      auto hp = net::ParseHostPort(piece);
      if (!hp.ok()) return hp.status();
      if (hp->port == 0) {
        return Status::InvalidArgument("backend '" + piece +
                                       "' needs an explicit port");
      }
      backends.push_back(*hp);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (backends.empty()) {
    return Status::InvalidArgument(
        "--backends needs at least one HOST:PORT");
  }
  return backends;
}

int Run(const FlagMap& flags) {
  auto listen_it = flags.find("listen");
  if (listen_it == flags.end()) {
    return Fail("--listen HOST:PORT is required");
  }
  auto backends_it = flags.find("backends");
  if (backends_it == flags.end()) {
    return Fail("--backends HOST:PORT[,HOST:PORT...] is required");
  }
  auto listen = net::ParseHostPort(listen_it->second);
  if (!listen.ok()) return Fail(listen.status().ToString());
  auto backends = ParseBackends(backends_it->second);
  if (!backends.ok()) return Fail(backends.status().ToString());

  net::RouterConfig router_config;
  router_config.backends = std::move(*backends);
  FlagReader reader(flags);
  router_config.workers = reader.Unsigned("workers", 64, kMaxThreadsFlag);
  router_config.queue_capacity = reader.Unsigned("queue", 8192);
  router_config.vnodes = reader.Unsigned("vnodes", 64);
  // Durability fan-out: each acked put_table also lands on N-1 ring
  // successors (see router.h; replica failures are counted, not fatal).
  router_config.put_replicas = reader.Unsigned("put-replicas", 1);
  router_config.probe_interval_ms = reader.Int("probe-interval-ms", 100);
  router_config.probe_timeout_ms = reader.Int("probe-timeout-ms", 500);
  router_config.call_timeout_ms = reader.Int("timeout-ms", 30000);
  if (!reader.status().ok()) return Fail(reader.status().ToString());

  std::string trace_path = MaybeEnableTracing(flags);
  net::Router router(router_config);
  if (Status s = router.Start(); !s.ok()) return Fail(s.ToString());
  std::cerr << "uctr_router: ring of " << router.backend_count()
            << " backends, " << router.backends_in_ring()
            << " reachable\n";

  InstallShutdownHandlers();

  net::NetServerConfig net_config;
  net_config.host = listen->host;
  net_config.port = listen->port;
  net::Server net_server(&router, net_config);
  if (Status s = net_server.Start(); !s.ok()) {
    return Fail(s.ToString());  // bind/listen failure: nonzero exit
  }
  net_server.set_shutdown_flag(&g_shutdown_requested);
  // Announced on stderr so scripts can recover an ephemeral port (same
  // format as uctr_serve).
  std::cerr << "uctr_router: listening on " << listen->host << ":"
            << net_server.port() << "\n";
  net_server.Run();
  router.Drain();
  router.Shutdown();
  std::cerr << "uctr_router: drained, shutting down\n";

  if (flags.count("metrics") != 0) {
    std::cerr << obs::DefaultRegistry().ExpositionText();
    std::cerr.flush();
    if (!std::cerr) return 1;
  }
  if (!trace_path.empty()) return DumpTrace(trace_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = ParseFlags(argc, argv, 1);
  if (!flags.ok()) return Fail(flags.status().ToString());
  if (Status s = fault::ArmFromFlags(*flags); !s.ok()) {
    return Fail(s.ToString());
  }
  return Run(*flags);
}
