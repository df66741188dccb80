#ifndef UCTR_NET_ROUTER_H_
#define UCTR_NET_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "fault/policy.h"
#include "net/client.h"
#include "net/socket_util.h"
#include "obs/metrics.h"
#include "serve/backend.h"

namespace uctr::net {

/// \brief A consistent-hash ring over a fixed set of backends.
///
/// Each backend owns `vnodes` points on a 64-bit ring, placed by hashing
/// "host:port#k" — so a backend's ring position depends only on its
/// endpoint, not on its position in the configuration list, and adding or
/// removing one backend remaps only the keys it owned (1/N of the space)
/// instead of reshuffling everything the way `hash % N` would.
///
/// Membership changes do not rebuild the ring: Preference() returns the
/// full succession order and the caller skips ineligible backends, which
/// is also what gives failover its shape — the sibling that takes over a
/// downed shard's keys is exactly the next backend in ring order, the
/// same one a re-put of those tables would land on.
class ConsistentRing {
 public:
  ConsistentRing(const std::vector<std::string>& backend_labels,
                 size_t vnodes);

  /// \brief Distinct backend indices in ring-successor order starting at
  /// `key`'s hash. The first entry is the key's owner; the rest are its
  /// failover siblings (and hedged-replica targets), in order.
  std::vector<uint32_t> Preference(std::string_view key) const;

  /// \brief 64-bit FNV-1a (the repo's standard content hash family).
  static uint64_t Hash(std::string_view text);

  size_t backend_count() const { return backend_count_; }

 private:
  std::vector<std::pair<uint64_t, uint32_t>> ring_;  // sorted by hash
  size_t backend_count_;
};

/// \brief Retry shape tuned for routing: more, faster attempts than the
/// serving default, because each failure usually means "try the next
/// shard", not "wait for this one to heal".
inline fault::RetryOptions DefaultRouterRetry() {
  fault::RetryOptions retry;
  retry.max_attempts = 6;
  retry.initial_backoff_ms = 5.0;
  retry.backoff_multiplier = 2.0;
  retry.max_backoff_ms = 100.0;
  retry.backoff_budget_ms = 2000.0;
  return retry;
}

/// \brief Shard-router knobs.
struct RouterConfig {
  /// The backend pool (uctr_serve --listen endpoints). Fixed for the
  /// router's lifetime; the health probe toggles members in and out of
  /// the ring, it does not add or remove them.
  std::vector<HostPort> backends;

  /// Forwarding threads. Each in-flight routed request occupies one
  /// worker for its backend round-trip, so this bounds the router's
  /// outstanding concurrency — size it at least at the pool's total
  /// worker count times the queueing you want per backend.
  size_t workers = 64;
  /// Requests queued for a forwarding worker; above this SubmitLine
  /// answers "rejected" (backpressure, like the serving scheduler).
  size_t queue_capacity = 8192;

  size_t vnodes = 64;           ///< Ring points per backend.
  int call_timeout_ms = 30000;  ///< Per-attempt send+recv budget.

  /// Hedged replica fan-out width for hot keys: a key seen more than
  /// `hot_threshold` times inside `hot_window_ms` is sent to this many
  /// ring-successive backends at once, first complete response wins, the
  /// duplicate is suppressed. 1 disables hedging.
  size_t replicas = 1;
  uint64_t hot_threshold = 64;
  int hot_window_ms = 1000;

  /// Durability fan-out for `put_table`: after the ring owner acks, the
  /// same registration is forwarded to this many minus one ring
  /// successors, so a table survives its owner's crash without waiting
  /// for read-repair. The client ack rides on the owner's response alone;
  /// replica failures are counted (`router_put_replica_failures_total`),
  /// never fatal. 1 disables replication.
  size_t put_replicas = 1;

  /// Membership probe: every `probe_interval_ms` each backend gets an
  /// in-band `{"op":"health"}` on a fresh connection. This many
  /// consecutive failed probes take it out of the ring; one "live"
  /// answer puts it back. A "draining" answer steers new keys away
  /// immediately (without counting as a failure) so a shard that began
  /// graceful shutdown finishes its in-flight work while its keys
  /// migrate to the ring successor.
  int probe_interval_ms = 100;
  int probe_timeout_ms = 500;
  int probe_failures_out = 2;

  /// Idle pooled connections kept per backend; excess check-ins close.
  size_t pool_size = 32;

  /// Transient retry-with-failover shape (src/fault/): each retry
  /// advances to the next eligible backend in ring order.
  fault::RetryOptions retry = DefaultRouterRetry();
  /// Per-backend circuit-breaker shape (breaker name "backend:<label>").
  fault::CircuitBreakerOptions breaker;

  /// Metrics sink; null = the process-wide obs::DefaultRegistry().
  obs::MetricsRegistry* metrics = nullptr;
};

/// \brief The shard router: a serve::LineBackend whose "inference" is
/// forwarding each request to the right member of a replicated
/// `uctr_serve --listen` pool.
///
/// Put net::Server in front of it and the router speaks the exact wire
/// protocol a single backend does — same frames, same per-connection
/// ordered responses, same drain barrier — while fanning the work out:
///
///   - requests route by table fingerprint: `table_ref` hashes the
///     fingerprint itself; inline-CSV requests hash the raw table text;
///     `put_table` hashes the store-codec content fingerprint (computed
///     the same way the backend's registry will), so the registration
///     lands on the shard that later `table_ref` traffic hashes to.
///     Result-cache and table-registry affinity both follow, because
///     both key off the same evidence;
///   - keyless requests (no table) round-robin across the ring;
///   - each backend sits behind its own circuit breaker; transient
///     failures retry with jittered backoff (RouterConfig::retry),
///     advancing to the next ring successor on every attempt — a dead
///     shard's keys fail over to exactly the sibling consistent hashing
///     assigns them to;
///   - a `table_ref`-only request answered "not registered" by its shard
///     (it restarted and lost its registry) fails over to the siblings
///     before giving up, and returns the shard's own error bytes if none
///     of them holds the table;
///   - hot keys (RouterConfig::replicas > 1) are hedged: sent to R ring
///     successors at once, first complete response wins, the loser's
///     duplicate is drained or its connection dropped — never forwarded;
///   - the health probe loop drives ring membership (see RouterConfig).
///
/// Responses are forwarded byte-for-byte: the router adds nothing to a
/// backend answer, so routed responses are identical to direct ones.
/// `health` / `metrics` / `stats` / `ping` are answered by the router
/// itself (the router is the unit being probed or scraped).
///
/// Thread model: SubmitLine parses the request for its routing key on
/// the caller's thread (the transport's event loop) and enqueues; a pool
/// of forwarding workers does the blocking backend round-trips over
/// per-backend pooled clients; `done` fires on the worker (or inline for
/// router-answered ops and rejections). Exactly once, always.
class Router : public serve::LineBackend {
 public:
  explicit Router(RouterConfig config);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// \brief Runs one synchronous probe round (so startup knows which
  /// backends are reachable), then spawns the forwarding workers and the
  /// probe loop. Fails only on an empty backend list.
  Status Start();

  /// \brief Stops the workers and the probe loop after completing every
  /// queued request. Idempotent; the destructor calls it.
  void Shutdown();

  // serve::LineBackend
  void SubmitLine(const std::string& line,
                  std::function<void(std::string)> done) override;
  void Drain() override;
  void set_draining(bool draining) override {
    draining_.store(draining, std::memory_order_relaxed);
  }
  bool draining() const override {
    return draining_.load(std::memory_order_relaxed);
  }

  size_t backend_count() const { return backends_.size(); }
  /// \brief Backends currently eligible for new keys (in ring, not
  /// peer-draining). Loop-free and approximate — probe-driven.
  size_t backends_in_ring() const;

  /// \brief Test hook: run one probe round synchronously right now.
  void ProbeNow();

 private:
  struct BackendState;

  /// What SubmitLine learns about a request (routing key + enough to
  /// answer inline ops and synthesize a last-resort error response).
  struct RouteInfo {
    uint64_t id = 0;
    std::string op;
    std::string key;       ///< Routing key; empty = round-robin.
    bool key_is_put_csv = false;  ///< key holds CSV; fingerprint it in
                                  ///< the worker (puts are rare, the
                                  ///< event loop stays thin).
    bool key_is_put_hex = false;  ///< key holds hex codec bytes; same
                                  ///< deferred fingerprinting.
    bool ref_only = false;  ///< table_ref with no inline fallback.
  };

  struct Job {
    std::string line;
    RouteInfo info;
    std::function<void(std::string)> done;
  };

  RouteInfo AnalyzeRequest(const std::string& line) const;
  void WorkerLoop();
  void HandleJob(Job job);
  /// Forwards an acked put to the next put_replicas-1 ring successors
  /// after `served_by` (best-effort; failures counted, not propagated).
  void ReplicatePut(const std::string& line, BackendState* served_by,
                    const std::vector<uint32_t>& prefer);
  /// Re-plants `key` at the backends that answered "not registered" for
  /// it: fetches the canonical codec bytes (`get_table`) from the sibling
  /// that served the request, then `put_table` `table_hex` to each missed
  /// backend. Runs on the forwarding worker after the client's response
  /// is already delivered; in-flight repairs dedup by fingerprint.
  void ReadRepair(const std::string& key, BackendState* source,
                  const std::vector<BackendState*>& targets);
  /// One forwarding attempt against one backend (breaker-gated).
  Status CallOne(BackendState* backend, const std::string& line,
                 std::string* response);
  /// Hedged attempt: both legs sent, first complete frame wins.
  Status CallHedged(BackendState* primary, BackendState* hedge,
                    const std::string& line, std::string* response);
  Result<Client> CheckOut(BackendState* backend);
  void CheckIn(BackendState* backend, Client client);
  bool NoteKeyIsHot(const std::string& key);
  void ProbeLoop();
  void ProbeBackend(BackendState* backend);
  std::vector<uint32_t> KeylessOrder();
  std::string StatsJson() const;

  RouterConfig config_;
  obs::MetricsRegistry* metrics_;
  std::vector<std::unique_ptr<BackendState>> backends_;
  ConsistentRing ring_;
  fault::RetryPolicy retry_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> round_robin_{0};

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable idle_cv_;
  std::deque<Job> queue_;
  size_t in_flight_ = 0;  ///< Submitted (queued or running) jobs.
  std::vector<std::thread> workers_;

  std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  std::thread prober_;

  /// Sliding-window key popularity for hedging (hashes, not strings).
  std::mutex hot_mu_;
  std::unordered_map<uint64_t, uint64_t> hot_counts_;
  std::chrono::steady_clock::time_point hot_window_end_{};

  /// Fingerprints with a read-repair already in flight (dedup: a storm of
  /// ref-misses on one hot table must not fan out N repair round-trips).
  std::mutex repair_mu_;
  std::unordered_set<std::string> repairing_;

  obs::Counter* requests_total_;
  obs::Counter* forwarded_total_;
  obs::Counter* rejected_total_;
  obs::Counter* unrouted_total_;
  obs::Counter* failover_attempts_total_;
  obs::Counter* hedged_total_;
  obs::Counter* hedge_wins_total_;
  obs::Counter* ref_miss_failover_total_;
  obs::Counter* put_replica_total_;
  obs::Counter* put_replica_failures_total_;
  obs::Counter* read_repair_total_;
  obs::Counter* read_repair_failures_total_;
  obs::Counter* backend_removed_total_;
  obs::Counter* backend_rejoined_total_;
  obs::Counter* conns_created_total_;
  obs::Histogram* forward_us_;
};

}  // namespace uctr::net

#endif  // UCTR_NET_ROUTER_H_
