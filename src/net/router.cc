#include "net/router.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "common/hash.h"
#include "common/json.h"
#include "fault/fault.h"
#include "store/codec.h"
#include "store/columnar.h"
#include "table/table.h"

namespace uctr::net {

namespace {

std::string ErrorLine(uint64_t id, const std::string& status,
                      const std::string& message) {
  return "{\"id\":" + std::to_string(id) +
         ",\"status\":" + json::Quote(status) +
         ",\"error\":" + json::Quote(message) + "}";
}

/// The registry answers a ref-only request it cannot resolve with
/// serve::ResponseLine(id, "error", ..., "table_ref '<ref>' is not
/// registered and the request has no inline table"). That error is
/// shard-local state, not a property of the request: a sibling may hold
/// the table (membership changed between the put and this get), so the
/// router treats it as an invitation to fail over rather than a final
/// answer.
bool IsRefMissResponse(const std::string& response) {
  return response.find("\"status\":\"error\"") != std::string::npos &&
         response.find("' is not registered") != std::string::npos;
}

}  // namespace

// ---------------------------------------------------------------------------
// ConsistentRing

uint64_t ConsistentRing::Hash(std::string_view text) {
  // Raw FNV-1a clusters for near-identical inputs (vnode labels differ only
  // in a short numeric suffix), which skews ring ownership badly at 64
  // vnodes. A final avalanche mix spreads those neighboring hashes across
  // the whole ring.
  return Mix64(Fnv1a64(text, kContentHashSeed));
}

ConsistentRing::ConsistentRing(const std::vector<std::string>& backend_labels,
                               size_t vnodes)
    : backend_count_(backend_labels.size()) {
  vnodes = std::max<size_t>(vnodes, 1);
  ring_.reserve(backend_labels.size() * vnodes);
  for (uint32_t b = 0; b < backend_labels.size(); ++b) {
    for (size_t v = 0; v < vnodes; ++v) {
      ring_.emplace_back(
          Hash(backend_labels[b] + "#" + std::to_string(v)), b);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::vector<uint32_t> ConsistentRing::Preference(std::string_view key) const {
  std::vector<uint32_t> order;
  order.reserve(backend_count_);
  if (ring_.empty()) return order;
  uint64_t h = Hash(key);
  size_t start = std::lower_bound(ring_.begin(), ring_.end(),
                                  std::make_pair(h, uint32_t{0})) -
                 ring_.begin();
  std::vector<bool> seen(backend_count_, false);
  for (size_t i = 0; i < ring_.size() && order.size() < backend_count_; ++i) {
    uint32_t b = ring_[(start + i) % ring_.size()].second;
    if (!seen[b]) {
      seen[b] = true;
      order.push_back(b);
    }
  }
  return order;
}

// ---------------------------------------------------------------------------
// Router

struct Router::BackendState {
  HostPort endpoint;
  std::string label;  // "host:port"
  fault::CircuitBreaker breaker;
  std::atomic<bool> in_ring{true};
  std::atomic<bool> peer_draining{false};
  std::atomic<int> probe_failures{0};
  std::mutex pool_mu;
  std::vector<Client> pool;  // idle connections, zero frames pending

  BackendState(HostPort ep, fault::CircuitBreakerOptions breaker_options,
               obs::MetricsRegistry* metrics)
      : endpoint(ep),
        label(ep.host + ":" + std::to_string(ep.port)),
        breaker("backend:" + ep.host + ":" + std::to_string(ep.port),
                breaker_options, metrics) {}
};

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : &obs::DefaultRegistry()),
      ring_(
          [&] {
            std::vector<std::string> labels;
            labels.reserve(config_.backends.size());
            for (const HostPort& ep : config_.backends) {
              labels.push_back(ep.host + ":" + std::to_string(ep.port));
            }
            return labels;
          }(),
          config_.vnodes),
      retry_(config_.retry, 0x5EEDULL, metrics_) {
  config_.workers = std::max<size_t>(config_.workers, 1);
  config_.queue_capacity = std::max<size_t>(config_.queue_capacity, 1);
  config_.replicas = std::max<size_t>(config_.replicas, 1);
  config_.put_replicas = std::max<size_t>(config_.put_replicas, 1);
  for (const HostPort& ep : config_.backends) {
    backends_.push_back(
        std::make_unique<BackendState>(ep, config_.breaker, metrics_));
  }
  requests_total_ = metrics_->counter("router_requests_total");
  forwarded_total_ = metrics_->counter("router_forwarded_total");
  rejected_total_ = metrics_->counter("router_rejected_total");
  unrouted_total_ = metrics_->counter("router_unrouted_total");
  failover_attempts_total_ =
      metrics_->counter("router_failover_attempts_total");
  hedged_total_ = metrics_->counter("router_hedged_total");
  hedge_wins_total_ = metrics_->counter("router_hedge_wins_total");
  ref_miss_failover_total_ =
      metrics_->counter("router_ref_miss_failover_total");
  put_replica_total_ = metrics_->counter("router_put_replica_total");
  put_replica_failures_total_ =
      metrics_->counter("router_put_replica_failures_total");
  read_repair_total_ = metrics_->counter("router_read_repair_total");
  read_repair_failures_total_ =
      metrics_->counter("router_read_repair_failures_total");
  backend_removed_total_ = metrics_->counter("router_backend_removed_total");
  backend_rejoined_total_ =
      metrics_->counter("router_backend_rejoined_total");
  conns_created_total_ = metrics_->counter("router_conns_created_total");
  forward_us_ = metrics_->histogram("router_forward_us");
}

Router::~Router() { Shutdown(); }

Status Router::Start() {
  if (backends_.empty()) {
    return Status::InvalidArgument("router needs at least one backend");
  }
  // Synchronous first round: requests arriving right after Start() route
  // around backends that are already down instead of burning retry budget
  // discovering it.
  ProbeNow();
  workers_.reserve(config_.workers);
  for (size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  prober_ = std::thread([this] { ProbeLoop(); });
  return Status::OK();
}

void Router::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_.exchange(true)) return;
  }
  queue_cv_.notify_all();
  probe_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (prober_.joinable()) prober_.join();
  for (auto& b : backends_) {
    std::lock_guard<std::mutex> lock(b->pool_mu);
    b->pool.clear();
  }
}

size_t Router::backends_in_ring() const {
  size_t n = 0;
  for (const auto& b : backends_) {
    if (b->in_ring.load(std::memory_order_relaxed) &&
        !b->peer_draining.load(std::memory_order_relaxed)) {
      ++n;
    }
  }
  return n;
}

Router::RouteInfo Router::AnalyzeRequest(const std::string& line) const {
  RouteInfo info;
  auto parsed = json::Parse(line);
  if (!parsed.ok() || !parsed->is_object()) {
    // Malformed requests forward round-robin: the shard produces the
    // canonical error bytes, keeping routed responses byte-identical to
    // direct ones even for garbage input.
    return info;
  }
  const json::Value::Object& obj = parsed->as_object();
  double id = json::GetNumberOr(obj, "id", 0);
  if (id > 0) info.id = static_cast<uint64_t>(id);
  info.op = json::GetStringOr(obj, "op", "");
  std::string ref = json::GetStringOr(obj, "table_ref", "");
  auto csv = json::GetString(obj, "table");
  if (!ref.empty()) {
    // The ref string IS the content fingerprint; hash it directly.
    info.key = std::move(ref);
    info.ref_only = !csv.ok();
  } else if (csv.ok()) {
    if (info.op == "put_table") {
      // Needs the store-codec fingerprint (so the registration lands
      // where table_ref traffic will look for it); computed on a worker.
      info.key = std::move(*csv);
      info.key_is_put_csv = true;
    } else {
      // Inline table: affinity only needs consistency, so the raw CSV
      // text is key enough — same text, same shard, warm caches.
      info.key = std::move(*csv);
    }
  } else if (info.op == "put_table") {
    // Codec-bytes registration (the read-repair delivery format): route
    // by the bytes' content fingerprint, derived on a worker.
    std::string hex = json::GetStringOr(obj, "table_hex", "");
    if (!hex.empty()) {
      info.key = std::move(hex);
      info.key_is_put_hex = true;
    }
  }
  return info;
}

void Router::SubmitLine(const std::string& line,
                        std::function<void(std::string)> done) {
  requests_total_->Increment();
  RouteInfo info = AnalyzeRequest(line);

  // Ops that interrogate *this* process are answered here: a prober or
  // scraper pointed at the router wants the router's state, not some
  // shard's.
  if (info.op == "health") {
    done("{\"id\":" + std::to_string(info.id) + ",\"status\":\"ok\"" +
         ",\"health\":" + (draining() ? "\"draining\"" : "\"live\"") +
         ",\"role\":\"router\"" +
         ",\"backends\":" + std::to_string(backends_.size()) +
         ",\"in_ring\":" + std::to_string(backends_in_ring()) + "}");
    return;
  }
  if (info.op == "ping") {
    done("{\"id\":" + std::to_string(info.id) + ",\"status\":\"ok\"}");
    return;
  }
  if (info.op == "metrics") {
    done("{\"id\":" + std::to_string(info.id) +
         ",\"status\":\"ok\",\"metrics\":" +
         json::Quote(metrics_->ExpositionText()) + "}");
    return;
  }
  if (info.op == "stats") {
    done("{\"id\":" + std::to_string(info.id) +
         ",\"status\":\"ok\",\"stats\":" + StatsJson() + "}");
    return;
  }

  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      lock.unlock();
      rejected_total_->Increment();
      done(ErrorLine(info.id, "rejected", "router shut down"));
      return;
    }
    if (queue_.size() >= config_.queue_capacity) {
      lock.unlock();
      rejected_total_->Increment();
      done(ErrorLine(info.id, "rejected",
                     "router queue full (" +
                         std::to_string(config_.queue_capacity) +
                         " pending)"));
      return;
    }
    ++in_flight_;
    // The wrapper keeps the drain barrier exact: in_flight_ covers a job
    // from submission until its done callback has fully run.
    auto wrapped = [this, done = std::move(done)](std::string response) {
      done(std::move(response));
      std::lock_guard<std::mutex> inner(queue_mu_);
      --in_flight_;
      if (in_flight_ == 0) idle_cv_.notify_all();
    };
    queue_.push_back(Job{line, std::move(info), std::move(wrapped)});
  }
  queue_cv_.notify_one();
}

void Router::Drain() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void Router::WorkerLoop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      // Even when stopping, queued jobs are completed (their done must
      // fire exactly once); workers exit only on an empty queue.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    HandleJob(std::move(job));
  }
}

std::vector<uint32_t> Router::KeylessOrder() {
  uint64_t start = round_robin_.fetch_add(1, std::memory_order_relaxed);
  std::vector<uint32_t> order(backends_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>((start + i) % backends_.size());
  }
  return order;
}

bool Router::NoteKeyIsHot(const std::string& key) {
  uint64_t h = ConsistentRing::Hash(key);
  auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(hot_mu_);
  if (now >= hot_window_end_) {
    hot_counts_.clear();
    hot_window_end_ =
        now + std::chrono::milliseconds(config_.hot_window_ms);
  }
  // Defensive bound: a hostile key stream must not grow this map without
  // limit inside one window.
  if (hot_counts_.size() > 65536) hot_counts_.clear();
  return ++hot_counts_[h] > config_.hot_threshold;
}

void Router::HandleJob(Job job) {
  auto started = std::chrono::steady_clock::now();
  RouteInfo& info = job.info;
  if (info.key_is_put_csv) {
    // Mirror the backend registry's content-fingerprint derivation
    // (store/registry.cc: FromCsv -> FromTable -> Encode -> Fingerprint)
    // so this put lands on the shard later table_ref traffic hashes to.
    auto table = Table::FromCsv(info.key);
    if (table.ok()) {
      info.key = store::Codec::Fingerprint(
          store::Codec::Encode(store::ColumnarTable::FromTable(*table)));
    }
    // Unparseable CSV keeps the raw text as key; the shard will produce
    // the canonical parse error.
  }
  if (info.key_is_put_hex) {
    // table_hex already wraps canonical codec bytes; their fingerprint
    // is the registration's content address.
    auto bytes = store::Codec::FromHex(info.key);
    if (bytes.ok()) info.key = store::Codec::Fingerprint(*bytes);
    // Undecodable hex keeps the raw text as key; the shard answers.
  }

  bool hot = !info.key.empty() && config_.replicas > 1 &&
             NoteKeyIsHot(info.key);
  std::vector<uint32_t> prefer =
      info.key.empty() ? KeylessOrder() : ring_.Preference(info.key);

  size_t attempt = 0;
  std::string response;
  std::string ref_miss_response;
  BackendState* served_by = nullptr;
  std::vector<BackendState*> ref_missed;
  Status final_status = retry_.Run("router.forward", [&]() -> Status {
    // Eligibility is evaluated per attempt, not once per request: the
    // probe may flip membership while we back off, and that is the
    // point — the next attempt should see it.
    std::vector<BackendState*> eligible;
    for (uint32_t idx : prefer) {
      BackendState* b = backends_[idx].get();
      if (b->in_ring.load(std::memory_order_relaxed) &&
          !b->peer_draining.load(std::memory_order_relaxed)) {
        eligible.push_back(b);
      }
    }
    if (eligible.empty()) {
      // Nothing looks healthy. Probe state can be stale (a backend that
      // just restarted is "out" until its next probe), so try everyone
      // in preference order rather than failing without an attempt.
      for (uint32_t idx : prefer) eligible.push_back(backends_[idx].get());
    }
    if (attempt > 0) failover_attempts_total_->Increment();
    BackendState* primary = eligible[attempt % eligible.size()];
    BackendState* hedge = nullptr;
    if (hot && attempt == 0 && eligible.size() > 1) hedge = eligible[1];
    ++attempt;

    Status s = hedge != nullptr
                   ? CallHedged(primary, hedge, job.line, &response)
                   : CallOne(primary, job.line, &response);
    if (!s.ok()) return s;
    if (info.ref_only && IsRefMissResponse(response)) {
      ref_miss_failover_total_->Increment();
      // Remember who missed: if a sibling ends up serving this ref, the
      // missed backend lost its registry (restart) and gets the table
      // re-planted by read-repair below.
      if (std::find(ref_missed.begin(), ref_missed.end(), primary) ==
          ref_missed.end()) {
        ref_missed.push_back(primary);
      }
      // Keep the shard's own bytes as the answer of last resort: when no
      // sibling holds the table either, the client sees exactly what a
      // direct backend would have said.
      ref_miss_response = std::move(response);
      response.clear();
      return Status::Unavailable("table_ref not registered at " +
                                 primary->label);
    }
    served_by = primary;
    return Status::OK();
  });

  forward_us_->Observe(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - started)
                           .count());
  if (final_status.ok()) {
    forwarded_total_->Increment();
    const bool acked_put =
        info.op == "put_table" &&
        response.find("\"status\":\"ok\"") != std::string::npos;
    job.done(std::move(response));
    // Durability work happens after the client's ack is delivered — it
    // adds round-trips the caller never waits on.
    if (acked_put && config_.put_replicas > 1 && !info.key.empty()) {
      ReplicatePut(job.line, served_by, prefer);
    }
    if (info.ref_only && !ref_missed.empty() && served_by != nullptr) {
      // A sibling served a ref its ring owner missed: the owner (and any
      // other missed sibling) restarted without this table. Re-plant it.
      ReadRepair(info.key, served_by, ref_missed);
    }
    return;
  }
  if (!ref_miss_response.empty()) {
    forwarded_total_->Increment();
    job.done(std::move(ref_miss_response));
    return;
  }
  unrouted_total_->Increment();
  const char* status_word =
      final_status.code() == StatusCode::kDeadlineExceeded ? "timeout"
                                                           : "unavailable";
  job.done(ErrorLine(info.id, status_word,
                     "router: all backends failed: " +
                         final_status.ToString()));
}

void Router::ReplicatePut(const std::string& line, BackendState* served_by,
                          const std::vector<uint32_t>& prefer) {
  size_t sent = 0;
  for (uint32_t idx : prefer) {
    if (sent + 1 >= config_.put_replicas) break;
    BackendState* replica = backends_[idx].get();
    if (replica == served_by) continue;
    if (!replica->in_ring.load(std::memory_order_relaxed) ||
        replica->peer_draining.load(std::memory_order_relaxed)) {
      continue;
    }
    ++sent;
    std::string response;
    Status s = CallOne(replica, line, &response);
    if (s.ok() &&
        response.find("\"status\":\"ok\"") != std::string::npos) {
      put_replica_total_->Increment();
    } else {
      // Best-effort by design: the owner's WAL already holds the table
      // and the client is already acked; a dead replica just means this
      // copy waits for read-repair instead.
      put_replica_failures_total_->Increment();
    }
  }
}

void Router::ReadRepair(const std::string& key, BackendState* source,
                        const std::vector<BackendState*>& targets) {
  {
    std::lock_guard<std::mutex> lock(repair_mu_);
    if (!repairing_.insert(key).second) return;  // repair already running
  }
  std::string hex;
  {
    std::string response;
    Status s = CallOne(
        source, "{\"op\":\"get_table\",\"table_ref\":" + json::Quote(key) +
                    "}",
        &response);
    if (s.ok()) {
      auto parsed = json::Parse(response);
      if (parsed.ok() && parsed->is_object()) {
        hex = json::GetStringOr(parsed->as_object(), "table_hex", "");
      }
    }
  }
  if (hex.empty()) {
    read_repair_failures_total_->Increment();
  } else {
    const std::string put_line =
        "{\"op\":\"put_table\",\"table_hex\":" + json::Quote(hex) + "}";
    for (BackendState* target : targets) {
      std::string response;
      Status s = CallOne(target, put_line, &response);
      if (s.ok() &&
          response.find("\"status\":\"ok\"") != std::string::npos) {
        read_repair_total_->Increment();
      } else {
        read_repair_failures_total_->Increment();
      }
    }
  }
  // A failed repair unblocks the key so the next ref-miss retries it.
  std::lock_guard<std::mutex> lock(repair_mu_);
  repairing_.erase(key);
}

Result<Client> Router::CheckOut(BackendState* backend) {
  {
    std::lock_guard<std::mutex> lock(backend->pool_mu);
    if (!backend->pool.empty()) {
      Client client = std::move(backend->pool.back());
      backend->pool.pop_back();
      return client;
    }
  }
  Status fault = UCTR_FAULT_POINT("router.connect");
  if (!fault.ok()) return fault;
  auto client = Client::Connect(backend->endpoint.host,
                                backend->endpoint.port);
  if (client.ok()) conns_created_total_->Increment();
  return client;
}

void Router::CheckIn(BackendState* backend, Client client) {
  std::lock_guard<std::mutex> lock(backend->pool_mu);
  if (backend->pool.size() < config_.pool_size) {
    backend->pool.push_back(std::move(client));
  }
  // else: dropped; the Client destructor closes the fd.
}

Status Router::CallOne(BackendState* backend, const std::string& line,
                       std::string* response) {
  if (!backend->breaker.Allow()) {
    return Status::Unavailable("circuit '" + backend->breaker.name() +
                               "' open");
  }
  // From here on the breaker granted the call (possibly the half-open
  // probe token): every path below must Record exactly once.
  auto conn = CheckOut(backend);
  if (!conn.ok()) {
    backend->breaker.RecordFailure();
    return conn.status();
  }
  Client client = std::move(*conn);
  Status s = UCTR_FAULT_POINT("router.send");
  if (s.ok()) s = client.Send(line);
  Result<std::string> got = Status::Unavailable("recv never ran");
  if (s.ok()) {
    s = UCTR_FAULT_POINT("router.recv");
    if (s.ok()) {
      got = client.RecvTimeout(config_.call_timeout_ms);
      s = got.status();
    }
  }
  if (!s.ok()) {
    // A failed exchange may leave a response in flight we will never
    // read; the connection cannot be pooled. Client's destructor closes
    // it.
    backend->breaker.RecordFailure();
    return s;
  }
  backend->breaker.RecordSuccess();
  *response = std::move(*got);
  CheckIn(backend, std::move(client));
  return Status::OK();
}

Status Router::CallHedged(BackendState* primary, BackendState* hedge,
                          const std::string& line, std::string* response) {
  // The hedge leg is opportunistic: any problem setting it up falls back
  // to a plain call on the primary rather than failing the request.
  if (!hedge->breaker.Allow()) return CallOne(primary, line, response);
  auto hedge_conn = CheckOut(hedge);
  if (!hedge_conn.ok()) {
    hedge->breaker.RecordFailure();
    return CallOne(primary, line, response);
  }
  if (!primary->breaker.Allow()) {
    // Pool the untouched hedge connection back; its breaker saw a
    // successful checkout.
    hedge->breaker.RecordSuccess();
    CheckIn(hedge, std::move(*hedge_conn));
    return Status::Unavailable("circuit '" + primary->breaker.name() +
                               "' open");
  }
  auto primary_conn = CheckOut(primary);
  if (!primary_conn.ok()) {
    primary->breaker.RecordFailure();
    hedge->breaker.RecordSuccess();
    CheckIn(hedge, std::move(*hedge_conn));
    return primary_conn.status();
  }

  hedged_total_->Increment();
  struct Leg {
    BackendState* backend;
    Client client;
    bool alive = true;
  };
  Leg legs[2] = {{primary, std::move(*primary_conn)},
                 {hedge, std::move(*hedge_conn)}};
  for (Leg& leg : legs) {
    Status sent = UCTR_FAULT_POINT("router.send");
    if (sent.ok()) sent = leg.client.Send(line);
    if (!sent.ok()) {
      leg.backend->breaker.RecordFailure();
      leg.alive = false;  // client closed when the Leg goes out of scope
    }
  }
  if (!legs[0].alive && !legs[1].alive) {
    return Status::Unavailable("hedged send failed on both replicas");
  }

  // First complete frame wins. Poll both fds against one shared deadline;
  // RecvTimeout(0) on a readable fd makes progress without blocking
  // (kDeadlineExceeded there just means "frame still incomplete").
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(config_.call_timeout_ms);
  int winner = -1;
  Result<std::string> got = Status::Unavailable("hedged recv never ran");
  while (winner < 0) {
    auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    int left_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1);
    struct pollfd pfds[2];
    int map[2] = {-1, -1};
    nfds_t n = 0;
    for (int i = 0; i < 2; ++i) {
      if (!legs[i].alive) continue;
      pfds[n].fd = legs[i].client.fd();
      pfds[n].events = POLLIN;
      pfds[n].revents = 0;
      map[n] = i;
      ++n;
    }
    if (n == 0) break;
    int ready = ::poll(pfds, n, left_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) break;  // deadline
    for (nfds_t p = 0; p < n && winner < 0; ++p) {
      if (pfds[p].revents == 0) continue;
      int i = map[p];
      auto r = legs[i].client.RecvTimeout(0);
      if (r.ok()) {
        winner = i;
        got = std::move(r);
      } else if (r.status().code() != StatusCode::kDeadlineExceeded) {
        legs[i].backend->breaker.RecordFailure();
        legs[i].alive = false;
      }
    }
    if (!legs[0].alive && !legs[1].alive) break;
  }

  if (winner < 0) {
    for (Leg& leg : legs) {
      if (leg.alive) leg.backend->breaker.RecordFailure();
    }
    return Status::DeadlineExceeded("hedged call timed out on " +
                                    primary->label + " and " + hedge->label);
  }

  hedge_wins_total_->Increment();
  legs[winner].backend->breaker.RecordSuccess();
  CheckIn(legs[winner].backend, std::move(legs[winner].client));
  int loser = 1 - winner;
  if (legs[loser].alive) {
    // Suppress the duplicate: if the loser's response already arrived,
    // drain it and pool the connection; otherwise drop the connection —
    // a client with an unread frame in flight must never be pooled.
    auto dup = legs[loser].client.RecvTimeout(0);
    legs[loser].backend->breaker.RecordSuccess();
    if (dup.ok()) CheckIn(legs[loser].backend, std::move(legs[loser].client));
  }
  *response = std::move(*got);
  return Status::OK();
}

void Router::ProbeLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock<std::mutex> lock(probe_mu_);
      probe_cv_.wait_for(
          lock, std::chrono::milliseconds(config_.probe_interval_ms),
          [this] { return stopping_.load(std::memory_order_relaxed); });
    }
    if (stopping_.load(std::memory_order_relaxed)) return;
    ProbeNow();
  }
}

void Router::ProbeNow() {
  for (auto& b : backends_) ProbeBackend(b.get());
}

void Router::ProbeBackend(BackendState* backend) {
  // Fresh connection per probe: verifies the whole accept path is alive
  // (a pooled connection can look healthy on a backend that stopped
  // accepting) and keeps probe traffic independent of the data-path pool.
  Result<std::string> resp = Status::Unavailable("probe never ran");
  Status fault = UCTR_FAULT_POINT("router.probe");
  if (!fault.ok()) {
    resp = fault;
  } else {
    auto client =
        Client::Connect(backend->endpoint.host, backend->endpoint.port);
    if (client.ok()) {
      Status sent = client->Send("{\"op\":\"health\"}");
      if (sent.ok()) {
        resp = client->RecvTimeout(config_.probe_timeout_ms);
      } else {
        resp = sent;
      }
    } else {
      resp = client.status();
    }
  }

  bool live = false;
  bool peer_draining = false;
  if (resp.ok()) {
    auto parsed = json::Parse(*resp);
    if (parsed.ok() && parsed->is_object()) {
      std::string phase =
          json::GetStringOr(parsed->as_object(), "health", "");
      live = phase == "live";
      peer_draining = phase == "draining";
    }
  }
  backend->peer_draining.store(peer_draining, std::memory_order_relaxed);
  if (live) {
    backend->probe_failures.store(0, std::memory_order_relaxed);
    if (!backend->in_ring.exchange(true, std::memory_order_relaxed)) {
      backend_rejoined_total_->Increment();
    }
  } else if (peer_draining) {
    // Draining is cooperative, not a failure: the shard is finishing its
    // in-flight work. peer_draining already steers new keys away; when
    // the process exits, probes start failing and take it out for real.
    backend->probe_failures.store(0, std::memory_order_relaxed);
  } else {
    int fails =
        backend->probe_failures.fetch_add(1, std::memory_order_relaxed) + 1;
    if (fails >= config_.probe_failures_out &&
        backend->in_ring.exchange(false, std::memory_order_relaxed)) {
      backend_removed_total_->Increment();
      // The pool may hold connections into the dead process; drop them
      // so a rejoin starts from fresh sockets.
      std::lock_guard<std::mutex> lock(backend->pool_mu);
      backend->pool.clear();
    }
  }
}

std::string Router::StatsJson() const {
  std::string out = "{\"backends\":[";
  for (size_t i = 0; i < backends_.size(); ++i) {
    const BackendState& b = *backends_[i];
    if (i > 0) out += ",";
    out += "{\"endpoint\":" + json::Quote(b.label) +
           ",\"in_ring\":" + std::to_string(
               b.in_ring.load(std::memory_order_relaxed) ? 1 : 0) +
           ",\"draining\":" + std::to_string(
               b.peer_draining.load(std::memory_order_relaxed) ? 1 : 0) +
           "}";
  }
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = queue_.size();
  }
  out += "],\"queue_depth\":" + std::to_string(depth) +
         ",\"workers\":" + std::to_string(config_.workers) +
         ",\"put_replicas\":" + std::to_string(config_.put_replicas) +
         ",\"put_replica_total\":" +
         std::to_string(put_replica_total_->value()) +
         ",\"put_replica_failures_total\":" +
         std::to_string(put_replica_failures_total_->value()) +
         ",\"read_repair_total\":" +
         std::to_string(read_repair_total_->value()) +
         ",\"read_repair_failures_total\":" +
         std::to_string(read_repair_failures_total_->value()) + "}";
  return out;
}

}  // namespace uctr::net
