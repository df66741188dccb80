// Tests of the shard router (src/net/router.h): consistent-ring
// placement, byte-identity of routed responses, per-connection ordering
// through the full TCP front end, put_table fingerprint affinity,
// health-probe-driven membership (a backend killed mid-load fails its
// keys over to the ring sibling, rejoins after restart, and no request
// is lost or answered twice), and hedged replica fan-out with duplicate
// suppression.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "net/client.h"
#include "net/router.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/server.h"

namespace uctr::net {
namespace {

constexpr char kMedalsCsv[] =
    "nation,gold,silver,bronze,total\n"
    "united states,10,12,8,30\n"
    "china,8,6,10,24\n"
    "japan,5,9,4,18\n";

std::string JsonEscapeNewlines(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string VerifyRequest(uint64_t id, const std::string& claim,
                          size_t variant = 0) {
  std::string csv = kMedalsCsv;
  if (variant != 0) csv += "germany," + std::to_string(variant) + ",1,1,9\n";
  return "{\"id\":" + std::to_string(id) + ",\"op\":\"verify\",\"table\":\"" +
         JsonEscapeNewlines(csv) + "\",\"query\":\"" + claim + "\"}";
}

const serve::InferenceEngine& SharedEngine() {
  static const serve::InferenceEngine engine = [] {
    serve::EngineConfig config;
    return serve::InferenceEngine::Create(config, "", "").ValueOrDie();
  }();
  return engine;
}

/// Collects a SubmitLine response synchronously.
std::string CallRouter(Router* router, const std::string& line) {
  std::mutex mu;
  std::condition_variable cv;
  bool got = false;
  std::string response;
  router->SubmitLine(line, [&](std::string r) {
    std::lock_guard<std::mutex> lock(mu);
    response = std::move(r);
    got = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return got; });
  return response;
}

// ------------------------------------------------------- ConsistentRing

// Golden values: ring placement of three vnode labels. Moving them moves
// every table_ref to a different backend after an upgrade, so they are
// pinned, not derived.
TEST(ConsistentRingTest, GoldenVnodeHashes) {
  EXPECT_EQ(ConsistentRing::Hash("127.0.0.1:7001#0"), 0x55ca87fe979e1d54ull);
  EXPECT_EQ(ConsistentRing::Hash("127.0.0.1:7001#1"), 0x025c5dee83253567ull);
  EXPECT_EQ(ConsistentRing::Hash("127.0.0.1:7002#63"), 0xfbce531ebbff1b22ull);
}

TEST(ConsistentRingTest, PreferenceIsDeterministicAndDistinct) {
  ConsistentRing ring({"a:1", "b:2", "c:3", "d:4"}, 64);
  for (int k = 0; k < 50; ++k) {
    std::string key = "key-" + std::to_string(k);
    auto first = ring.Preference(key);
    auto second = ring.Preference(key);
    EXPECT_EQ(first, second) << "preference must be deterministic";
    ASSERT_EQ(first.size(), 4u);
    std::set<uint32_t> distinct(first.begin(), first.end());
    EXPECT_EQ(distinct.size(), 4u) << "every backend appears exactly once";
  }
}

TEST(ConsistentRingTest, KeysSpreadAcrossAllBackends) {
  ConsistentRing ring({"a:1", "b:2", "c:3", "d:4"}, 64);
  std::vector<int> owned(4, 0);
  const int kKeys = 2000;
  for (int k = 0; k < kKeys; ++k) {
    ++owned[ring.Preference("table-" + std::to_string(k))[0]];
  }
  for (int b = 0; b < 4; ++b) {
    // With 64 vnodes the split is within a small factor of fair share;
    // the bound here only guards against a degenerate ring (one backend
    // owning everything).
    EXPECT_GT(owned[b], kKeys / 20) << "backend " << b << " owns too little";
    EXPECT_LT(owned[b], kKeys / 2) << "backend " << b << " owns too much";
  }
}

TEST(ConsistentRingTest, SuccessorTakeoverLeavesOtherKeysInPlace) {
  // Consistent hashing's defining property: dropping one backend moves
  // only the keys it owned — everyone else's owner is unchanged. The
  // router relies on this for failover affinity (the sibling that takes
  // over is the next entry in the preference list).
  ConsistentRing ring({"a:1", "b:2", "c:3"}, 64);
  for (int k = 0; k < 200; ++k) {
    auto prefer = ring.Preference("key-" + std::to_string(k));
    // Simulate backend 0 out of the ring: the walk skips it.
    uint32_t owner_without_0 = prefer[0] != 0 ? prefer[0] : prefer[1];
    if (prefer[0] != 0) {
      EXPECT_EQ(owner_without_0, prefer[0])
          << "keys not owned by the removed backend must not move";
    }
  }
}

// --------------------------------------------------- router test fixture

/// One in-process backend: serve::Server + net::Server on an ephemeral
/// loopback port with its own event-loop thread — the same pair
/// `uctr_serve --listen` runs, so probes, drains, and kills behave like
/// the real process.
struct BackendProcess {
  obs::MetricsRegistry metrics;
  std::unique_ptr<serve::Server> serve;
  std::unique_ptr<Server> net;
  std::thread loop;

  explicit BackendProcess(uint16_t port = 0) {
    serve::ServerConfig serve_config;
    serve_config.metrics = &metrics;
    serve = std::make_unique<serve::Server>(&SharedEngine(), serve_config);
    NetServerConfig net_config;
    net_config.metrics = &metrics;
    net_config.host = "127.0.0.1";
    net_config.port = port;
    net_config.drain_timeout_ms = 2000;
    net = std::make_unique<Server>(serve.get(), net_config);
    EXPECT_TRUE(net->Start().ok());
    loop = std::thread([this] { net->Run(); });
  }

  ~BackendProcess() { Stop(); }

  uint16_t port() const { return net->port(); }

  void Stop() {
    if (net != nullptr) net->Shutdown();
    if (loop.joinable()) loop.join();
    net.reset();
    serve.reset();
  }

  uint64_t FramesIn() {
    return metrics.counter("net_frames_in_total")->value();
  }
};

class RouterTest : public ::testing::Test {
 protected:
  void StartBackends(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      backends_.push_back(std::make_unique<BackendProcess>());
    }
  }

  RouterConfig BaseConfig() {
    RouterConfig config;
    for (auto& b : backends_) {
      config.backends.push_back(HostPort{"127.0.0.1", b->port()});
    }
    config.metrics = &router_metrics_;
    config.workers = 8;
    config.probe_failures_out = 1;  // tests drive probes explicitly
    // No backoff sleeps in unit tests; failover moves to the sibling on
    // the immediately-next attempt.
    config.retry.initial_backoff_ms = 0.0;
    config.retry.max_backoff_ms = 0.0;
    return config;
  }

  void StartRouter(RouterConfig config) {
    router_ = std::make_unique<Router>(std::move(config));
    ASSERT_TRUE(router_->Start().ok());
  }

  void TearDown() override {
    fault::FaultInjector::Global().Disarm();
    if (router_ != nullptr) router_->Shutdown();
    router_.reset();
    backends_.clear();
  }

  uint64_t RouterCounter(const std::string& name) {
    return router_metrics_.counter(name)->value();
  }

  obs::MetricsRegistry router_metrics_;
  std::vector<std::unique_ptr<BackendProcess>> backends_;
  std::unique_ptr<Router> router_;
};

// ------------------------------------------------------------- behavior

TEST_F(RouterTest, RoutedResponsesAreByteIdenticalToDirectOnes) {
  StartBackends(2);
  StartRouter(BaseConfig());
  // An independent serve::Server stands in for a direct (unrouted)
  // backend; both instances share the deterministic engine, so any byte
  // the router added or changed would show up in the comparison.
  serve::ServerConfig direct_config;
  obs::MetricsRegistry direct_metrics;
  direct_config.metrics = &direct_metrics;
  serve::Server direct(&SharedEngine(), direct_config);

  std::vector<std::string> requests = {
      VerifyRequest(1, "The gold of the row whose nation is japan is 5."),
      VerifyRequest(2, "The total of the row whose nation is china is 99."),
      "{\"id\":3,\"op\":\"fly\"}",
      "not json at all",
  };
  for (const std::string& request : requests) {
    EXPECT_EQ(CallRouter(router_.get(), request), direct.HandleLine(request))
        << "router must not change response bytes for: " << request;
  }
}

TEST_F(RouterTest, HealthReportsRingStateInline) {
  StartBackends(2);
  StartRouter(BaseConfig());
  std::string health = CallRouter(router_.get(), "{\"id\":5,\"op\":\"health\"}");
  EXPECT_EQ(health.rfind("{\"id\":5,\"status\":\"ok\",\"health\":\"live\"", 0),
            0u)
      << health;
  EXPECT_NE(health.find("\"role\":\"router\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"in_ring\":2"), std::string::npos) << health;
}

TEST_F(RouterTest, OrderingHoldsThroughFullWireStack) {
  // net::Server -> Router -> N x (net::Server -> serve::Server): the
  // complete deployment shape. Per-connection response order must hold
  // even though the router fans requests out to different shards that
  // complete in arbitrary order.
  StartBackends(2);
  StartRouter(BaseConfig());
  NetServerConfig front_config;
  front_config.host = "127.0.0.1";
  front_config.port = 0;
  Server front(router_.get(), front_config);
  ASSERT_TRUE(front.Start().ok());
  std::thread front_loop([&] { front.Run(); });

  constexpr int kClients = 4;
  constexpr uint64_t kPerClient = 40;
  std::atomic<int> order_violations{0};
  std::atomic<uint64_t> responses{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", front.port());
      ASSERT_TRUE(client.ok());
      // Pipeline everything, then collect: distinct variants per client
      // so requests hash to different shards.
      for (uint64_t id = 1; id <= kPerClient; ++id) {
        ASSERT_TRUE(client
                        ->Send(VerifyRequest(
                            id, "The gold of the row whose nation is japan is 5.",
                            c * 1000 + id % 7))
                        .ok());
      }
      for (uint64_t id = 1; id <= kPerClient; ++id) {
        auto response = client->RecvTimeout(30000);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        responses.fetch_add(1);
        if (response->find("\"id\":" + std::to_string(id) + ",") ==
            std::string::npos) {
          order_violations.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(order_violations.load(), 0);
  EXPECT_EQ(responses.load(), kClients * kPerClient);
  // Both shards actually served traffic (the variants spread the keys).
  EXPECT_GT(backends_[0]->FramesIn(), 0u);
  EXPECT_GT(backends_[1]->FramesIn(), 0u);

  front.Shutdown();
  front_loop.join();
}

TEST_F(RouterTest, PutTableRoutesByContentFingerprintForRefAffinity) {
  StartBackends(2);
  StartRouter(BaseConfig());
  std::string put = CallRouter(
      router_.get(), "{\"id\":1,\"op\":\"put_table\",\"table\":\"" +
                         JsonEscapeNewlines(kMedalsCsv) + "\"}");
  ASSERT_NE(put.find("\"status\":\"ok\""), std::string::npos) << put;
  auto fp_pos = put.find("\"fingerprint\":\"");
  ASSERT_NE(fp_pos, std::string::npos) << put;
  std::string fingerprint = put.substr(fp_pos + 15, 16);

  // The routed ref request resolves: the router hashed the put by the
  // same content fingerprint the registry answered with, so the ref
  // hashes to the shard that holds the table.
  std::string ref_request =
      "{\"id\":2,\"op\":\"verify\",\"table_ref\":\"" + fingerprint +
      "\",\"query\":\"The gold of the row whose nation is japan is 5.\"}";
  std::string routed = CallRouter(router_.get(), ref_request);
  EXPECT_NE(routed.find("\"status\":\"ok\""), std::string::npos) << routed;

  // Exactly one shard holds the registration (no accidental broadcast),
  // and it is the ring owner of the fingerprint.
  int holders = 0;
  for (auto& b : backends_) {
    auto direct = Client::Connect("127.0.0.1", b->port());
    ASSERT_TRUE(direct.ok());
    auto answer = direct->Call(ref_request);
    ASSERT_TRUE(answer.ok());
    if (answer->find("\"status\":\"ok\"") != std::string::npos) ++holders;
  }
  EXPECT_EQ(holders, 1);
}

TEST_F(RouterTest, RefMissFailsOverToSiblingThatHoldsTheTable) {
  StartBackends(2);
  StartRouter(BaseConfig());
  // Register directly on both shards so the table exists everywhere,
  // then wipe it from nowhere — instead, register on ONE shard only by
  // talking to it directly. If the ring owner of the fingerprint is the
  // *other* shard, the routed ref request first hits a shard that does
  // not hold the table; the ref-miss failover must find the holder.
  auto direct = Client::Connect("127.0.0.1", backends_[0]->port());
  ASSERT_TRUE(direct.ok());
  auto put = direct->Call("{\"id\":1,\"op\":\"put_table\",\"table\":\"" +
                          JsonEscapeNewlines(kMedalsCsv) + "\"}");
  ASSERT_TRUE(put.ok());
  auto fp_pos = put->find("\"fingerprint\":\"");
  ASSERT_NE(fp_pos, std::string::npos) << *put;
  std::string fingerprint = put->substr(fp_pos + 15, 16);

  std::string response = CallRouter(
      router_.get(),
      "{\"id\":2,\"op\":\"verify\",\"table_ref\":\"" + fingerprint +
          "\",\"query\":\"The gold of the row whose nation is japan is "
          "5.\"}");
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
      << response;
}

TEST_F(RouterTest, ReplicatedPutLandsOnEveryRingSuccessor) {
  StartBackends(2);
  RouterConfig config = BaseConfig();
  config.put_replicas = 2;
  StartRouter(config);
  std::string put = CallRouter(
      router_.get(), "{\"id\":1,\"op\":\"put_table\",\"table\":\"" +
                         JsonEscapeNewlines(kMedalsCsv) + "\"}");
  ASSERT_NE(put.find("\"status\":\"ok\""), std::string::npos) << put;
  auto fp_pos = put.find("\"fingerprint\":\"");
  ASSERT_NE(fp_pos, std::string::npos) << put;
  std::string fingerprint = put.substr(fp_pos + 15, 16);
  std::string ref_request =
      "{\"id\":2,\"op\":\"verify\",\"table_ref\":\"" + fingerprint +
      "\",\"query\":\"The gold of the row whose nation is japan is 5.\"}";

  // The ack rode on the owner's response alone; the replica copy lands
  // asynchronously on the forwarding worker. Poll until BOTH shards
  // serve the ref directly and non-degraded (a non-holder answers a
  // NotFound error: there is no inline table to fall back to).
  auto holds = [&](size_t i) {
    auto direct = Client::Connect("127.0.0.1", backends_[i]->port());
    if (!direct.ok()) return false;
    auto answer = direct->Call(ref_request);
    return answer.ok() &&
           answer->find("\"status\":\"ok\"") != std::string::npos &&
           answer->find("\"degraded\"") == std::string::npos;
  };
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((!holds(0) || !holds(1)) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(holds(0)) << "shard 0 must hold the replicated table";
  EXPECT_TRUE(holds(1)) << "shard 1 must hold the replicated table";
  EXPECT_GE(RouterCounter("router_put_replica_total"), 1u);
  EXPECT_EQ(RouterCounter("router_put_replica_failures_total"), 0u);
}

TEST_F(RouterTest, ReadRepairRestoresRestartedOwnerToFullService) {
  StartBackends(2);
  RouterConfig config = BaseConfig();
  config.put_replicas = 2;
  config.call_timeout_ms = 5000;
  StartRouter(config);
  std::string put = CallRouter(
      router_.get(), "{\"id\":1,\"op\":\"put_table\",\"table\":\"" +
                         JsonEscapeNewlines(kMedalsCsv) + "\"}");
  ASSERT_NE(put.find("\"status\":\"ok\""), std::string::npos) << put;
  std::string fingerprint =
      put.substr(put.find("\"fingerprint\":\"") + 15, 16);
  std::string ref_request =
      "{\"id\":2,\"op\":\"verify\",\"table_ref\":\"" + fingerprint +
      "\",\"query\":\"The gold of the row whose nation is japan is 5.\"}";
  auto holds = [&](size_t i) {
    auto direct = Client::Connect("127.0.0.1", backends_[i]->port());
    if (!direct.ok()) return false;
    auto answer = direct->Call(ref_request);
    return answer.ok() &&
           answer->find("\"status\":\"ok\"") != std::string::npos &&
           answer->find("\"degraded\"") == std::string::npos;
  };
  auto wait_for = [&](const std::function<bool()>& pred) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!pred() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  };
  ASSERT_TRUE(wait_for([&] { return holds(0) && holds(1); }))
      << "replication must land on both shards before the kill";

  // Find the ring owner of the fingerprint (the router's ring is
  // deterministic: same labels, same vnodes).
  std::vector<std::string> labels;
  for (auto& b : backends_) {
    labels.push_back("127.0.0.1:" + std::to_string(b->port()));
  }
  ConsistentRing ring(labels, config.vnodes);
  size_t owner = ring.Preference(fingerprint)[0];
  size_t sibling = 1 - owner;

  // Kill the owner (crash, not drain). The replica on the sibling keeps
  // the ref servable with zero lost replies.
  uint16_t owner_port = backends_[owner]->port();
  backends_[owner]->Stop();
  router_->ProbeNow();
  EXPECT_EQ(router_->backends_in_ring(), 1u);
  std::string during = CallRouter(router_.get(), ref_request);
  EXPECT_NE(during.find("\"status\":\"ok\""), std::string::npos) << during;

  // Restart the owner on the same port with an EMPTY registry (a real
  // crashed process loses its memory-only tables) and let it rejoin.
  backends_[owner] = std::make_unique<BackendProcess>(owner_port);
  ASSERT_EQ(backends_[owner]->port(), owner_port);
  router_->ProbeNow();
  EXPECT_EQ(router_->backends_in_ring(), 2u);
  ASSERT_FALSE(holds(owner)) << "the restarted owner starts empty";

  // The routed ref now lands on the recovered-but-empty owner, ref-misses,
  // fails over to the sibling (the reply is still ok — nothing lost), and
  // triggers read-repair in the background.
  std::string routed = CallRouter(router_.get(), ref_request);
  EXPECT_NE(routed.find("\"status\":\"ok\""), std::string::npos) << routed;

  // Convergence: the owner ends up holding the table again and serves the
  // ref directly, non-degraded — full ownership restored.
  EXPECT_TRUE(wait_for([&] { return holds(owner); }))
      << "read-repair must restore the owner's copy";
  EXPECT_GE(RouterCounter("router_read_repair_total"), 1u);
  EXPECT_EQ(RouterCounter("router_read_repair_failures_total"), 0u);
  std::string after = CallRouter(router_.get(), ref_request);
  EXPECT_NE(after.find("\"status\":\"ok\""), std::string::npos) << after;
  EXPECT_EQ(after.find("\"degraded\""), std::string::npos) << after;
  (void)sibling;
}

TEST_F(RouterTest, DrainingBackendStopsReceivingNewKeys) {
  StartBackends(2);
  StartRouter(BaseConfig());
  ASSERT_EQ(router_->backends_in_ring(), 2u);
  backends_[1]->serve->set_draining(true);
  router_->ProbeNow();
  EXPECT_EQ(router_->backends_in_ring(), 1u);
  uint64_t before = backends_[1]->FramesIn();
  for (uint64_t id = 1; id <= 20; ++id) {
    std::string response = CallRouter(
        router_.get(),
        VerifyRequest(id, "The gold of the row whose nation is japan is 5.",
                      id));
    EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
  }
  // Only probe traffic may have touched the draining backend (probes use
  // their own connections and always answer inline).
  EXPECT_LE(backends_[1]->FramesIn(), before + 2);
  backends_[1]->serve->set_draining(false);
  router_->ProbeNow();
  EXPECT_EQ(router_->backends_in_ring(), 2u);
}

TEST_F(RouterTest, KilledBackendFailsOverThenRejoinsAfterRestart) {
  StartBackends(2);
  RouterConfig config = BaseConfig();
  config.call_timeout_ms = 5000;
  StartRouter(config);

  // Phase 1: both shards serving.
  std::atomic<uint64_t> ok_count{0};
  std::mutex seen_mu;
  std::map<uint64_t, int> seen;  // id -> responses (must end at exactly 1)
  auto fire = [&](uint64_t id) {
    std::string response = CallRouter(
        router_.get(),
        VerifyRequest(id, "The gold of the row whose nation is japan is 5.",
                      id));
    {
      std::lock_guard<std::mutex> lock(seen_mu);
      ++seen[id];
    }
    if (response.find("\"status\":\"ok\"") != std::string::npos) {
      ok_count.fetch_add(1);
    }
  };
  for (uint64_t id = 1; id <= 30; ++id) fire(id);
  ASSERT_EQ(ok_count.load(), 30u);

  // Phase 2: kill shard 1 (force-close, like a crashed process) while
  // requests keep coming. Every request must still be answered ok — the
  // dead shard's keys retry over to the sibling — and exactly once.
  uint16_t killed_port = backends_[1]->port();
  backends_[1]->Stop();
  router_->ProbeNow();
  EXPECT_EQ(router_->backends_in_ring(), 1u);
  EXPECT_GE(RouterCounter("router_backend_removed_total"), 1u);
  std::vector<std::thread> wave;
  for (uint64_t id = 31; id <= 60; ++id) {
    wave.emplace_back([&fire, id] { fire(id); });
  }
  for (auto& t : wave) t.join();
  EXPECT_EQ(ok_count.load(), 60u) << "no request may be lost to the kill";

  // Phase 3: restart on the same port; the probe puts it back in the
  // ring and its keys come home.
  backends_[1] = std::make_unique<BackendProcess>(killed_port);
  ASSERT_EQ(backends_[1]->port(), killed_port);
  router_->ProbeNow();
  EXPECT_EQ(router_->backends_in_ring(), 2u);
  EXPECT_GE(RouterCounter("router_backend_rejoined_total"), 1u);
  uint64_t frames_before = backends_[1]->FramesIn();
  for (uint64_t id = 61; id <= 120; ++id) fire(id);
  EXPECT_EQ(ok_count.load(), 120u);
  EXPECT_GT(backends_[1]->FramesIn(), frames_before)
      << "the rejoined backend must serve data traffic again";

  // Exactly-once: every id has exactly one response.
  std::lock_guard<std::mutex> lock(seen_mu);
  EXPECT_EQ(seen.size(), 120u);
  for (const auto& [id, count] : seen) {
    EXPECT_EQ(count, 1) << "id " << id << " answered " << count << " times";
  }
}

TEST_F(RouterTest, HotKeysHedgeAcrossReplicasWithoutDuplicates) {
  StartBackends(2);
  RouterConfig config = BaseConfig();
  config.replicas = 2;
  config.hot_threshold = 3;  // 4th repeat of a key inside the window hedges
  config.hot_window_ms = 60000;
  StartRouter(config);

  // The same inline-table request over and over: after the threshold the
  // router fans it out to both shards. Inline tables execute anywhere, so
  // both legs produce the same bytes and the dedup is observable as
  // "every call returns exactly one response".
  const std::string request =
      VerifyRequest(9, "The gold of the row whose nation is japan is 5.");
  const std::string expected = CallRouter(router_.get(), request);
  ASSERT_NE(expected.find("\"status\":\"ok\""), std::string::npos);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(CallRouter(router_.get(), request), expected);
  }
  EXPECT_GE(RouterCounter("router_hedged_total"), 1u)
      << "repeats past the threshold must fan out";
  // Both shards saw the hot key.
  EXPECT_GT(backends_[0]->FramesIn(), 0u);
  EXPECT_GT(backends_[1]->FramesIn(), 0u);
}

TEST_F(RouterTest, ChaosFaultsOnRouterSitesStayClean) {
  // Transient injected faults on the router's own connect/send/recv
  // sites must be absorbed by retry-with-failover: every request still
  // gets exactly one ok response.
  StartBackends(2);
  ASSERT_TRUE(fault::FaultInjector::Global()
                  .ArmSpec("router.send=error(unavailable):p=0.2;"
                           "router.recv=error(unavailable):p=0.2")
                  .ok());
  RouterConfig config = BaseConfig();
  // Breakers off for this test (threshold unreachably high): with both
  // sites at p=0.2, legitimate opens would turn injected-fault absorption
  // into a breaker test and make the clean-run assertion probabilistic.
  config.breaker.failure_threshold = 1 << 20;
  StartRouter(config);
  for (uint64_t id = 1; id <= 50; ++id) {
    std::string response = CallRouter(
        router_.get(),
        VerifyRequest(id, "The gold of the row whose nation is japan is 5.",
                      id));
    EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
        << response;
  }
  fault::FaultInjector::Global().Disarm();
}

}  // namespace
}  // namespace uctr::net
