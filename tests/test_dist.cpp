// Distributed frontier exploration (net/dist_explore.*): live coordinator +
// worker dawnd servers over loopback, pinned bit-identical against the
// single-process explicit engine, plus the failure paths — a lost peer is a
// structured peer-lost error, never a hang.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dawn/fuzz/artifact.hpp"
#include "dawn/fuzz/gen.hpp"
#include "dawn/graph/generators.hpp"
#include "dawn/net/client.hpp"
#include "dawn/net/dist_explore.hpp"
#include "dawn/net/payload.hpp"
#include "dawn/net/server.hpp"
#include "dawn/net/wire.hpp"
#include "dawn/obs/json.hpp"
#include "dawn/semantics/decision.hpp"

namespace {

using namespace dawn;

fuzz::MachineSpec dist_spec(std::uint64_t seed) {
  fuzz::MachineSpec spec;
  spec.cls = *fuzz::class_from_name("dAf");
  spec.num_states = 3;
  spec.num_labels = 2;
  spec.beta = 1;
  spec.seed = seed;
  spec.halt_accept = 1;
  spec.halt_reject = 1;
  return spec;
}

net::DecideRequest dist_request(std::uint64_t seed, const Graph& g) {
  net::DecideRequest req;
  req.machine = dist_spec(seed);
  req.graph = g;
  req.budget.max_configs = 50'000;
  req.budget.max_threads = 1;
  req.method = DecideMethod::Explicit;
  return req;
}

// The single-process reference the distributed report must be bit-identical
// to. Deliberately NOT a round trip through any server: a fresh in-process
// decide() so the comparison cannot be satisfied vacuously by a cache hit.
DecisionReport local_reference(const net::DecideRequest& req) {
  const auto machine = fuzz::build_machine(req.machine);
  DecisionRequest dr;
  dr.method = req.method;
  dr.budget = req.budget;
  return dawn::decide(*machine, req.graph, dr);
}

// An in-process dawnd on an ephemeral loopback port with its poll loop on a
// thread; same lifecycle the service tests use.
class LiveServer {
 public:
  explicit LiveServer(net::ServerOptions opts = {}) {
    opts.listen = "tcp:127.0.0.1:0";
    server_ = std::make_unique<net::Server>(opts);
    std::string error;
    started_ = server_->start(&error);
    if (!started_) {
      ADD_FAILURE() << "server start failed: " << error;
      return;
    }
    loop_ = std::thread([this] { server_->run(); });
  }

  ~LiveServer() { stop(); }

  void stop() {
    if (server_ != nullptr && started_) server_->request_stop();
    if (loop_.joinable()) loop_.join();
  }

  bool started() const { return started_; }
  const std::string& address() const { return server_->address(); }
  net::Server& server() { return *server_; }

 private:
  std::unique_ptr<net::Server> server_;
  std::thread loop_;
  bool started_ = false;
};

// A pool of worker dawnds plus one coordinator wired to the first
// `use_workers` of them.
class DistCluster {
 public:
  explicit DistCluster(int num_workers, int use_workers = -1,
                       const net::ServerOptions& base = {}) {
    if (use_workers < 0) use_workers = num_workers;
    net::ServerOptions wopts = base;
    wopts.peers.clear();
    wopts.coordinator = false;
    for (int i = 0; i < num_workers; ++i) {
      workers_.push_back(std::make_unique<LiveServer>(wopts));
    }
    net::ServerOptions copts = base;
    copts.coordinator = true;
    for (int i = 0; i < use_workers; ++i) {
      copts.peers.push_back(workers_[static_cast<std::size_t>(i)]->address());
    }
    coordinator_ = std::make_unique<LiveServer>(copts);
  }

  LiveServer& coordinator() { return *coordinator_; }
  LiveServer& worker(int i) { return *workers_[static_cast<std::size_t>(i)]; }

 private:
  std::vector<std::unique_ptr<LiveServer>> workers_;
  std::unique_ptr<LiveServer> coordinator_;
};

std::optional<net::DecideReply> decide_via(const std::string& address,
                                           net::DecideRequest req,
                                           bool distributed,
                                           std::string* error) {
  net::Client client;
  if (!client.connect(address, error)) return std::nullopt;
  if (distributed) return client.decide_distributed(std::move(req), error);
  return client.decide(req, error);
}

// --- ShardInit codec and shard ranges ---------------------------------------

TEST(DistProto, ShardInitCodecRoundTrips) {
  net::ShardInitRequest init;
  init.worker = 1;
  init.num_workers = 3;
  init.machine = dist_spec(11);
  init.graph = make_line({0, 1, 0, 1});
  init.budget.max_configs = 1234;
  init.budget.max_threads = 1;
  init.store = "packed";
  init.symmetry = true;

  const auto doc = net::shard_init_to_json(init);
  std::string error;
  const auto back = net::shard_init_from_json(doc, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->worker, 1);
  EXPECT_EQ(back->num_workers, 3);
  EXPECT_EQ(back->store, "packed");
  EXPECT_TRUE(back->symmetry);
  EXPECT_EQ(back->budget.max_configs, 1234u);
  EXPECT_EQ(back->graph.n(), 4);
  EXPECT_EQ(back->machine.seed, 11u);
}

TEST(DistProto, ShardInitRejectsBadWorkerIndexAndStore) {
  net::ShardInitRequest init;
  init.worker = 3;
  init.num_workers = 3;  // worker must be < num_workers
  init.machine = dist_spec(1);
  init.graph = make_line({0, 1});
  auto doc = net::shard_init_to_json(init);
  std::string error;
  EXPECT_FALSE(net::shard_init_from_json(doc, &error).has_value());

  init.worker = 0;
  doc = net::shard_init_to_json(init);
  doc.set("store", obs::JsonValue(std::string("bogus")));
  EXPECT_FALSE(net::shard_init_from_json(doc, &error).has_value());
}

TEST(DistProto, ShardRangesPartitionTheSixtyFourShards) {
  for (int w = 1; w <= net::kMaxDistWorkers; ++w) {
    std::size_t covered = 0;
    for (int i = 0; i < w; ++i) {
      const std::size_t b = net::shard_range_begin(i, w);
      const std::size_t e = net::shard_range_end(i, w);
      ASSERT_LE(b, e);
      covered += e - b;
      if (i > 0) ASSERT_EQ(net::shard_range_end(i - 1, w), b);
    }
    ASSERT_EQ(net::shard_range_begin(0, w), 0u);
    ASSERT_EQ(net::shard_range_end(w - 1, w), 64u);
    ASSERT_EQ(covered, 64u);
  }
}

// --- Bit-identical reports ---------------------------------------------------

TEST(DistDecide, MatchesLocalExplicitAcrossWorkerCountsAndModes) {
  DistCluster w1(1), w2(2), w3(3);
  LiveServer* coordinators[] = {&w1.coordinator(), &w2.coordinator(),
                                &w3.coordinator()};
  const Graph graphs[] = {make_line({0, 1, 0, 1, 0, 1}),
                          make_cycle({0, 1, 1, 0, 1, 0})};
  struct Mode {
    bool symmetry;
    bool packing;
  };
  const Mode modes[] = {{false, false}, {true, false}, {false, true}};

  for (int gi = 0; gi < 2; ++gi) {
    for (const Mode& m : modes) {
      // Seeds with known-rich reachable spaces (hundreds of configurations)
      // so the comparison exercises real multi-level frontiers.
      net::DecideRequest req =
          dist_request(gi == 0 ? 3 : 7, graphs[gi]);
      req.budget.use_symmetry = m.symmetry;
      req.budget.use_packing = m.packing;
      const DecisionReport want = local_reference(req);
      ASSERT_FALSE(want.budget_exhausted);

      for (int wi = 0; wi < 3; ++wi) {
        std::string error;
        const auto reply =
            decide_via(coordinators[wi]->address(), req, true, &error);
        ASSERT_TRUE(reply.has_value())
            << "W=" << (wi + 1) << " graph=" << gi << " sym=" << m.symmetry
            << " pack=" << m.packing << ": " << error;
        EXPECT_TRUE(reply->report == want)
            << "W=" << (wi + 1) << " graph=" << gi << " sym=" << m.symmetry
            << " pack=" << m.packing << "\n got: "
            << net::decide_reply_to_json(*reply).dump()
            << "\nwant decision=" << to_string(want.decision)
            << " configs=" << want.configs_explored;
      }
    }
  }
}

TEST(DistDecide, ConfigCapAbortIsBitIdentical) {
  DistCluster cluster(2);
  net::DecideRequest req = dist_request(3, make_cycle({0, 1, 0, 1, 0, 1}));
  req.budget.max_configs = 50;  // seed 3 reaches ~725 configs: forces the cap
  const DecisionReport want = local_reference(req);
  ASSERT_TRUE(want.budget_exhausted);
  ASSERT_EQ(want.unknown_reason, UnknownReason::ConfigCap);

  std::string error;
  const auto reply =
      decide_via(cluster.coordinator().address(), req, true, &error);
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_TRUE(reply->report == want)
      << net::decide_reply_to_json(*reply).dump();
}

TEST(DistDecide, TieredStoreMatchesDecisionFields) {
  // Tiered distributed runs pin the decision fields (decision, num_configs,
  // num_bottom_sccs, completed) but not the memory ledger — the documented
  // divergence (docs/DISTRIBUTED.md): spill accounting is per-worker.
  char tmpl[] = "/tmp/dawn-dist-test-XXXXXX";
  char* dir = mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  net::ServerOptions base;
  base.spill_dir = dir;
  DistCluster cluster(2, 2, base);

  net::DecideRequest req = dist_request(13, make_cycle({0, 1, 0, 1, 0, 1}));
  req.budget.max_store_bytes = 1u << 20;
  const auto machine = fuzz::build_machine(req.machine);
  DecisionRequest dr;
  dr.method = req.method;
  dr.budget = req.budget;
  dr.budget.spill_dir = dir;
  const DecisionReport want = dawn::decide(*machine, req.graph, dr);
  ASSERT_FALSE(want.budget_exhausted);

  std::string error;
  const auto reply =
      decide_via(cluster.coordinator().address(), req, true, &error);
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_EQ(reply->report.decision, want.decision);
  EXPECT_EQ(reply->report.configs_explored, want.configs_explored);
  EXPECT_EQ(reply->report.num_bottom_sccs, want.num_bottom_sccs);
  EXPECT_EQ(reply->report.budget_exhausted, want.budget_exhausted);
  EXPECT_EQ(reply->report.unknown_reason, want.unknown_reason);
}

TEST(DistDecide, SharesCacheEntryWithLocalExplicit) {
  // The distributed flag is excluded from the cache key: a local explicit
  // decide primes the coordinator's cache, the distributed decide hits it.
  DistCluster cluster(2);
  net::DecideRequest req = dist_request(33, make_line({0, 1, 0, 1}));

  std::string error;
  const auto first =
      decide_via(cluster.coordinator().address(), req, false, &error);
  ASSERT_TRUE(first.has_value()) << error;
  EXPECT_FALSE(first->cache_hit);

  const auto second =
      decide_via(cluster.coordinator().address(), req, true, &error);
  ASSERT_TRUE(second.has_value()) << error;
  EXPECT_TRUE(second->cache_hit);
  EXPECT_TRUE(second->report == first->report);
}

// --- Failure semantics -------------------------------------------------------

TEST(DistDecide, UnreachablePeerFailsFastWithPeerLost) {
  // Grab a loopback port that refuses connections by closing a probe server.
  std::string dead_address;
  {
    LiveServer probe;
    dead_address = probe.address();
  }
  net::ServerOptions copts;
  copts.peers = {dead_address};
  copts.coordinator = true;
  LiveServer coordinator(copts);

  std::string error;
  const auto reply =
      decide_via(coordinator.address(), dist_request(3, make_line({0, 1})),
                 true, &error);
  EXPECT_FALSE(reply.has_value());
  EXPECT_NE(error.find("peer-lost"), std::string::npos) << error;

  // The coordinator survives the failed distributed run.
  net::Client client;
  ASSERT_TRUE(client.connect(coordinator.address(), &error)) << error;
  EXPECT_TRUE(client.ping(&error)) << error;
}

// A "peer" that accepts the TCP connection and then goes mute (or closes):
// exercises the barrier timeout and the EOF detection without timing races.
class FakePeer {
 public:
  enum class Behaviour { Mute, CloseOnAccept };

  explicit FakePeer(Behaviour b) : behaviour_(b) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in sa = {};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = 0;
    EXPECT_EQ(bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
    EXPECT_EQ(listen(fd_, 4), 0);
    socklen_t len = sizeof(sa);
    getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len);
    address_ = "tcp:127.0.0.1:" + std::to_string(ntohs(sa.sin_port));
    accept_thread_ = std::thread([this] {
      while (!stop_.load()) {
        const int conn = accept(fd_, nullptr, nullptr);
        if (conn < 0) return;  // listener closed
        if (behaviour_ == Behaviour::CloseOnAccept) {
          close(conn);
        } else {
          std::lock_guard<std::mutex> lock(mu_);
          held_.push_back(conn);  // never answer; closed at teardown
        }
      }
    });
  }

  ~FakePeer() {
    stop_.store(true);
    if (fd_ >= 0) {
      shutdown(fd_, SHUT_RDWR);
      close(fd_);
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    for (const int c : held_) close(c);
  }

  const std::string& address() const { return address_; }

 private:
  Behaviour behaviour_;
  int fd_ = -1;
  std::string address_;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  std::mutex mu_;
  std::vector<int> held_;
};

TEST(DistDecide, MutePeerHitsBarrierTimeoutNotAHang) {
  FakePeer mute(FakePeer::Behaviour::Mute);
  net::ServerOptions copts;
  copts.peers = {mute.address()};
  copts.dist_barrier_timeout_ms = 1'000;  // bounded wait under test
  LiveServer coordinator(copts);

  std::string error;
  const auto reply =
      decide_via(coordinator.address(), dist_request(4, make_line({0, 1})),
                 true, &error);
  EXPECT_FALSE(reply.has_value());
  EXPECT_NE(error.find("peer-lost"), std::string::npos) << error;
}

TEST(DistDecide, PeerEofMidSessionIsPeerLost) {
  FakePeer closer(FakePeer::Behaviour::CloseOnAccept);
  net::ServerOptions copts;
  copts.peers = {closer.address()};
  LiveServer coordinator(copts);

  std::string error;
  const auto reply =
      decide_via(coordinator.address(), dist_request(4, make_line({0, 1})),
                 true, &error);
  EXPECT_FALSE(reply.has_value());
  EXPECT_NE(error.find("peer-lost"), std::string::npos) << error;
}

TEST(DistDecide, KilledWorkerMidDecisionYieldsPeerLostAndCoordinatorSurvives) {
  // A real worker is stopped while a long decision is in flight. The
  // instance is sized so a single worker thread needs well over the kill
  // delay; either way the contract holds: a structured reply (peer-lost
  // error) and a live coordinator, never a hang.
  DistCluster cluster(2);
  net::DecideRequest req =
      dist_request(17, make_cycle({0, 1, 0, 1, 0, 1, 0, 1, 0, 1}));
  req.machine.num_states = 4;
  req.budget.max_configs = 2'000'000;

  std::thread killer([&cluster] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    cluster.worker(0).stop();
  });
  std::string error;
  const auto reply =
      decide_via(cluster.coordinator().address(), req, true, &error);
  killer.join();
  if (reply.has_value()) {
    // The decision outran the kill — legal, but then it must be correct.
    EXPECT_TRUE(reply->report == local_reference(req));
  } else {
    EXPECT_NE(error.find("peer-lost"), std::string::npos) << error;
  }
  net::Client client;
  ASSERT_TRUE(client.connect(cluster.coordinator().address(), &error))
      << error;
  EXPECT_TRUE(client.ping(&error)) << error;
}

// --- Request/option validation ----------------------------------------------

TEST(DistDecide, DistributedWithoutPeersIsBadSchema) {
  LiveServer plain;  // no --peers
  std::string error;
  const auto reply = decide_via(
      plain.address(), dist_request(1, make_line({0, 1})), true, &error);
  EXPECT_FALSE(reply.has_value());
  EXPECT_NE(error.find("bad-schema"), std::string::npos) << error;
  EXPECT_NE(error.find("peers"), std::string::npos) << error;
}

TEST(DistDecide, NonExplicitMethodIsRejected) {
  DistCluster cluster(1);
  net::DecideRequest req = dist_request(1, make_line({0, 1}));
  req.method = DecideMethod::Simulate;
  std::string error;
  const auto reply =
      decide_via(cluster.coordinator().address(), req, true, &error);
  EXPECT_FALSE(reply.has_value());
  EXPECT_NE(error.find("bad-schema"), std::string::npos) << error;
}

TEST(DistProto, StrayDistributedActionsAnswerStructuredErrors) {
  LiveServer live;
  net::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(live.address(), &error)) << error;

  for (const net::Action a :
       {net::Action::FrontierPush, net::Action::LevelBarrier,
        net::Action::ShardResult}) {
    net::Frame reply;
    ASSERT_TRUE(client.call(a, "", &reply, &error)) << error;
    EXPECT_EQ(reply.header.kind, net::FrameKind::Error);
    EXPECT_NE(reply.payload.find("shard session"), std::string::npos)
        << reply.payload;
  }
  // Malformed ShardInit: a named error frame, and the connection survives.
  net::Frame reply;
  ASSERT_TRUE(client.call(net::Action::ShardInit, "{not json", &reply, &error))
      << error;
  EXPECT_EQ(reply.header.kind, net::FrameKind::Error);
  EXPECT_NE(reply.payload.find("bad-json"), std::string::npos);
  EXPECT_TRUE(client.ping(&error)) << error;
}

TEST(ServerOptions, StartupValidationNamesTheBadOption) {
  struct Case {
    const char* what;
    net::ServerOptions opts;
  };
  std::vector<Case> cases;
  {
    net::ServerOptions o;
    o.max_inflight_per_conn = 0;
    cases.push_back({"max_inflight_per_conn", o});
  }
  {
    net::ServerOptions o;
    o.max_payload = net::kHeaderSize - 1;
    cases.push_back({"max_payload", o});
  }
  {
    net::ServerOptions o;
    o.max_queue = 0;
    cases.push_back({"max_queue", o});
  }
  {
    net::ServerOptions o;
    o.peers.assign(static_cast<std::size_t>(net::kMaxDistWorkers) + 1,
                   "tcp:127.0.0.1:1");
    cases.push_back({"peers", o});
  }
  {
    net::ServerOptions o;
    o.coordinator = true;  // without peers
    cases.push_back({"--coordinator", o});
  }
  for (Case& c : cases) {
    c.opts.listen = "tcp:127.0.0.1:0";
    net::Server server(c.opts);
    std::string error;
    EXPECT_FALSE(server.start(&error)) << c.what;
    EXPECT_NE(error.find("server-options:"), std::string::npos) << error;
    EXPECT_NE(error.find(c.what), std::string::npos) << error;
  }
}

// --- Counters and progress ---------------------------------------------------

// A server's counters, read through a CacheStats round trip: its poll
// thread answers only after the accounting of every reply it sent earlier.
// (Server::stats() belongs to the poll thread; see server.hpp.)
obs::JsonValue wire_stats(const std::string& address) {
  net::Client client;
  std::string error;
  EXPECT_TRUE(client.connect(address, &error)) << error;
  std::optional<obs::JsonValue> stats = client.cache_stats(&error);
  EXPECT_TRUE(stats.has_value()) << error;
  return stats.value_or(obs::JsonValue::object());
}

std::int64_t stat(const obs::JsonValue& stats, const char* key) {
  const obs::JsonValue* value = stats.get(key);
  EXPECT_NE(value, nullptr) << key;
  return value == nullptr ? -1 : value->as_int();
}

TEST(DistDecide, ByteCountersSplitByConnectionClass) {
  DistCluster cluster(2);
  net::DecideRequest req = dist_request(41, make_line({0, 1, 0, 1, 0}));
  std::string error;
  const auto reply =
      decide_via(cluster.coordinator().address(), req, true, &error);
  ASSERT_TRUE(reply.has_value()) << error;

  const obs::JsonValue cs = wire_stats(cluster.coordinator().address());
  EXPECT_GT(stat(cs, "bytes_in_client"), 0);   // the Decide request itself
  EXPECT_GT(stat(cs, "bytes_out_client"), 0);  // its reply
  EXPECT_GT(stat(cs, "bytes_in_peer"), 0);     // worker frames on peer links
  EXPECT_GT(stat(cs, "bytes_out_peer"), 0);    // ShardInit + barriers out
  EXPECT_GE(stat(cs, "dist_sessions"), 0);  // surfaced; 0 on a coordinator

  std::int64_t sessions = 0;
  std::int64_t dist_configs = 0;
  for (int i = 0; i < 2; ++i) {
    const obs::JsonValue ws = wire_stats(cluster.worker(i).address());
    EXPECT_GT(stat(ws, "bytes_in_peer"), 0) << "worker " << i;
    EXPECT_GT(stat(ws, "bytes_out_peer"), 0) << "worker " << i;
    sessions += stat(ws, "dist_sessions");
    dist_configs += stat(ws, "dist_configs");
  }
  EXPECT_EQ(sessions, 2);  // one session per worker for the one decide
  EXPECT_EQ(dist_configs,
            static_cast<std::int64_t>(reply->report.configs_explored));
}

TEST(DistDecide, CoordinatorProgressReflectsTheDecision) {
  DistCluster cluster(2);
  net::DecideRequest req = dist_request(41, make_line({0, 1, 0, 1, 0}));
  std::string error;
  const auto reply =
      decide_via(cluster.coordinator().address(), req, true, &error);
  ASSERT_TRUE(reply.has_value()) << error;

  const obs::ExploreProgress& p = cluster.coordinator().server().dist_progress();
  EXPECT_EQ(p.configs.load(std::memory_order_relaxed),
            reply->report.configs_explored);
  std::uint64_t shard_total = 0;
  for (const auto& s : p.shard_sizes) {
    shard_total += s.load(std::memory_order_relaxed);
  }
  EXPECT_EQ(shard_total, reply->report.configs_explored);
}

}  // namespace
