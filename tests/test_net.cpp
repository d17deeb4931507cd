// The dawnd service layer: wire framing, payload schema, the result cache,
// and a live in-process server driven end-to-end over loopback.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

#include "dawn/fuzz/artifact.hpp"
#include "dawn/fuzz/gen.hpp"
#include "dawn/graph/generators.hpp"
#include "dawn/net/cache.hpp"
#include "dawn/net/client.hpp"
#include "dawn/net/frame_fuzz.hpp"
#include "dawn/net/payload.hpp"
#include "dawn/net/server.hpp"
#include "dawn/net/wire.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/util/rng.hpp"

namespace {

using namespace dawn;

fuzz::MachineSpec small_spec(std::uint64_t seed = 7) {
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

net::DecideRequest small_request(std::uint64_t seed = 7) {
  net::DecideRequest req;
  req.machine = small_spec(seed);
  req.graph = make_clique({0, 1, 0});
  req.budget.max_configs = 50'000;
  req.budget.max_threads = 1;
  req.method = DecideMethod::Auto;
  return req;
}

// An in-process server on an ephemeral loopback port, with a poll-loop
// thread, torn down in reverse order.
class LiveServer {
 public:
  explicit LiveServer(net::ServerOptions opts = {}) {
    opts.listen = "tcp:127.0.0.1:0";
    server_ = std::make_unique<net::Server>(opts);
    std::string error;
    if (!server_->start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return;
    }
    loop_ = std::thread([this] { server_->run(); });
  }

  ~LiveServer() {
    if (server_ != nullptr) server_->request_stop();
    if (loop_.joinable()) loop_.join();
  }

  const std::string& address() const { return server_->address(); }
  net::Server& server() { return *server_; }

 private:
  std::unique_ptr<net::Server> server_;
  std::thread loop_;
};

// --- Wire framing -----------------------------------------------------------

TEST(Wire, FrameRoundTripsThroughReader) {
  const auto bytes =
      net::encode_frame(net::Action::Decide, net::FrameKind::Request,
                        0x0123456789abcdefULL, "{\"x\":1}");
  EXPECT_EQ(bytes.size(), net::kHeaderSize + 7);

  net::FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  net::Frame f;
  ASSERT_TRUE(reader.next(&f));
  EXPECT_EQ(f.header.version, net::kWireVersion);
  EXPECT_EQ(f.header.action, net::Action::Decide);
  EXPECT_EQ(f.header.kind, net::FrameKind::Request);
  EXPECT_EQ(f.header.nonce, 0x0123456789abcdefULL);
  EXPECT_EQ(f.payload, "{\"x\":1}");
  EXPECT_FALSE(reader.next(&f));
  EXPECT_EQ(reader.error(), net::WireError::None);
}

TEST(Wire, ReaderHandlesByteDribbleAndBackToBackFrames) {
  auto bytes = net::encode_frame(net::Action::Ping, net::FrameKind::Request,
                                 1, "abc");
  const auto second = net::encode_frame(net::Action::Cancel,
                                        net::FrameKind::Request, 2, "");
  bytes.insert(bytes.end(), second.begin(), second.end());

  net::FrameReader reader;
  net::Frame f;
  int got = 0;
  for (const std::uint8_t b : bytes) {
    reader.feed(&b, 1);
    while (reader.next(&f)) ++got;
  }
  EXPECT_EQ(got, 2);
  EXPECT_EQ(f.header.action, net::Action::Cancel);
  EXPECT_EQ(f.header.nonce, 2u);
}

TEST(Wire, ReaderErrorsAreStickyPerHeaderField) {
  struct Case {
    std::size_t offset;
    std::uint8_t value;
    net::WireError expect;
  };
  const Case cases[] = {
      {0, 0x00, net::WireError::BadMagic},
      {4, 99, net::WireError::BadVersion},
      {5, 4, net::WireError::BadAction},
      {5, 7, net::WireError::BadAction},
      {5, 250, net::WireError::BadAction},
      {6, 250, net::WireError::BadKind},
      {7, 1, net::WireError::BadReserved},
  };
  for (const Case& c : cases) {
    auto bytes = net::encode_frame(net::Action::Ping, net::FrameKind::Request,
                                   1, "");
    bytes[c.offset] = c.value;
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    net::Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_EQ(reader.error(), c.expect)
        << "offset " << c.offset << " value " << int{c.value};
    // Sticky: feeding a pristine frame afterwards cannot resync.
    const auto good = net::encode_frame(net::Action::Ping,
                                        net::FrameKind::Request, 2, "");
    reader.feed(good.data(), good.size());
    EXPECT_FALSE(reader.next(&f));
    EXPECT_EQ(reader.error(), c.expect);
  }
}

TEST(Wire, OversizedPayloadLengthIsAFrameError) {
  auto bytes = net::encode_frame(net::Action::Ping, net::FrameKind::Request,
                                 1, "");
  bytes[16] = 0xff;
  bytes[17] = 0xff;
  bytes[18] = 0xff;
  bytes[19] = 0x7f;
  net::FrameReader reader(1 << 20);
  reader.feed(bytes.data(), bytes.size());
  net::Frame f;
  EXPECT_FALSE(reader.next(&f));
  EXPECT_EQ(reader.error(), net::WireError::FrameTooLarge);
}

TEST(Wire, PayloadAtExactlyMaxPayloadIsAccepted) {
  constexpr std::size_t kCap = 256;
  const std::string payload(kCap, 'x');
  const auto bytes = net::encode_frame(net::Action::Decide,
                                       net::FrameKind::Request, 7, payload);
  // Whole-buffer feed.
  {
    net::FrameReader reader(kCap);
    reader.feed(bytes.data(), bytes.size());
    net::Frame f;
    ASSERT_TRUE(reader.next(&f));
    EXPECT_EQ(reader.error(), net::WireError::None);
    EXPECT_EQ(f.payload.size(), kCap);
    EXPECT_EQ(f.payload, payload);
  }
  // The same frame dribbled one byte at a time must decode identically.
  {
    net::FrameReader reader(kCap);
    net::Frame f;
    int got = 0;
    for (const std::uint8_t b : bytes) {
      reader.feed(&b, 1);
      while (reader.next(&f)) ++got;
      ASSERT_EQ(reader.error(), net::WireError::None);
    }
    EXPECT_EQ(got, 1);
    EXPECT_EQ(f.payload, payload);
  }
}

TEST(Wire, PayloadOneByteOverMaxPayloadIsRejectedNamed) {
  constexpr std::size_t kCap = 256;
  const std::string payload(kCap + 1, 'x');
  const auto bytes = net::encode_frame(net::Action::Decide,
                                       net::FrameKind::Request, 7, payload);
  // Whole-buffer feed.
  {
    net::FrameReader reader(kCap);
    reader.feed(bytes.data(), bytes.size());
    net::Frame f;
    EXPECT_FALSE(reader.next(&f));
    EXPECT_EQ(reader.error(), net::WireError::FrameTooLarge);
    EXPECT_STREQ(net::name(net::WireError::FrameTooLarge), "frame-too-large");
  }
  // Dribbled: the error must trip as soon as the header completes, without
  // waiting for (or consuming) the oversized payload bytes.
  {
    net::FrameReader reader(kCap);
    net::Frame f;
    for (std::size_t i = 0; i < net::kHeaderSize; ++i) {
      reader.feed(&bytes[i], 1);
      EXPECT_FALSE(reader.next(&f));
    }
    EXPECT_EQ(reader.error(), net::WireError::FrameTooLarge);
  }
}

TEST(Wire, ErrorFrameCarriesStableCodeAndDetail) {
  const auto bytes = net::encode_error_frame(net::Action::Decide, 5,
                                             net::WireError::BadJson, "oops");
  net::FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  net::Frame f;
  ASSERT_TRUE(reader.next(&f));
  EXPECT_EQ(f.header.kind, net::FrameKind::Error);
  const auto doc = obs::JsonValue::parse(f.payload);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get("error")->as_string(), "bad-json");
  EXPECT_EQ(doc->get("detail")->as_string(), "oops");
}

// --- Payload schema ---------------------------------------------------------

TEST(Payload, DecideRequestRoundTripsCanonically) {
  const net::DecideRequest req = small_request();
  const auto json = net::decide_request_to_json(req);
  std::string error;
  const auto back = net::decide_request_from_json(json, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->machine, req.machine);
  EXPECT_EQ(back->budget, req.budget);
  EXPECT_EQ(back->method, req.method);
  // Canonical: re-serialising produces identical bytes.
  EXPECT_EQ(net::decide_request_to_json(*back).dump(), json.dump());
}

TEST(Payload, UnknownTopLevelKeyAndBadSpecVersionAreNamedErrors) {
  auto json = net::decide_request_to_json(small_request());
  json.set("surprise", obs::JsonValue(true));
  std::string error;
  EXPECT_FALSE(net::decide_request_from_json(json, &error).has_value());
  EXPECT_EQ(error, "unknown top-level key: surprise");

  // The retired distributed flag is an unknown key like any other.
  auto dist = net::decide_request_to_json(small_request());
  dist.set("distributed", obs::JsonValue(true));
  error.clear();
  EXPECT_FALSE(net::decide_request_from_json(dist, &error).has_value());
  EXPECT_EQ(error, "unknown top-level key: distributed");

  auto v2 = net::decide_request_to_json(small_request());
  v2.set("spec_version", obs::JsonValue(999));
  error.clear();
  EXPECT_FALSE(net::decide_request_from_json(v2, &error).has_value());
  EXPECT_EQ(error, "unknown spec_version: 999");
}

TEST(Payload, ReportRoundTripIsBitExactIncludingLedger) {
  const auto machine = fuzz::build_machine(small_spec());
  DecisionRequest dr;
  dr.budget = {.max_configs = 50'000, .max_threads = 1, .deadline_ms = 0};
  const DecisionReport report =
      decide(*machine, make_clique({0, 1, 0}), dr);

  const auto json = net::report_to_json(report);
  std::string error;
  const auto back = net::report_from_json(json, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_TRUE(*back == report);  // operator== covers the memory ledger too
}

TEST(Payload, CacheKeyIgnoresTraceFlagButNotBudget) {
  net::DecideRequest a = small_request();
  net::DecideRequest b = a;
  b.want_trace = true;
  EXPECT_EQ(net::cache_key(a), net::cache_key(b));
  b.budget.max_configs = 123;
  EXPECT_NE(net::cache_key(a), net::cache_key(b));
}

// --- Result cache -----------------------------------------------------------

TEST(Cache, LruEvictsByEntryCount) {
  net::ResultCache cache(/*max_entries=*/2, /*max_bytes=*/1 << 20);
  cache.insert("a", "1");
  cache.insert("b", "2");
  std::string v;
  ASSERT_TRUE(cache.lookup("a", &v));  // freshen "a": "b" becomes LRU
  cache.insert("c", "3");
  EXPECT_TRUE(cache.lookup("a", &v));
  EXPECT_FALSE(cache.lookup("b", &v));
  EXPECT_TRUE(cache.lookup("c", &v));
  const net::CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
}

TEST(Cache, ByteCapEvictsAndHugeValuesAreNotCached) {
  net::ResultCache cache(/*max_entries=*/100, /*max_bytes=*/64);
  cache.insert("k1", std::string(20, 'x'));
  cache.insert("k2", std::string(20, 'y'));
  cache.insert("k3", std::string(20, 'z'));  // over 64 bytes total: evict k1
  std::string v;
  EXPECT_FALSE(cache.lookup("k1", &v));
  EXPECT_TRUE(cache.lookup("k3", &v));
  cache.insert("huge", std::string(1000, 'h'));
  EXPECT_FALSE(cache.lookup("huge", &v));
}

TEST(Cache, OversizeInsertsAreCountedAndNotCached) {
  net::ResultCache cache(/*max_entries=*/10, /*max_bytes=*/32);
  cache.insert("small", "v");
  cache.insert("big", std::string(100, 'b'));  // key+value > 32: rejected
  cache.insert("big", std::string(100, 'b'));  // and counted every time
  std::string v;
  EXPECT_FALSE(cache.lookup("big", &v));
  EXPECT_TRUE(cache.lookup("small", &v));  // untouched by the rejection
  const net::CacheStats s = cache.stats();
  EXPECT_EQ(s.oversize_rejections, 2u);
  EXPECT_EQ(s.insertions, 1u);  // only "small" counted as an insertion
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, 0u);  // a rejection never evicts resident entries
}

TEST(Cache, ZeroCapsMeanUnlimitedForBothAxes) {
  // max_entries == 0 and max_bytes == 0 both mean "unlimited" — neither is
  // clamped to 1 nor treated as "never insert" (docs/SERVICE.md).
  net::ResultCache unlimited(/*max_entries=*/0, /*max_bytes=*/0);
  for (int i = 0; i < 200; ++i) {
    unlimited.insert(std::to_string(i), std::string(100, 'v'));
  }
  std::string v;
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(unlimited.lookup(std::to_string(i), &v));
  }
  const net::CacheStats s = unlimited.stats();
  EXPECT_EQ(s.entries, 200u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.oversize_rejections, 0u);
  EXPECT_EQ(s.max_entries, 0u);
  EXPECT_EQ(s.max_bytes, 0u);

  // Unlimited bytes with a finite entry cap still evicts by count.
  net::ResultCache by_count(/*max_entries=*/2, /*max_bytes=*/0);
  by_count.insert("a", std::string(1 << 16, 'a'));
  by_count.insert("b", "2");
  by_count.insert("c", "3");
  EXPECT_FALSE(by_count.lookup("a", &v));
  EXPECT_EQ(by_count.stats().entries, 2u);
}

TEST(Cache, ClearDropsContentButKeepsLifetimeCounters) {
  net::ResultCache cache(/*max_entries=*/2, /*max_bytes=*/64);
  cache.insert("a", "1");
  cache.insert("b", "2");
  cache.insert("c", "3");                      // evicts "a"
  cache.insert("big", std::string(100, 'x'));  // oversize rejection
  std::string v;
  EXPECT_TRUE(cache.lookup("b", &v));   // hit
  EXPECT_FALSE(cache.lookup("z", &v));  // miss
  const net::CacheStats before = cache.stats();

  cache.clear();

  const net::CacheStats after = cache.stats();
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(after.bytes, 0u);
  EXPECT_FALSE(cache.lookup("b", &v));  // content really gone
  // History survives the flush (the lookup above added one miss).
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.insertions, before.insertions);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.oversize_rejections, before.oversize_rejections);
}

TEST(Cache, ByteAccountingMatchesLiveEntriesUnderRandomChurn) {
  // The invariant behind every cap decision: stats().bytes is exactly the
  // sum of key+value sizes of the live entries — overwrites with larger
  // values, evictions and oversize rejections never drift or underflow it.
  Rng rng(0xcafe);
  net::ResultCache cache(/*max_entries=*/16, /*max_bytes=*/2048);
  std::vector<std::string> keys;
  for (int i = 0; i <= 24; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    keys.push_back(std::move(key));
  }
  std::string v;
  for (int step = 0; step < 3000; ++step) {
    const std::string& key = keys[static_cast<std::size_t>(rng.uniform(0, 24))];
    const auto action = rng.uniform(0, 3);
    if (action == 0) {
      cache.lookup(key, &v);
    } else if (action == 3) {
      cache.clear();
    } else {
      // Sizes straddle the byte cap so overwrite-smaller, overwrite-larger,
      // eviction cascades and oversize rejections all occur.
      cache.insert(key,
                   std::string(static_cast<std::size_t>(rng.uniform(0, 700)),
                               'v'));
    }
    const net::CacheStats s = cache.stats();
    EXPECT_LE(s.bytes, 2048u);
    EXPECT_LE(s.entries, 16u);
  }
  // Recompute the live footprint by draining the cache through lookups of
  // every possible key and comparing against the reported totals.
  std::size_t live_bytes = 0;
  std::size_t live_entries = 0;
  for (const std::string& key : keys) {
    if (cache.lookup(key, &v)) {
      live_bytes += key.size() + v.size();
      ++live_entries;
    }
  }
  const net::CacheStats s = cache.stats();
  EXPECT_EQ(s.bytes, live_bytes);
  EXPECT_EQ(s.entries, live_entries);
}

// --- Live server ------------------------------------------------------------

TEST(Server, PingAndStatsRoundTrip) {
  LiveServer live;
  net::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(live.address(), &error)) << error;
  EXPECT_TRUE(client.ping(&error)) << error;
  const auto stats = client.cache_stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->get("spec_version")->as_int(), fuzz::kSpecVersion);
}

TEST(Server, DecideMatchesInProcessDecideBitExactly) {
  LiveServer live;
  net::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(live.address(), &error)) << error;

  const net::DecideRequest req = small_request();
  const auto reply = client.decide(req, &error);
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_FALSE(reply->cache_hit);
  EXPECT_FALSE(reply->clamped);

  const auto machine = fuzz::build_machine(req.machine);
  DecisionRequest dr;
  dr.method = req.method;
  dr.budget = req.budget;
  const DecisionReport local = decide(*machine, req.graph, dr);
  EXPECT_TRUE(reply->report == local);

  // The CacheStats reply is written after the Decide's reply was counted.
  const auto stats = client.cache_stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_GT(stats->get("bytes_in_client")->as_int(), 0);   // the request
  EXPECT_GT(stats->get("bytes_out_client")->as_int(), 0);  // its reply
}

TEST(Server, RepeatedRequestIsServedFromCacheBitIdentically) {
  LiveServer live;
  net::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(live.address(), &error)) << error;

  const net::DecideRequest req = small_request(11);
  const auto first = client.decide(req, &error);
  ASSERT_TRUE(first.has_value()) << error;
  EXPECT_FALSE(first->cache_hit);

  const auto second = client.decide(req, &error);
  ASSERT_TRUE(second.has_value()) << error;
  EXPECT_TRUE(second->cache_hit);
  EXPECT_TRUE(second->report == first->report);

  // A fresh connection hits the same entry (the cache is content-keyed, not
  // per-connection).
  net::Client other;
  ASSERT_TRUE(other.connect(live.address(), &error)) << error;
  const auto third = other.decide(req, &error);
  ASSERT_TRUE(third.has_value()) << error;
  EXPECT_TRUE(third->cache_hit);
  EXPECT_TRUE(third->report == first->report);
}

TEST(Server, RetiredPackingFlagSharesOneCacheEntry) {
  // Older spec-v1 clients still send "use_packing". The server ignores it
  // (packing follows the machine), so two Decides that differ only in that
  // flag share one cache entry and the second replays the first's report
  // bytes.
  LiveServer live;
  net::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(live.address(), &error)) << error;

  net::DecideRequest req = small_request(19);
  req.graph = make_cycle({0, 1, 0, 1, 1});  // explicit backend
  std::string reports[2];
  bool hits[2] = {};
  int i = 0;
  for (const bool flag : {false, true}) {
    obs::JsonValue doc = net::decide_request_to_json(req);
    obs::JsonValue budget = *doc.get("budget");
    budget.set("use_packing", obs::JsonValue(flag));
    doc.set("budget", budget);
    net::Frame reply;
    ASSERT_TRUE(client.call(net::Action::Decide, doc.dump(), &reply, &error))
        << error;
    ASSERT_EQ(reply.header.kind, net::FrameKind::Response) << reply.payload;
    const auto parsed = obs::JsonValue::parse(reply.payload);
    ASSERT_TRUE(parsed.has_value());
    reports[i] = parsed->get("report")->dump();
    hits[i] = parsed->get("cache_hit")->as_bool();
    ++i;
  }
  EXPECT_FALSE(hits[0]);
  EXPECT_TRUE(hits[1]);
  EXPECT_EQ(reports[1], reports[0]);
  EXPECT_NE(reports[0].find(R"("packed_store":true)"), std::string::npos)
      << reports[0];
}

TEST(Server, BudgetIsClampedAgainstServerCaps) {
  net::ServerOptions opts;
  opts.max_configs_cap = 1'000;
  LiveServer live(opts);
  net::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(live.address(), &error)) << error;

  net::DecideRequest req = small_request();
  req.budget.max_configs = 999'999'999;  // above the server cap
  const auto reply = client.decide(req, &error);
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_TRUE(reply->clamped);

  // The clamped request and an explicitly capped one share a cache entry.
  net::DecideRequest capped = small_request();
  capped.budget.max_configs = 1'000;
  const auto reply2 = client.decide(capped, &error);
  ASSERT_TRUE(reply2.has_value()) << error;
  EXPECT_TRUE(reply2->cache_hit);
  EXPECT_TRUE(reply2->report == reply->report);
}

TEST(Server, MalformedFrameGetsStructuredErrorThenClose) {
  LiveServer live;
  net::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(live.address(), &error)) << error;

  auto bytes = net::encode_frame(net::Action::Ping, net::FrameKind::Request,
                                 42, "");
  bytes[0] ^= 0xff;  // corrupt the magic
  ASSERT_TRUE(client.send_raw(bytes.data(), bytes.size(), &error)) << error;

  net::Frame reply;
  bool closed = false;
  ASSERT_TRUE(client.read_frame(&reply, &closed, &error)) << error;
  EXPECT_EQ(reply.header.kind, net::FrameKind::Error);
  const auto doc = obs::JsonValue::parse(reply.payload);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get("error")->as_string(), "bad-magic");

  // The stream is unresyncable: the server closes after flushing the error.
  EXPECT_FALSE(client.read_frame(&reply, &closed, &error));
  EXPECT_TRUE(closed);
}

TEST(Server, MalformedJsonAndSchemaViolationsKeepTheConnectionAlive) {
  LiveServer live;
  net::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(live.address(), &error)) << error;

  net::Frame reply;
  ASSERT_TRUE(client.call(net::Action::Decide, "{not json", &reply, &error))
      << error;
  ASSERT_EQ(reply.header.kind, net::FrameKind::Error);
  EXPECT_EQ(obs::JsonValue::parse(reply.payload)->get("error")->as_string(),
            "bad-json");

  ASSERT_TRUE(client.call(net::Action::Decide, "{\"spec_version\": 31}",
                          &reply, &error))
      << error;
  ASSERT_EQ(reply.header.kind, net::FrameKind::Error);
  EXPECT_EQ(obs::JsonValue::parse(reply.payload)->get("error")->as_string(),
            "bad-spec-version");

  auto dist = net::decide_request_to_json(small_request());
  dist.set("distributed", obs::JsonValue(true));
  ASSERT_TRUE(client.call(net::Action::Decide, dist.dump(), &reply, &error))
      << error;
  ASSERT_EQ(reply.header.kind, net::FrameKind::Error);
  const auto body = obs::JsonValue::parse(reply.payload);
  EXPECT_EQ(body->get("error")->as_string(), "bad-schema");
  EXPECT_EQ(body->get("detail")->as_string(),
            "unknown top-level key: distributed");

  // Framing-valid garbage never cost us the connection: a Ping still works.
  EXPECT_TRUE(client.ping(&error)) << error;
}

// Regression: replying to a peer whose socket died mid-handler used to
// destroy the Connection while handle_cancel/handle_frame still held a
// reference to it. Pipeline a burst ending in a Cancel, then RST the
// connection so the server's reply writes fail; the server must survive
// (under ASan this is the use-after-free repro).
TEST(Server, AbruptDisconnectWithPendingRepliesIsHarmless) {
  LiveServer live;
  std::string error;
  const int fd = net::connect_with_retry(live.address(), {}, &error);
  ASSERT_GE(fd, 0) << error;

  std::vector<std::uint8_t> burst;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto ping =
        net::encode_frame(net::Action::Ping, net::FrameKind::Request, i, "");
    burst.insert(burst.end(), ping.begin(), ping.end());
  }
  const auto cancel = net::encode_frame(
      net::Action::Cancel, net::FrameKind::Request, 99, "{\"nonce\": 7}");
  burst.insert(burst.end(), cancel.begin(), cancel.end());
  ASSERT_EQ(send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  // SO_LINGER with zero timeout turns close() into an RST: the server's
  // queued replies now fail to send while their handlers are on the stack.
  struct linger lg = {1, 0};
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  close(fd);

  // The server survives and keeps serving fresh connections.
  net::Client client;
  ASSERT_TRUE(client.connect(live.address(), &error)) << error;
  EXPECT_TRUE(client.ping(&error)) << error;
}

// A peer that pipelines requests without ever reading replies refreshes its
// last_activity on every read, so the idle timeout never fires; the
// write-queue byte cap is what disconnects it.
TEST(Server, WriteQueueCapDisconnectsNonReadingPipeliner) {
  net::ServerOptions opts;
  opts.max_writeq_bytes = 4 * 1024;
  LiveServer live(opts);
  std::string error;
  const int fd = net::connect_with_retry(live.address(), {}, &error);
  ASSERT_GE(fd, 0) << error;

  // Never read: replies pile into kernel buffers, then the server-side
  // write queue, which trips the cap and RSTs us (close with unread data).
  // Pipeline until a send fails. A fixed number of pings is no bound: the
  // kernel can buffer megabytes of requests, so a burst may end before a
  // slow server has answered enough of them to trip the cap. A deadline
  // bounds the loop instead, and SO_SNDTIMEO bounds each blocked send; a
  // send cut short by the timeout resumes mid-frame so framing stays valid.
  const auto ping =
      net::encode_frame(net::Action::Ping, net::FrameKind::Request, 9, "");
  timeval send_timeout{1, 0};
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout, sizeof(send_timeout));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool closed = false;
  std::size_t off = 0;
  while (!closed && std::chrono::steady_clock::now() < deadline) {
    const ssize_t n =
        send(fd, ping.data() + off, ping.size() - off, MSG_NOSIGNAL);
    if (n >= 0) {
      off = (off + static_cast<std::size_t>(n)) % ping.size();
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      closed = true;
    }
  }
  EXPECT_TRUE(closed);
  close(fd);

  // Only the abusive connection was dropped; the server still serves.
  net::Client client;
  ASSERT_TRUE(client.connect(live.address(), &error)) << error;
  EXPECT_TRUE(client.ping(&error)) << error;
}

TEST(Server, CancelOfUnknownNonceReportsFalse) {
  LiveServer live;
  net::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(live.address(), &error)) << error;
  const auto cancelled = client.cancel(424242, &error);
  ASSERT_TRUE(cancelled.has_value()) << error;
  EXPECT_FALSE(*cancelled);
}

TEST(Server, DrainRejectsNewDecidesAndRunExits) {
  LiveServer live;
  net::Client client;
  std::string error;
  ASSERT_TRUE(client.connect(live.address(), &error)) << error;
  ASSERT_TRUE(client.ping(&error)) << error;

  live.server().request_drain();
  // Draining: Ping still answers (so health checks see the drain), new
  // Decide work is refused with a structured "draining" error.
  net::Frame reply;
  const std::string payload =
      net::decide_request_to_json(small_request()).dump();
  if (client.call(net::Action::Decide, payload, &reply, &error)) {
    EXPECT_EQ(reply.header.kind, net::FrameKind::Error);
    EXPECT_EQ(obs::JsonValue::parse(reply.payload)->get("error")->as_string(),
              "draining");
  }
  // ~LiveServer joins the poll loop: a hang here is the test failure.
}

TEST(Client, ConnectWithRetryReachesLiveServer) {
  LiveServer live;
  net::Client client;
  net::ConnectOptions copts;
  copts.timeout_ms = 2'000;
  copts.retries = 2;
  copts.backoff_ms = 10;
  std::string error;
  ASSERT_TRUE(client.connect(live.address(), copts, &error)) << error;
  EXPECT_TRUE(client.ping(&error)) << error;
}

TEST(Client, ConnectRetryExhaustionNamesAttemptsAndAddress) {
  // A closed loopback port refuses immediately, so three bounded attempts
  // (retries=2) complete fast. Grab a port that nothing listens on by
  // binding an ephemeral listener and closing it.
  std::string dead_address;
  {
    LiveServer probe;
    dead_address = probe.address();
  }
  net::Client client;
  net::ConnectOptions copts;
  copts.timeout_ms = 500;
  copts.retries = 2;
  copts.backoff_ms = 10;
  std::string error;
  EXPECT_FALSE(client.connect(dead_address, copts, &error));
  EXPECT_NE(error.find("3 attempts"), std::string::npos) << error;
  EXPECT_NE(error.find(dead_address), std::string::npos) << error;
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
  for (Case& c : cases) {
    c.opts.listen = "tcp:127.0.0.1:0";
    net::Server server(c.opts);
    std::string error;
    EXPECT_FALSE(server.start(&error)) << c.what;
    EXPECT_NE(error.find("server-options:"), std::string::npos) << error;
    EXPECT_NE(error.find(c.what), std::string::npos) << error;
  }
}

TEST(Server, FrameGarbageFuzzContractHolds) {
  net::ServerOptions opts;
  opts.read_timeout_ms = 500;  // garbage streams stall on purpose
  opts.idle_timeout_ms = 2'000;
  LiveServer live(opts);

  net::FrameFuzzOptions fopts;
  fopts.cases = 120;
  fopts.seed = 1;
  const net::FrameFuzzResult result =
      net::run_frame_fuzz(live.address(), fopts);
  EXPECT_TRUE(result.ok()) << result.failure;
  EXPECT_EQ(result.cases_run, 120);
  EXPECT_GT(result.error_frames, 0);
  EXPECT_GT(result.ok_frames, 0);  // the valid-ping cases
}

}  // namespace
