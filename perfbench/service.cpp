// The service workload: an in-process dawnd server (net::Server with the
// dawnd defaults: 2 workers, a 1024-entry cache) on an ephemeral loopback
// port, driven in a closed loop by two net::Client connections on two
// threads. 75% of requests come from a hot set of 64 that set-up primes,
// so every hot request is a cache hit; 25% are fresh and decided cold.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>

#include "dawn/fuzz/gen.hpp"
#include "dawn/graph/generators.hpp"
#include "dawn/net/cache.hpp"
#include "dawn/net/client.hpp"
#include "dawn/net/payload.hpp"
#include "dawn/net/server.hpp"
#include "dawn/net/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace net = dawn::net;

constexpr int kClients = 2;
constexpr int kHotSet = 64;
constexpr double kHotShare = 0.75;
constexpr std::size_t kMaxConfigs = 20'000;
// Exchanges per client kept for the traced run's codec probes.
constexpr std::size_t kKeptExchanges = 1500;
// The traced run sends a fixed number of requests per client, so the
// server's cache and wire counters repeat exactly.
constexpr int kTracedRequests = 5000;

// A small seeded Decide: a fuzz machine with `states` states on a clique,
// star, cycle or line (`topology` 0..3) of n nodes. |Q|^n <= 5^6 <
// kMaxConfigs, so no request can hit the cap.
net::DecideRequest small_request(dawn::Rng& rng, int states, int topology,
                                 int n) {
  net::DecideRequest req;
  dawn::fuzz::MachineGenOptions opts;
  opts.min_states = states;
  opts.max_states = states;
  opts.max_labels = 2;
  req.machine = dawn::fuzz::gen_machine(rng, opts);
  std::vector<dawn::Label> labels(static_cast<std::size_t>(n));
  for (auto& l : labels) {
    l = static_cast<dawn::Label>(
        rng.index(static_cast<std::size_t>(req.machine.num_labels)));
  }
  switch (topology) {
    case 0:
      req.graph = dawn::make_clique(labels);
      break;
    case 1:
      req.graph = dawn::make_star(labels.front(),
                                  std::vector<dawn::Label>(labels.begin() + 1,
                                                           labels.end()));
      break;
    case 2:
      req.graph = dawn::make_cycle(labels);
      break;
    default:
      req.graph = dawn::make_line(labels);
      break;
  }
  req.budget.max_configs = kMaxConfigs;
  req.budget.max_threads = 1;
  return req;
}

// Fresh traffic: 3-5 states, any of the four topologies, 4-6 nodes.
net::DecideRequest fresh_request(dawn::Rng& rng) {
  const int states = static_cast<int>(rng.uniform(3, 5));
  const int topology = static_cast<int>(rng.index(4));
  return small_request(rng, states, topology, static_cast<int>(rng.uniform(4, 6)));
}

// The hot set cycles through the four topologies with 3-4 states on 4-5
// nodes (at most 4^5 configs), so priming it in set-up is cheap for every
// seed; its replies are cache hits either way.
net::DecideRequest hot_request(dawn::Rng& rng, int i) {
  return small_request(rng, 3 + i % 2, (i / 2) % 4, 4 + (i / 8) % 2);
}

std::string encode(const net::DecideRequest& req) {
  return net::decide_request_to_json(req).dump();
}

// A running server and its connected clients; drains and joins on
// destruction.
struct Service {
  std::unique_ptr<net::Server> server;
  std::thread loop;
  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<net::DecideRequest> hot;
  std::vector<std::string> hot_request;    // encoded
  std::vector<std::string> hot_reply;      // the first (miss) reply
  std::vector<std::string> hot_hit_reply;  // ... as every later hit reads

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() {
    for (auto& c : clients) c->disconnect();
    if (server != nullptr) server->request_drain();
    if (loop.joinable()) loop.join();
  }
};

[[noreturn]] void fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

// Starts the server, connects the clients, primes the hot set (each first
// request misses and is decided) and runs one warm-up hit.
std::unique_ptr<Service> start_service(std::uint64_t seed, int hot_count) {
  auto s = std::make_unique<Service>();
  net::ServerOptions opts;
  opts.listen = "tcp:127.0.0.1:0";
  s->server = std::make_unique<net::Server>(opts);
  std::string error;
  if (!s->server->start(&error)) fatal("server start failed: " + error);
  s->loop = std::thread([srv = s->server.get()] { srv->run(); });
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<net::Client>();
    if (!client->connect(s->server->address(), &error)) {
      fatal("connect failed: " + error);
    }
    s->clients.push_back(std::move(client));
  }
  dawn::Rng rng(seed * 0xa0761d6478bd642fULL + 7);
  for (int i = 0; i < hot_count; ++i) {
    s->hot.push_back(hot_request(rng, i));
    s->hot_request.push_back(encode(s->hot.back()));
    net::Frame frame;
    if (!s->clients[0]->call(net::Action::Decide, s->hot_request.back(), &frame,
                             &error) ||
        frame.header.kind != net::FrameKind::Response) {
      fatal("priming the hot set failed: " + error + frame.payload);
    }
    s->hot_reply.push_back(frame.payload);
    std::string hit = frame.payload;
    const std::string miss_flag = "\"cache_hit\":false";
    const auto at = hit.find(miss_flag);
    if (at != std::string::npos) hit.replace(at, miss_flag.size(), "\"cache_hit\":true");
    s->hot_hit_reply.push_back(std::move(hit));
  }
  net::Frame frame;
  (void)s->clients[1]->call(net::Action::Decide, s->hot_request.front(), &frame);
  return s;
}

// Why a reply is wrong, or "" when it is right. A hot request's reply must
// repeat its key's first reply byte for byte (with cache_hit set); a fresh
// one must be a miss. Either must carry a decided report.
std::string reply_problem(const net::Frame& frame,
                          const std::optional<net::DecideReply>& reply,
                          const std::string* hit_reply) {
  if (frame.header.kind != net::FrameKind::Response) {
    return "error frame: " + frame.payload;
  }
  if (!reply || reply->report.decision == dawn::Decision::Unknown) {
    return "bad or unknown reply: " + frame.payload;
  }
  if (hit_reply != nullptr && frame.payload != *hit_reply) {
    return "hit reply differs from the key's first reply: " + frame.payload;
  }
  if (hit_reply == nullptr && reply->cache_hit) {
    return "fresh request hit the cache";
  }
  return "";
}

struct Exchange {
  std::string request;
  std::string reply;
  bool hot = false;
};

struct ClientRun {
  std::vector<double> rtt_s;
  std::vector<double> hit_rtt_s;
  std::vector<Exchange> kept;
  std::vector<std::string> records;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  Clock::time_point finished;
};

// One closed-loop client: send, wait for the parsed reply, check it, send
// the next. Stops at `end`, or after `max_requests` when that is nonzero.
void drive_client(const Service& s, int c, std::uint64_t seed,
                  Clock::time_point end, int max_requests, SpanLog* spans,
                  ClientRun& out) {
  dawn::Rng pick(seed * 0xe7037ed1a0b428dbULL + 11 + static_cast<std::uint64_t>(c));
  dawn::Rng fresh(seed * 0x8ebc6af09c88c6e3ULL + 13 + static_cast<std::uint64_t>(c));
  net::Client& client = *s.clients[static_cast<std::size_t>(c)];
  for (int i = 0;; ++i) {
    if (max_requests > 0 ? i >= max_requests : Clock::now() >= end) break;
    const bool hot = pick.chance(kHotShare);
    std::size_t k = 0;
    std::string fresh_bytes;
    if (hot) {
      k = pick.index(s.hot.size());
    } else {
      fresh_bytes = encode(fresh_request(fresh));
    }
    const std::string& request = hot ? s.hot_request[k] : fresh_bytes;
    const SpanScope span(spans, hot ? "request hot" : "request fresh");
    ++out.attempted;
    net::Frame frame;
    std::string error;
    const auto t0 = Clock::now();
    const bool sent = client.call(net::Action::Decide, request, &frame, &error);
    std::optional<net::DecideReply> reply;
    if (sent && frame.header.kind == net::FrameKind::Response) {
      if (const auto doc = dawn::obs::JsonValue::parse(frame.payload)) {
        reply = net::decide_reply_from_json(*doc);
      }
    }
    const double rtt = seconds_since(t0);
    if (!sent) {  // the connection is gone; nothing more will arrive
      out.failures.push_back("transport: " + error);
      break;
    }
    const std::string problem =
        reply_problem(frame, reply, hot ? &s.hot_hit_reply[k] : nullptr);
    if (!problem.empty()) {
      out.failures.push_back(problem);
      continue;
    }
    out.rtt_s.push_back(rtt);
    if (hot) out.hit_rtt_s.push_back(rtt);
    out.records.push_back(std::string(hot ? "h" : "m") + "," +
                          std::to_string(request.size()) + "," +
                          std::to_string(frame.payload.size()));
    if (out.kept.size() < kKeptExchanges) {
      out.kept.push_back({request, frame.payload, hot});
    }
  }
  out.finished = Clock::now();
}

struct LoadResult {
  std::vector<ClientRun> clients;
  double seconds = 0.0;
  std::uint64_t replies = 0;
  std::vector<double> rtt_s;
  std::vector<double> hit_rtt_s;
};

LoadResult drive(const Service& s, std::uint64_t seed, double seconds,
                 int max_requests, SpanLog* spans, RunResult& result) {
  LoadResult load;
  load.clients.resize(kClients);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        drive_client(s, c, seed, end, max_requests, spans,
                     load.clients[static_cast<std::size_t>(c)]);
      });
    }
    for (auto& t : threads) t.join();
  }
  Clock::time_point finished = start;
  for (int c = 0; c < kClients; ++c) {
    ClientRun& run = load.clients[static_cast<std::size_t>(c)];
    finished = std::max(finished, run.finished);
    result.attempted += run.attempted;
    for (const std::string& f : run.failures) result.fail("service: " + f);
    load.replies += run.rtt_s.size();
    load.rtt_s.insert(load.rtt_s.end(), run.rtt_s.begin(), run.rtt_s.end());
    load.hit_rtt_s.insert(load.hit_rtt_s.end(), run.hit_rtt_s.begin(),
                          run.hit_rtt_s.end());
    result.records["client" + std::to_string(c)] = std::move(run.records);
  }
  load.seconds = std::chrono::duration<double>(finished - start).count();
  return load;
}

double us_per(double seconds, std::size_t count) {
  return seconds * 1e6 / static_cast<double>(count);
}

// Layer probes on the run's own bytes: framing, request decode, cache key
// and lookup, reply encode, and in-process decide() of the cold requests,
// whose reports must equal the server's. The server's counters give the
// cache hit share and the wire bytes per request.
Metrics probe_net(const Service& s, const LoadResult& load, RunResult& result,
                  SpanLog* spans, int parent) {
  Metrics m;
  std::vector<const Exchange*> kept;
  for (const ClientRun& run : load.clients) {
    for (const Exchange& e : run.kept) kept.push_back(&e);
  }
  {
    const SpanScope span(spans, "probe frames", parent);
    std::uint64_t nonce = 0;
    std::size_t frames = 0;
    net::FrameReader reader;
    net::Frame frame;
    const auto t0 = Clock::now();
    for (const Exchange* e : kept) {
      for (const std::string* payload : {&e->request, &e->reply}) {
        const auto bytes = net::encode_frame(net::Action::Decide,
                                             net::FrameKind::Response, ++nonce,
                                             *payload);
        reader.feed(bytes.data(), bytes.size());
        if (!reader.next(&frame) || frame.payload.size() != payload->size()) {
          result.fail("frame round trip lost bytes");
        }
        ++frames;
      }
    }
    m["net.frame_ns"] = {seconds_since(t0) * 1e9 / static_cast<double>(frames), "ns"};
  }
  std::vector<net::DecideRequest> requests;
  std::vector<net::DecideReply> replies;
  {
    const SpanScope span(spans, "probe request decode", parent);
    const auto t0 = Clock::now();
    for (const Exchange* e : kept) {
      const auto doc = dawn::obs::JsonValue::parse(e->request);
      auto req = doc ? net::decide_request_from_json(*doc) : std::nullopt;
      if (!req) {
        result.fail("request does not decode: " + e->request);
        return m;
      }
      requests.push_back(std::move(*req));
    }
    m["net.request_decode_us"] = {us_per(seconds_since(t0), kept.size()), "us"};
    for (const Exchange* e : kept) {
      replies.push_back(*net::decide_reply_from_json(
          *dawn::obs::JsonValue::parse(e->reply)));
    }
  }
  {
    const SpanScope span(spans, "probe cache", parent);
    net::ResultCache cache(1024);
    for (std::size_t i = 0; i < s.hot.size(); ++i) {
      cache.insert(net::cache_key(s.hot[i]), s.hot_reply[i]);
    }
    std::string value;
    std::size_t hits = 0;
    const auto t0 = Clock::now();
    for (const net::DecideRequest& req : requests) {
      hits += cache.lookup(net::cache_key(req), &value) ? 1 : 0;
    }
    m["net.cache_us"] = {us_per(seconds_since(t0), requests.size()), "us"};
    result.records["probe"].push_back("cache-hits:" + std::to_string(hits));
  }
  {
    const SpanScope span(spans, "probe reply encode", parent);
    std::size_t bytes = 0;
    const auto t0 = Clock::now();
    for (const net::DecideReply& reply : replies) {
      bytes += net::decide_reply_to_json(reply).dump().size();  // + report_to_json
    }
    m["net.reply_encode_us"] = {us_per(seconds_since(t0), replies.size()), "us"};
    result.records["probe"].push_back("reply-bytes:" + std::to_string(bytes));
  }
  {
    const SpanScope span(spans, "probe decide", parent);
    std::vector<double> decide_us;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (kept[i]->hot) continue;  // hot keys were decided once, in set-up
      const auto machine = dawn::fuzz::build_machine(requests[i].machine);
      dawn::DecisionRequest dr;
      dr.method = requests[i].method;
      dr.budget = requests[i].budget;
      const auto t0 = Clock::now();
      const dawn::DecisionReport r = dawn::decide(*machine, requests[i].graph, dr);
      decide_us.push_back(seconds_since(t0) * 1e6);
      if (!(r == replies[i].report)) {
        result.fail("server report differs from in-process decide(): " +
                    kept[i]->request);
      }
    }
    m["net.decide_us_p50"] = {quantile(decide_us, 0.5), "us"};
    m["net.decide_us_p90"] = {quantile(decide_us, 0.9), "us"};
  }
  const double hit_us = median(load.hit_rtt_s) * 1e6;
  m["net.unattributed_us"] = {
      hit_us - (2 * m["net.frame_ns"].value / 1e3 + m["net.request_decode_us"].value +
                m["net.cache_us"].value + m["net.reply_encode_us"].value),
      "us"};

  std::string error;
  const auto stats = s.clients[0]->cache_stats(&error);
  if (!stats) {
    result.fail("cache_stats failed: " + error);
    return m;
  }
  const auto count = [&](const char* key) {
    const auto* v = stats->get(key);
    return v != nullptr ? static_cast<std::uint64_t>(v->as_int()) : 0;
  };
  const std::uint64_t hits = count("hits");
  const std::uint64_t misses = count("misses");
  const std::uint64_t wire = count("bytes_in_client") + count("bytes_out_client");
  m["net.cache_hit_frac"] = {
      static_cast<double>(hits) / static_cast<double>(hits + misses), "ratio"};
  m["net.bytes_per_req"] = {
      static_cast<double>(wire) / static_cast<double>(count("requests")), "B"};
  result.counts.set("cache_hits", Json(hits));
  result.counts.set("cache_misses", Json(misses));
  result.counts.set("wire_bytes", Json(wire));
  return m;
}

std::vector<ExploreInstance> as_instances(const Service& s) {
  std::vector<ExploreInstance> out;
  for (const net::DecideRequest& req : s.hot) {
    ExploreInstance inst;
    const auto spec = req.machine;
    inst.build = [spec] { return dawn::fuzz::build_machine(spec); };
    inst.graph = req.graph;
    inst.family = "hot-" + spec.cls.name();
    out.push_back(std::move(inst));
  }
  return out;
}

}  // namespace

Metrics probe_net_standin(std::uint64_t seed, RunResult& result, SpanLog* spans,
                          int parent) {
  const auto s = start_service(seed, 16);
  const LoadResult load = drive(*s, seed, 0.0, 200, nullptr, result);
  result.records.erase("client0");
  result.records.erase("client1");
  return probe_net(*s, load, result, spans, parent);
}

int selftest_service() {
  int bad = 0;
  const auto expect = [&bad](bool ok, const char* what) {
    std::fprintf(stderr, "selftest %s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++bad;
  };
  dawn::Rng rng(1);
  const net::DecideRequest req = fresh_request(rng);
  const auto machine = dawn::fuzz::build_machine(req.machine);
  dawn::DecisionRequest dr;
  dr.budget = req.budget;
  net::DecideReply reply;
  reply.report = dawn::decide(*machine, req.graph, dr);
  reply.cache_hit = true;
  net::Frame frame;
  frame.header.kind = net::FrameKind::Response;
  frame.payload = net::decide_reply_to_json(reply).dump();
  const std::string first = frame.payload;
  expect(reply_problem(frame, reply, &first).empty(), "an identical hit passes");
  std::string other = first;
  other[other.size() / 2] ^= 1;
  expect(!reply_problem(frame, reply, &other).empty(),
         "a hit whose bytes differ from the first reply fails");
  expect(!reply_problem(frame, reply, nullptr).empty(),
         "a fresh request served from the cache fails");
  net::DecideReply unknown = reply;
  unknown.report.decision = dawn::Decision::Unknown;
  expect(!reply_problem(frame, unknown, &first).empty(), "an unknown report fails");
  net::Frame error = frame;
  error.header.kind = net::FrameKind::Error;
  expect(!reply_problem(error, reply, &first).empty(), "an error frame fails");
  dawn::DecisionReport skewed = reply.report;
  skewed.configs_explored += 1;
  expect(!(skewed == reply.report), "a report that differs from decide() fails");
  return bad;
}

RunResult run_service(const Args& args) {
  RunResult result;
  SpanLog log;
  SpanLog* spans = args.trace ? &log : nullptr;

  double setup_s = 0.0;
  const std::function<std::unique_ptr<Service>()> setup = [&] {
    return start_service(args.seed, kHotSet);
  };
  const std::unique_ptr<Service> s = timed_setup(setup, &setup_s);

  const LoadResult load =
      drive(*s, args.seed, args.seconds, args.trace ? kTracedRequests : 0, spans,
            result);
  const double rate = static_cast<double>(load.replies) / load.seconds;
  const double p50_ms = median(load.rtt_s) * 1e3;
  const double p99_ms = quantile(load.rtt_s, 0.99) * 1e3;
  Json& sum = result.summary;
  sum.set("req_per_s", Json(rate));
  sum.set("rtt_us_p50", Json(p50_ms * 1e3));
  sum.set("rtt_us_p99", Json(p99_ms * 1e3));
  sum.set("replies", Json(load.replies));
  // Tens of thousands of replies a run: p99 has ten samples beyond it.
  set_end_to_end(result, setup_s, rate, p50_ms, p99_ms);

  if (args.trace) {
    result.summary.set("end_to_end", metrics_json(result.metrics));
    const SpanScope root(spans, "layer probes");
    Metrics layers = probe_net(*s, load, result, spans, root.id());
    fill_missing(layers, probe_explore(as_instances(*s), result, spans, root.id()));
    fill_with_standins(args.seed, layers, result, spans, root.id());
    result.metrics = layers;
  }
  if (spans != nullptr && !args.spans_path.empty()) {
    log.write_chrome(args.spans_path);
  }
  return result;
}

}  // namespace perfbench
