// Distributed frontier exploration benchmark (docs/DISTRIBUTED.md).
//
// Starts an in-process cluster — W worker dawnds plus one coordinator wired
// to them over loopback — and measures one large explicit decision at
// W = 1 and W = 2, all through the public decide_distributed() client path.
// A fresh cluster per regime, so the per-worker dist_store_bytes counters
// are exactly this decision's resident store split.
//
// Headline numbers and gates:
//   * configs/sec per worker count, and the W=2 : W=1 speedup. On hosts
//     with >= 8 hardware threads the speedup must be >= 1.5x (the perf
//     acceptance criterion); below that the ratio is reported, not gated —
//     two single-threaded workers plus a coordinator plus the benchmark
//     client cannot parallelise honestly on a small box.
//   * the memory split is gated ALWAYS: at W=2 each worker's resident
//     store bytes must be within +-20% of total/2 (the ~1/W scaling that
//     makes sharding worth the exchange traffic).
//   * every distributed report must be bit-identical to the local
//     single-process explicit engine on the same instance.
//
// Emits BENCH_distributed.json (schema v1; validated by bench_schema_check).
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dawn/fuzz/artifact.hpp"
#include "dawn/fuzz/gen.hpp"
#include "dawn/graph/generators.hpp"
#include "dawn/net/client.hpp"
#include "dawn/net/server.hpp"
#include "dawn/obs/export.hpp"
#include "dawn/semantics/decision.hpp"

namespace dawn {
namespace {

// ~1M reachable configurations on cycle:10 (seed 7 is a known-rich machine);
// cycle:9 in smoke mode keeps CI under a few seconds per regime.
net::DecideRequest bench_request(bool smoke) {
  net::DecideRequest req;
  req.machine.cls = *fuzz::class_from_name("dAf");
  req.machine.num_states = 4;
  req.machine.num_labels = 2;
  req.machine.beta = 1;
  req.machine.seed = 7;
  req.machine.halt_accept = 1;
  req.machine.halt_reject = 1;
  std::vector<Label> labels(smoke ? 9 : 10);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<Label>(i % 2);
  }
  req.graph = make_cycle(labels);
  req.budget.max_configs = 2'000'000;
  req.budget.max_threads = 1;
  req.method = DecideMethod::Explicit;
  return req;
}

class LiveServer {
 public:
  explicit LiveServer(net::ServerOptions opts) {
    opts.listen = "tcp:127.0.0.1:0";
    server_ = std::make_unique<net::Server>(opts);
    std::string error;
    ok_ = server_->start(&error);
    if (!ok_) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      return;
    }
    loop_ = std::thread([this] { server_->run(); });
  }

  ~LiveServer() {
    if (ok_) server_->request_stop();
    if (loop_.joinable()) loop_.join();
  }

  bool ok() const { return ok_; }
  const std::string& address() const { return server_->address(); }

 private:
  std::unique_ptr<net::Server> server_;
  std::thread loop_;
  bool ok_ = false;
};

struct RunResult {
  bool ok = false;
  double seconds = 0.0;
  double configs_per_sec = 0.0;
  DecisionReport report;
  std::vector<std::uint64_t> worker_store_bytes;
  std::uint64_t total_store_bytes = 0;
};

RunResult run_distributed(const net::DecideRequest& req, int num_workers) {
  RunResult out;
  net::ServerOptions wopts;
  std::vector<std::unique_ptr<LiveServer>> workers;
  for (int i = 0; i < num_workers; ++i) {
    workers.push_back(std::make_unique<LiveServer>(wopts));
    if (!workers.back()->ok()) return out;
  }
  net::ServerOptions copts;
  copts.coordinator = true;
  for (const auto& w : workers) copts.peers.push_back(w->address());
  LiveServer coordinator(copts);
  if (!coordinator.ok()) return out;

  net::Client client;
  std::string error;
  if (!client.connect(coordinator.address(), &error)) {
    std::fprintf(stderr, "connect: %s\n", error.c_str());
    return out;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto reply =
      client.decide_distributed(req, &error, /*timeout_ms=*/600'000);
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  if (!reply) {
    std::fprintf(stderr, "decide_distributed (W=%d): %s\n", num_workers,
                 error.c_str());
    return out;
  }
  out.report = reply->report;
  out.configs_per_sec =
      out.seconds > 0
          ? static_cast<double>(out.report.configs_explored) / out.seconds
          : 0.0;
  // Worker counters over the wire: Server::stats() is poll-thread-only.
  for (const auto& w : workers) {
    net::Client stats_client;
    if (!stats_client.connect(w->address(), &error)) {
      std::fprintf(stderr, "connect: %s\n", error.c_str());
      return out;
    }
    const auto stats = stats_client.cache_stats(&error);
    const obs::JsonValue* bytes =
        stats ? stats->get("dist_store_bytes") : nullptr;
    if (bytes == nullptr) {
      std::fprintf(stderr, "cache_stats (worker): %s\n", error.c_str());
      return out;
    }
    const auto store_bytes = static_cast<std::uint64_t>(bytes->as_int());
    out.worker_store_bytes.push_back(store_bytes);
    out.total_store_bytes += store_bytes;
  }
  out.ok = true;
  return out;
}

}  // namespace
}  // namespace dawn

int main(int argc, char** argv) {
  using namespace dawn;
  const bool smoke = obs::smoke_mode(argc, argv);
  const net::DecideRequest req = bench_request(smoke);

  // Local single-process reference: the distributed reports must match it
  // bit-for-bit, and its throughput anchors the overhead discussion.
  const auto machine = fuzz::build_machine(req.machine);
  DecisionRequest dr;
  dr.method = req.method;
  dr.budget = req.budget;
  const auto t0 = std::chrono::steady_clock::now();
  const DecisionReport local = dawn::decide(*machine, req.graph, dr);
  const double local_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const int worker_counts[] = {1, 2};
  std::vector<RunResult> runs;
  for (const int w : worker_counts) {
    runs.push_back(run_distributed(req, w));
    if (!runs.back().ok) return 1;
    if (!(runs.back().report == local)) {
      std::fprintf(stderr,
                   "FAIL: W=%d distributed report differs from the local "
                   "explicit engine\n",
                   w);
      return 1;
    }
  }

  const double speedup = runs[0].configs_per_sec > 0
                             ? runs[1].configs_per_sec / runs[0].configs_per_sec
                             : 0.0;
  const unsigned cores = std::thread::hardware_concurrency();

  obs::BenchReport report("distributed", smoke);
  report.meta("configs", obs::JsonValue(local.configs_explored));
  report.meta("hardware_threads", obs::JsonValue(static_cast<int>(cores)));
  report.meta("local_configs_per_sec",
              obs::JsonValue(local_seconds > 0
                                 ? static_cast<double>(local.configs_explored) /
                                       local_seconds
                                 : 0.0));
  report.meta("speedup_w2_over_w1", obs::JsonValue(speedup));

  for (std::size_t i = 0; i < runs.size(); ++i) {
    obs::JsonValue& row = report.add_row();
    row.set("workers", obs::JsonValue(worker_counts[i]));
    row.set("seconds", obs::JsonValue(runs[i].seconds));
    row.set("configs", obs::JsonValue(runs[i].report.configs_explored));
    row.set("configs_per_sec", obs::JsonValue(runs[i].configs_per_sec));
    row.set("total_store_bytes", obs::JsonValue(runs[i].total_store_bytes));
    obs::JsonValue per_worker = obs::JsonValue::array();
    for (const std::uint64_t b : runs[i].worker_store_bytes) {
      per_worker.push_back(obs::JsonValue(b));
    }
    row.set("worker_store_bytes", per_worker);
  }

  const std::string path = report.write(".", "distributed");
  if (path.empty()) return 1;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::printf("W=%d  %9.1f configs/s  %6.2fs  store %llu B\n",
                worker_counts[i], runs[i].configs_per_sec, runs[i].seconds,
                static_cast<unsigned long long>(runs[i].total_store_bytes));
  }
  std::printf("speedup W2/W1: %.2fx  (local engine: %.0f configs/s)\n",
              speedup,
              local_seconds > 0
                  ? static_cast<double>(local.configs_explored) / local_seconds
                  : 0.0);
  std::printf("wrote %s\n", path.c_str());

  // Gate 1 (always): at W=2 the resident store splits ~1/W per worker.
  const RunResult& w2 = runs[1];
  const double half = static_cast<double>(w2.total_store_bytes) / 2.0;
  for (std::size_t i = 0; i < w2.worker_store_bytes.size(); ++i) {
    const double b = static_cast<double>(w2.worker_store_bytes[i]);
    if (b < 0.8 * half || b > 1.2 * half) {
      std::fprintf(stderr,
                   "FAIL: worker %zu resident store %.0f B outside +-20%% of "
                   "total/2 (%.0f B)\n",
                   i, b, half);
      return 1;
    }
  }

  // Gate 2 (>= 8 hardware threads only): two workers must beat one by 1.5x.
  if (cores >= 8 && speedup < 1.5) {
    std::fprintf(stderr, "FAIL: W=2 speedup %.2fx < 1.5x on a %u-thread host\n",
                 speedup, cores);
    return 1;
  }
  return 0;
}
