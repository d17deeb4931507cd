// dawnd — the decision service daemon (docs/SERVICE.md).
//
//   dawnd [--listen tcp:HOST:PORT|unix:PATH] [--workers N]
//         [--max-configs N] [--max-threads N] [--deadline-cap-ms N]
//         [--max-payload N] [--max-inflight N] [--max-queue N]
//         [--read-timeout-ms N] [--idle-timeout-ms N]
//         [--cache-entries N] [--cache-bytes N] [--trace-dir DIR]
//         [--spill-dir DIR] [--max-store-bytes N]
//
// Accepts framed Decide/Ping/CacheStats/Cancel requests over TCP or a unix
// socket and answers with serialized DecisionReports, bit-identical to an
// in-process dawn::decide() under the same (clamped) budget. SIGTERM and
// SIGINT trigger a graceful drain: stop accepting, answer inflight work,
// reject new Decides with "draining", flush, exit 0.
//
// Prints one "dawnd listening on <address>" line to stdout once the socket
// is bound (scripts wait for it), and "dawnd drained" on clean shutdown.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "dawn/net/server.hpp"
#include "dawn/util/parse.hpp"

using namespace dawn;

namespace {

net::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

[[noreturn]] void usage(const char* argv0, const std::string& why = "") {
  if (!why.empty()) std::fprintf(stderr, "error: %s\n\n", why.c_str());
  std::fprintf(
      stderr,
      "usage: %s [--listen tcp:HOST:PORT|unix:PATH] [--workers N]\n"
      "          [--max-configs N] [--max-threads N] [--deadline-cap-ms N]\n"
      "          [--max-payload N] [--max-inflight N] [--max-queue N]\n"
      "          [--read-timeout-ms N] [--idle-timeout-ms N]\n"
      "          [--max-writeq-bytes N]\n"
      "          [--cache-entries N] [--cache-bytes N] [--trace-dir DIR]\n"
      "          [--spill-dir DIR] [--max-store-bytes N]\n",
      argv0);
  std::exit(2);
}

std::int64_t require_int(const char* argv0, const char* flag,
                         const std::string& token, std::int64_t lo,
                         std::int64_t hi) {
  const auto v = parse_int(token, lo, hi);
  if (!v) {
    usage(argv0, std::string(flag) + " needs an integer in [" +
                     std::to_string(lo) + ", " + std::to_string(hi) +
                     "], got '" + token + "'");
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  net::ServerOptions opts;
  opts.listen = "tcp:127.0.0.1:7177";

  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (int i = 1; i < argc; ++i) {
    const auto flag_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) usage(argv[0], std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--listen")) {
      opts.listen = flag_value("--listen");
    } else if (!std::strcmp(argv[i], "--workers")) {
      opts.workers = static_cast<int>(
          require_int(argv[0], "--workers", flag_value("--workers"), 0, 4096));
    } else if (!std::strcmp(argv[i], "--max-configs")) {
      opts.max_configs_cap = static_cast<std::size_t>(require_int(
          argv[0], "--max-configs", flag_value("--max-configs"), 1, kMax));
    } else if (!std::strcmp(argv[i], "--max-threads")) {
      opts.max_threads_cap = static_cast<int>(require_int(
          argv[0], "--max-threads", flag_value("--max-threads"), 1, 4096));
    } else if (!std::strcmp(argv[i], "--deadline-cap-ms")) {
      opts.deadline_cap_ms = static_cast<std::uint64_t>(
          require_int(argv[0], "--deadline-cap-ms",
                      flag_value("--deadline-cap-ms"), 0, kMax));
    } else if (!std::strcmp(argv[i], "--max-payload")) {
      opts.max_payload = static_cast<std::size_t>(require_int(
          argv[0], "--max-payload", flag_value("--max-payload"), 64,
          1 << 30));
    } else if (!std::strcmp(argv[i], "--max-inflight")) {
      opts.max_inflight_per_conn = static_cast<int>(require_int(
          argv[0], "--max-inflight", flag_value("--max-inflight"), 1, 4096));
    } else if (!std::strcmp(argv[i], "--max-queue")) {
      opts.max_queue = static_cast<std::size_t>(require_int(
          argv[0], "--max-queue", flag_value("--max-queue"), 1, 1 << 20));
    } else if (!std::strcmp(argv[i], "--read-timeout-ms")) {
      opts.read_timeout_ms = static_cast<std::uint64_t>(
          require_int(argv[0], "--read-timeout-ms",
                      flag_value("--read-timeout-ms"), 0, kMax));
    } else if (!std::strcmp(argv[i], "--idle-timeout-ms")) {
      opts.idle_timeout_ms = static_cast<std::uint64_t>(
          require_int(argv[0], "--idle-timeout-ms",
                      flag_value("--idle-timeout-ms"), 0, kMax));
    } else if (!std::strcmp(argv[i], "--max-writeq-bytes")) {
      opts.max_writeq_bytes = static_cast<std::size_t>(
          require_int(argv[0], "--max-writeq-bytes",
                      flag_value("--max-writeq-bytes"), 0, kMax));
    } else if (!std::strcmp(argv[i], "--cache-entries")) {
      opts.cache_entries = static_cast<std::size_t>(require_int(
          argv[0], "--cache-entries", flag_value("--cache-entries"), 1,
          1 << 24));
    } else if (!std::strcmp(argv[i], "--cache-bytes")) {
      opts.cache_bytes = static_cast<std::size_t>(require_int(
          argv[0], "--cache-bytes", flag_value("--cache-bytes"), 1024, kMax));
    } else if (!std::strcmp(argv[i], "--trace-dir")) {
      opts.trace_dir = flag_value("--trace-dir");
    } else if (!std::strcmp(argv[i], "--spill-dir")) {
      opts.spill_dir = flag_value("--spill-dir");
    } else if (!std::strcmp(argv[i], "--max-store-bytes")) {
      opts.max_store_bytes_cap = static_cast<std::size_t>(
          require_int(argv[0], "--max-store-bytes",
                      flag_value("--max-store-bytes"), 1024, kMax));
    } else {
      usage(argv[0], std::string("unknown option: ") + argv[i]);
    }
  }

  net::Server server(opts);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "dawnd: %s\n", error.c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);  // peer disconnects surface as EPIPE

  std::printf("dawnd listening on %s\n", server.address().c_str());
  std::fflush(stdout);
  server.run();

  const net::ServerStats s = server.stats();
  std::printf(
      "dawnd drained: %llu connections, %llu requests, %llu errors, "
      "%llu cache hits / %llu misses\n",
      static_cast<unsigned long long>(s.connections),
      static_cast<unsigned long long>(s.requests),
      static_cast<unsigned long long>(s.errors),
      static_cast<unsigned long long>(s.cache.hits),
      static_cast<unsigned long long>(s.cache.misses));
  return 0;
}
