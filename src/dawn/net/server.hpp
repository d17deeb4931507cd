// The dawnd server: a poll()-based framed-request decision service.
//
// One poll thread owns every socket (accept loop + per-connection read/write
// state machines — no thread per client); Decide jobs go through a bounded
// queue into the existing semantics WorkerPool (one gang run whose workers
// loop, draining the queue until shutdown); completions come back over a
// self-pipe and are flushed by the poll thread. See docs/SERVICE.md for the
// wire format and the full request lifecycle.
//
// Robustness is first-class:
//   * malformed input never drops a connection silently — the client gets a
//     structured error frame first (bad-magic, frame-too-large, bad-json,
//     bad-schema, bad-spec-version, ...), then a clean close when the byte
//     stream is unresyncable;
//   * per-connection inflight caps and a server-wide bounded job queue turn
//     overload into "overloaded" error frames instead of unbounded memory,
//     and a per-connection write-queue byte cap disconnects peers that
//     pipeline requests without ever reading replies;
//   * read (mid-frame) and idle timeouts reap stuck peers;
//   * request budgets are clamped against server-wide caps, and the frame
//     deadline propagates into ExploreBudget::deadline_ms;
//   * request_drain() (SIGTERM in dawnd) stops accepting, answers queued
//     work, rejects new Decides with "draining", flushes, and exits run().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dawn/net/cache.hpp"
#include "dawn/net/payload.hpp"
#include "dawn/net/peer.hpp"
#include "dawn/net/wire.hpp"
#include "dawn/obs/metrics.hpp"
#include "dawn/obs/progress.hpp"
#include "dawn/obs/span_log.hpp"

namespace dawn {
class WorkerPool;
}

namespace dawn::net {

struct ServerOptions {
  // "tcp:HOST:PORT" (IPv4 literal; port 0 picks an ephemeral port, see
  // Server::address()) or "unix:PATH".
  std::string listen = "tcp:127.0.0.1:0";

  // Decide workers (the WorkerPool gang size; <= 0 = hardware threads).
  int workers = 2;

  // Server-wide budget caps; every request budget is clamped to these
  // before execution AND before cache keying. 0 deadline cap = requests may
  // run undeadlined.
  std::size_t max_configs_cap = 2'000'000;
  int max_threads_cap = 1;
  std::uint64_t deadline_cap_ms = 0;

  // Frame and lifecycle limits.
  std::size_t max_payload = kDefaultMaxPayload;
  int max_inflight_per_conn = 8;
  std::size_t max_queue = 64;
  std::uint64_t read_timeout_ms = 5'000;   // mid-frame stall
  std::uint64_t idle_timeout_ms = 60'000;  // quiet connection, nothing inflight
  // Per-connection cap on queued-but-unsent reply bytes. A peer that
  // pipelines requests without ever reading replies keeps the idle timeout
  // at bay (its reads count as activity), so this is the backstop that
  // bounds its memory. 0 = unbounded.
  std::size_t max_writeq_bytes = 8u << 20;

  // Result cache sizing.
  std::size_t cache_entries = 1024;
  std::size_t cache_bytes = 64u << 20;

  // When nonempty, Decide requests with "trace": true dump a Chrome trace
  // of their server-side execution here and the reply carries its path.
  std::string trace_dir;

  // Out-of-core exploration policy. A request opts in by sending a nonzero
  // budget.max_store_bytes; it runs tiered only when the server was started
  // with a spill dir (dawnd --spill-dir), and its byte budget is clamped to
  // max_store_bytes_cap (0 = no server cap). spill_dir itself never crosses
  // the wire — the server injects its own directory into the budget.
  std::string spill_dir;
  std::size_t max_store_bytes_cap = 0;

  // Distributed frontier exploration (net/dist_explore.*). `peers` lists the
  // worker dawnd addresses this server may shard a Decide across; a request
  // opts in with "distributed": true. `coordinator` merely asserts intent at
  // startup (a coordinator without peers is a configuration error caught by
  // start()); any server with peers can coordinate. The barrier timeout
  // bounds every distributed wait — a lost worker turns into one structured
  // peer-lost error frame, never a hang.
  std::vector<std::string> peers;
  bool coordinator = false;
  std::uint64_t dist_barrier_timeout_ms = 30'000;
  ConnectOptions peer_connect;
};

struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::size_t open_connections = 0;
  std::size_t inflight = 0;
  // Requests whose completed report shows spill activity, and the
  // cumulative bytes they wrote to spill files (arena+frontier+edges).
  std::uint64_t spilled_requests = 0;
  std::uint64_t spill_bytes = 0;
  // Wire bytes per connection class: ordinary request/response connections
  // (client) vs distributed shard-session and coordinator links (peer).
  std::uint64_t bytes_in_client = 0;
  std::uint64_t bytes_out_client = 0;
  std::uint64_t bytes_in_peer = 0;
  std::uint64_t bytes_out_peer = 0;
  // Distributed worker-session counters (this server acting as a worker).
  std::uint64_t dist_sessions = 0;
  std::uint64_t dist_configs = 0;
  std::uint64_t dist_store_bytes = 0;
  CacheStats cache;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens and spawns the worker gang. False (with *error) on
  // address parse/bind failure.
  bool start(std::string* error);

  // The poll loop. Returns once a drain (or stop) completes. Call from the
  // thread that owns the server (dawnd's main).
  void run();

  // Graceful drain: stop accepting, finish inflight work, reject new
  // Decides with "draining", flush and return from run(). Async-signal-safe
  // (one write to the wake pipe).
  void request_drain();

  // Hard stop: run() returns at the next poll tick without flushing.
  // Async-signal-safe.
  void request_stop();

  // The resolved listen address ("tcp:127.0.0.1:41373" / "unix:/tmp/x.sock"),
  // valid after start(). Ephemeral tcp ports are resolved here.
  const std::string& address() const { return address_; }

  // A snapshot of the counters. Poll-thread state (connection table,
  // inflight count, request/error metrics) is read unlocked, so call this
  // only from the thread running run(), or after run() has returned. Other
  // threads ask over the wire: a CacheStats request is answered by the poll
  // thread, after the byte accounting of every reply it sent before.
  ServerStats stats() const;

  // Live progress of the distributed decision this server is currently
  // coordinating (level / frontier / configs / shard sizes, merged from
  // worker heartbeats). Zeroed between decisions.
  const obs::ExploreProgress& dist_progress() const { return dist_progress_; }

 private:
  struct Connection;
  struct Job;
  struct Completion;

  void poll_loop();
  void accept_ready();
  void conn_readable(Connection& c);
  void conn_writable(Connection& c);
  void handle_frame(Connection& c, const Frame& f);
  void handle_decide(Connection& c, const Frame& f);
  void handle_cancel(Connection& c, const Frame& f);
  void handle_shard_init(Connection& c, const Frame& f);
  void send_frame(Connection& c, std::vector<std::uint8_t> bytes);
  void send_error(Connection& c, Action action, std::uint64_t nonce,
                  WireError e, std::string_view detail);
  void reap_dead();
  void scan_timeouts();
  void drain_completions();
  void worker_main(int worker);
  void wake();

  ServerOptions opts_;
  std::string address_;
  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};

  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 1;

  // Bounded job queue feeding the WorkerPool gang.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  bool workers_stop_ = false;
  std::size_t inflight_ = 0;  // queued + running, poll thread only

  std::mutex done_mu_;
  std::vector<Completion> done_;

  std::unique_ptr<WorkerPool> pool_;
  std::thread exec_;

  // Spill accounting, written by workers as reports complete.
  std::atomic<std::uint64_t> spilled_requests_{0};
  std::atomic<std::uint64_t> spill_bytes_{0};

  // Wire byte counters per connection class (client vs peer) and the
  // distributed worker-session stats, all surfaced through CacheStats.
  std::atomic<std::uint64_t> bytes_in_client_{0};
  std::atomic<std::uint64_t> bytes_out_client_{0};
  std::atomic<std::uint64_t> bytes_in_peer_{0};
  std::atomic<std::uint64_t> bytes_out_peer_{0};
  std::atomic<std::uint64_t> dist_sessions_{0};
  std::atomic<std::uint64_t> dist_configs_{0};
  std::atomic<std::uint64_t> dist_store_bytes_{0};

  // Detached shard-session threads (this server acting as a distributed
  // worker), joined at shutdown.
  std::mutex sessions_mu_;
  std::vector<std::thread> sessions_;

  obs::ExploreProgress dist_progress_;

  ResultCache cache_;
  obs::RunMetrics metrics_;  // poll thread only
  obs::SpanLog spans_;       // worker net.request spans
  std::atomic<std::uint64_t> trace_seq_{0};
  std::string unix_path_;  // unlinked on shutdown
};

// Parses "tcp:HOST:PORT" / "unix:PATH", connects, returns the fd (or -1
// with *error). Shared by Client and the frame fuzzer.
int connect_address(const std::string& address, std::string* error);

}  // namespace dawn::net
