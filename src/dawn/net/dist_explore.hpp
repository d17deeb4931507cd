// Distributed frontier exploration: shard one decision's configuration
// space across dawnd processes (docs/DISTRIBUTED.md).
//
// Topology is a star: a coordinator (the dawnd answering the client's
// Decide) holds one framed connection to each worker dawnd. A ShardInit
// request detaches that connection from the worker's request/response loop
// into a dedicated session; from then on the wire carries the four
// distributed actions (net/wire.hpp):
//
//   ShardInit      coordinator -> worker   adopt shards [i*64/W, (i+1)*64/W)
//   LevelBarrier   coordinator -> worker   expand / drain / classify / abort
//   FrontierPush   both directions         batched non-owned successors
//   ShardResult    worker -> coordinator   verdicts, edges, final stats
//
// A worker owns the configurations whose store shard falls in its range,
// and runs the explicit engine's level steps (LevelExplorer in
// semantics/parallel_explore.hpp) over it, on as many threads as its
// budget allows; successors it does not own leave through the engine's
// outboxes as FrontierPush batches relayed by the coordinator. A
// LevelBarrier drain closes each level, so level-end counts are global
// invariants, and the coordinator classifies with the engine's own
// post-level step: the DecisionReport is bit-identical to the
// single-process explicit engine at any worker and thread count. A lost or
// wedged peer never hangs the coordinator: it gets one structured
// peer-lost error frame. docs/DISTRIBUTED.md has the protocol, the
// determinism argument and the failure semantics.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dawn/fuzz/gen.hpp"
#include "dawn/graph/graph.hpp"
#include "dawn/net/payload.hpp"
#include "dawn/net/peer.hpp"
#include "dawn/net/wire.hpp"
#include "dawn/obs/json.hpp"
#include "dawn/obs/progress.hpp"
#include "dawn/obs/span_log.hpp"
#include "dawn/semantics/budget.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/semantics/parallel_explore.hpp"

namespace dawn::net {

// The most workers one decision can shard over: shard ranges partition the
// 64 store shards, so a 65th worker would own nothing.
inline constexpr int kMaxDistWorkers = 64;

// The ShardInit request payload. The budget travels in the canonical
// request encoding (payload.hpp budget_to_json) with the deadline stripped
// (the coordinator alone enforces deadlines, at level granularity) and, for
// tiered stores, max_store_bytes already divided into this worker's share.
// `store` and `symmetry` are resolved by the coordinator so every worker
// runs the same engine the single process would have picked.
struct ShardInitRequest {
  int worker = 0;
  int num_workers = 1;
  fuzz::MachineSpec machine;
  Graph graph;
  ExploreBudget budget;
  std::string store = "packed";  // "packed" | "tiered"
  bool symmetry = false;
};

obs::JsonValue shard_init_to_json(const ShardInitRequest& init);
std::optional<ShardInitRequest> shard_init_from_json(
    const obs::JsonValue& v, std::string* error = nullptr);

// Shard range owned by worker i of W (end exclusive): the engine's split
// of the 64 shards into W parts.
using dawn::shard_range_begin;
using dawn::shard_range_end;

// Server-side plumbing handed to a detached worker session: shutdown flag,
// peer-class byte counters, and the stats the worker dawnd surfaces through
// CacheStats (dist_sessions / dist_configs / dist_store_bytes).
struct WorkerSessionHooks {
  const std::atomic<bool>* stop = nullptr;
  std::atomic<std::uint64_t>* bytes_in = nullptr;
  std::atomic<std::uint64_t>* bytes_out = nullptr;
  std::atomic<std::uint64_t>* sessions = nullptr;
  std::atomic<std::uint64_t>* dist_configs = nullptr;
  std::atomic<std::uint64_t>* dist_store_bytes = nullptr;
  std::uint64_t barrier_timeout_ms = 30'000;
  std::string spill_dir;  // required for tiered shards
};

// Runs one worker session to completion. Blocking; owns (and closes) fd.
// `reader` is the connection's FrameReader, moved out at detach time so
// bytes that arrived behind the ShardInit frame are not lost; `nonce` is
// the session nonce every frame echoes. `init` has passed schema validation
// only — semantic failures (unbuildable machine, tiered without a spill
// dir) answer with one structured error frame and close.
void run_worker_session(int fd, FrameReader reader, std::uint64_t nonce,
                        const ShardInitRequest& init,
                        const WorkerSessionHooks& hooks);

// Per-worker outcome surfaced for benches and the dist-smoke assertions:
// resident store bytes per worker pin the ~1/W memory split.
struct DistWorkerStats {
  int worker = 0;
  std::uint64_t configs = 0;      // owned configurations at classify
  std::uint64_t store_bytes = 0;  // bytes_for_shard_range over owned shards
  std::uint64_t pushed = 0;       // successors this worker routed to peers
};

struct DistResult {
  bool ok = false;
  // When !ok: the error frame to send (PeerLost for transport/timeout
  // failures, BadSchema for unusable parameters, Internal for protocol
  // violations).
  WireError error = WireError::None;
  std::string error_detail;
  DecisionReport report;
  std::vector<DistWorkerStats> workers;
  std::uint64_t pushed_configs = 0;  // total cross-shard routed successors
  std::size_t levels = 0;
};

struct DistCoordinatorOptions {
  std::uint64_t barrier_timeout_ms = 30'000;
  ConnectOptions connect;
  const std::atomic<bool>* stop = nullptr;
  std::atomic<std::uint64_t>* bytes_in = nullptr;   // peer connection class
  std::atomic<std::uint64_t>* bytes_out = nullptr;
  obs::ExploreProgress* progress = nullptr;  // merged worker heartbeats
  obs::SpanLog* spans = nullptr;  // ExploreExpand + ExploreDistExchange
};

// Drives the decision across `peers` (worker dawnd addresses) and returns
// either a DecisionReport bit-identical to the single-process explicit
// engine or a structured error. req.method must already be Explicit and
// req.budget already clamped — the server normalises both before calling.
DistResult decide_distributed(const DecideRequest& req,
                              const std::vector<std::string>& peers,
                              const DistCoordinatorOptions& opts);

}  // namespace dawn::net
