#include "dawn/net/dist_explore.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <memory>
#include <span>
#include <string_view>
#include <utility>

#include "dawn/automata/config.hpp"
#include "dawn/fuzz/artifact.hpp"
#include "dawn/obs/metrics.hpp"
#include "dawn/semantics/explicit_expand.hpp"
#include "dawn/semantics/packed_config.hpp"
#include "dawn/semantics/symmetry.hpp"
#include "dawn/util/varint.hpp"

namespace dawn::net {
namespace {

using obs::JsonValue;
using Kind = obs::JsonValue::Kind;

// FrontierPush payload: a 12-byte batch header
//   [u8 dest worker][u8 src worker][u16 reserved=0][u32 count LE][u32 n LE]
// followed by `count` records in emit order. Record 0 carries its
// predecessor gid as a plain varint; every later record zigzag-varint
// encodes the delta against the previous record's gid. Each record is
// followed by `n` plain varint states (the successor configuration).
inline constexpr std::size_t kPushHeaderSize = 12;
inline constexpr std::uint32_t kPushFlushRecords = 2048;
inline constexpr std::size_t kPushFlushBytes = 192 * 1024;
// ShardResult chunk frames (verdicts / edges) stay well under the 1 MiB
// frame reader cap.
inline constexpr std::size_t kResultChunkBytes = 512 * 1024;
// ShardResult payload tags (first payload byte).
inline constexpr std::uint8_t kResultStats = 1;
inline constexpr std::uint8_t kResultVerdicts = 2;
inline constexpr std::uint8_t kResultEdges = 3;
inline constexpr std::uint8_t kResultEnd = 4;

std::uint64_t zigzag_enc(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zigzag_dec(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

// Reads v[key] as a count into *out; false if it is not an integer.
bool read_count(const JsonValue& v, const char* key, std::uint64_t* out) {
  const JsonValue* field = require(v, key, Kind::Int, nullptr);
  if (field != nullptr) *out = static_cast<std::uint64_t>(field->as_int());
  return field != nullptr;
}

}  // namespace

JsonValue shard_init_to_json(const ShardInitRequest& init) {
  JsonValue out = JsonValue::object();
  out.set("spec_version", JsonValue(fuzz::kSpecVersion));
  out.set("worker", JsonValue(static_cast<std::int64_t>(init.worker)));
  out.set("num_workers",
          JsonValue(static_cast<std::int64_t>(init.num_workers)));
  out.set("machine", fuzz::machine_spec_to_json(init.machine));
  out.set("graph", fuzz::graph_to_json(init.graph));
  out.set("budget", budget_to_json(init.budget));
  out.set("store", JsonValue(init.store));
  out.set("symmetry", JsonValue(init.symmetry));
  return out;
}

std::optional<ShardInitRequest> shard_init_from_json(const JsonValue& v,
                                                     std::string* error) {
  if (v.kind() != Kind::Object) {
    fail(error, "shard-init payload must be an object");
    return std::nullopt;
  }
  if (!reject_unknown_keys(v,
                           {"spec_version", "worker", "num_workers", "machine",
                            "graph", "budget", "store", "symmetry"},
                           error) ||
      !check_spec_version(v, error)) {
    return std::nullopt;
  }
  ShardInitRequest init;
  const JsonValue* worker = require(v, "worker", Kind::Int, error);
  const JsonValue* num = require(v, "num_workers", Kind::Int, error);
  if (worker == nullptr || num == nullptr) return std::nullopt;
  init.worker = static_cast<int>(worker->as_int());
  init.num_workers = static_cast<int>(num->as_int());
  if (init.num_workers < 1 || init.num_workers > kMaxDistWorkers ||
      init.worker < 0 || init.worker >= init.num_workers) {
    fail(error, "worker index out of range");
    return std::nullopt;
  }
  const JsonValue* machine = require(v, "machine", Kind::Object, error);
  const JsonValue* graph = require(v, "graph", Kind::Object, error);
  const JsonValue* budget = require(v, "budget", Kind::Object, error);
  const JsonValue* store = require(v, "store", Kind::String, error);
  const JsonValue* symmetry = require(v, "symmetry", Kind::Bool, error);
  if (machine == nullptr || graph == nullptr || budget == nullptr ||
      store == nullptr || symmetry == nullptr) {
    return std::nullopt;
  }
  auto spec_parsed = fuzz::machine_spec_from_json(*machine, error);
  if (!spec_parsed.has_value()) return std::nullopt;
  init.machine = std::move(*spec_parsed);
  auto graph_parsed = fuzz::graph_from_json(*graph, error);
  if (!graph_parsed.has_value()) return std::nullopt;
  init.graph = std::move(*graph_parsed);
  if (!budget_from_json(*budget, &init.budget, error)) return std::nullopt;
  init.store = store->as_string();
  if (init.store != "packed" && init.store != "tiered") {
    fail(error, "unknown store mode: " + init.store);
    return std::nullopt;
  }
  init.symmetry = symmetry->as_bool();
  return init;
}

namespace {

// One detached worker session: it drives the explicit engine's level steps
// (LevelExplorer, semantics/parallel_explore.hpp) over the shards this
// process owns, one coordinator barrier at a time (docs/DISTRIBUTED.md has
// the exchange). Only the session thread touches the socket: it is worker 0
// of the engine's pool and sends heartbeat ticks from phase A's per-chunk
// check. The coordinator never blocks, so the star cannot deadlock.
template <typename Run>
class WorkerSession {
 public:
  WorkerSession(int fd, FrameReader& reader, std::uint64_t nonce,
                const ShardInitRequest& init, const WorkerSessionHooks& hooks,
                const PackedConfigStore& store, Run& run)
      : fd_(fd),
        reader_(reader),
        nonce_(nonce),
        init_(init),
        hooks_(hooks),
        store_(store),
        run_(run) {}

  void run(const Config& initial) {
    // Seed: the worker owning the initial configuration's shard interns it;
    // everyone reports `seeded` so the coordinator can check the ownership
    // partition (exactly one worker must claim it).
    const bool seeded = run_.seed(initial);
    {
      JsonValue reply = JsonValue::object();
      reply.set("spec_version", JsonValue(fuzz::kSpecVersion));
      reply.set("ok", JsonValue(true));
      reply.set("seeded", JsonValue(static_cast<std::int64_t>(seeded)));
      if (!send_frame(Action::ShardInit, FrameKind::Response, reply.dump())) {
        return;
      }
    }
    // Until the coordinator is gone, wedged or done, or the server stops.
    Frame f;
    while (read_frame_blocking(fd_, reader_, &f, hooks_.stop,
                               hooks_.barrier_timeout_ms, hooks_.bytes_in) &&
           on_frame(f)) {
    }
  }

 private:
  // One frame from the coordinator; false ends the session.
  bool on_frame(const Frame& f) {
    if (f.header.nonce != nonce_ || f.header.kind != FrameKind::Request) {
      return protocol_error("frame does not match the shard session");
    }
    if (f.header.action == Action::FrontierPush) return on_push(f);
    if (f.header.action != Action::LevelBarrier) {
      return protocol_error(
          std::string("unexpected action in shard session: ") +
          name(f.header.action));
    }
    std::string json_err;
    const auto v = JsonValue::parse(f.payload, &json_err);
    if (!v.has_value()) {
      return protocol_error("level-barrier payload is not JSON: " + json_err);
    }
    const JsonValue* cmd = require(*v, "cmd", Kind::String, nullptr);
    if (cmd == nullptr) {
      return protocol_error("level-barrier payload needs a cmd");
    }
    std::uint64_t level = 0;
    read_count(*v, "level", &level);
    const std::string& c = cmd->as_string();
    if (c == "expand") return on_expand(static_cast<std::int64_t>(level));
    if (c == "drain") return on_drain(static_cast<std::int64_t>(level));
    if (c == "classify") {
      on_classify();
    } else if (c != "abort") {
      protocol_error("unknown level-barrier cmd: " + c);
    }
    return false;  // classify and abort end the session
  }

  bool stopping() const {
    return hooks_.stop != nullptr &&
           hooks_.stop->load(std::memory_order_relaxed);
  }

  bool send_frame(Action action, FrameKind kind, std::string_view payload) {
    const auto bytes = encode_frame(action, kind, nonce_, payload);
    last_send_ms_ = now_ms();
    return write_all_blocking(fd_, bytes.data(), bytes.size(), hooks_.stop,
                              hooks_.barrier_timeout_ms, hooks_.bytes_out);
  }

  bool send_bytes(Action action, const std::vector<std::uint8_t>& payload) {
    return send_frame(
        action, FrameKind::Response,
        std::string_view(reinterpret_cast<const char*>(payload.data()),
                         payload.size()));
  }

  void send_error(WireError e, const std::string& detail) {
    const auto bytes =
        encode_error_frame(Action::LevelBarrier, nonce_, e, detail);
    write_all_blocking(fd_, bytes.data(), bytes.size(), hooks_.stop, 5'000,
                       hooks_.bytes_out);
  }

  // Answers a malformed frame with a bad-schema error; the session ends.
  bool protocol_error(const std::string& detail) {
    send_error(WireError::BadSchema, detail);
    return false;
  }

  bool send_barrier(JsonValue reply, const char* cmd, std::int64_t level) {
    reply.set("cmd", JsonValue(cmd));
    reply.set("level", JsonValue(level));
    return send_frame(Action::LevelBarrier, FrameKind::Response, reply.dump());
  }

  // Long expansions emit heartbeat ticks so the coordinator's inactivity
  // deadline only ever fires on a genuinely wedged worker, not a big level.
  bool maybe_tick(std::int64_t level) {
    const std::uint64_t quiet = hooks_.barrier_timeout_ms / 4 + 1;
    if (now_ms() - last_send_ms_ < quiet) return true;
    return send_barrier(JsonValue::object(), "tick", level);
  }

  bool append_push(int dest, std::int64_t pred, const Config& succ) {
    if (push_count_ == 0) {
      push_.assign(kPushHeaderSize, 0);
      append_varint(push_, static_cast<std::uint64_t>(pred));
    } else {
      append_varint(push_, zigzag_enc(pred - push_prev_));
    }
    push_prev_ = pred;
    for (const State s : succ) {
      append_varint(push_, static_cast<std::uint64_t>(s));
    }
    ++push_count_;
    const bool full =
        push_count_ >= kPushFlushRecords || push_.size() >= kPushFlushBytes;
    return !full || flush_push(dest);
  }

  bool flush_push(int dest) {
    if (push_count_ == 0) return true;
    push_[0] = static_cast<std::uint8_t>(dest);
    push_[1] = static_cast<std::uint8_t>(init_.worker);
    put_u32(push_.data() + 4, push_count_);
    put_u32(push_.data() + 8, static_cast<std::uint32_t>(init_.graph.n()));
    obs::count(obs::Counter::NetDistPushes);
    obs::count(obs::Counter::NetDistPushedConfigs, push_count_);
    pushed_total_ += push_count_;
    push_count_ = 0;
    return send_bytes(Action::FrontierPush, push_);
  }

  // Phase A, then the outboxes. The stop flag is read, and worker 0 ticks,
  // once per chunk.
  bool on_expand(std::int64_t level) {
    bool link_failed = false;  // worker 0's
    run_.expand([&](int worker) {
      if (worker == 0 && !link_failed) link_failed = !maybe_tick(level);
      return !stopping() && !(worker == 0 && link_failed);
    });
    if (link_failed || stopping()) return false;
    const PackedCodec& codec = store_.codec();
    const std::size_t stride = PackedConfigStore::kRoutedHeader + codec.words();
    std::uint64_t pushed = 0;
    bool ok = true;
    for (int to = 0; to < init_.num_workers; ++to) {
      if (to == init_.worker) continue;
      run_.for_each_outbox(to, [&](PackedConfigStore::Batch& b) {
        for (std::size_t i = 0; ok && i < b.items.size(); i += stride) {
          codec.decode(b.items.data() + i + PackedConfigStore::kRoutedHeader,
                       scratch_);
          ok = append_push(to, static_cast<std::int64_t>(b.items[i]),
                           scratch_);
        }
        pushed += b.size();
        b.clear();
      });
      ok = ok && flush_push(to);
      if (!ok) return false;
    }
    JsonValue done = JsonValue::object();
    done.set("pushed", JsonValue(static_cast<std::int64_t>(pushed)));
    return send_barrier(std::move(done), "expand_done", level);
  }

  // A batch of successors whose shard we own, routed here by the
  // coordinator. It joins the owners' batches for phase B, where the owner
  // records the edge (the emitting worker does not), so every emit lands in
  // exactly one edge record — as in the single-process engine.
  bool on_push(const Frame& f) {
    const auto* data = reinterpret_cast<const std::uint8_t*>(f.payload.data());
    const std::size_t len = f.payload.size();
    if (len < kPushHeaderSize) {
      return protocol_error("frontier-push payload shorter than its header");
    }
    if (data[0] != static_cast<std::uint8_t>(init_.worker)) {
      return protocol_error("frontier-push routed to the wrong worker");
    }
    const std::uint32_t count = get_u32(data + 4);
    const std::uint32_t n = get_u32(data + 8);
    if (n != static_cast<std::uint32_t>(init_.graph.n())) {
      return protocol_error("frontier-push configuration width mismatch");
    }
    std::size_t pos = kPushHeaderSize;
    std::int64_t prev = 0;
    scratch_.resize(n);
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint64_t raw = 0;
      if (!read_varint(data, len, &pos, &raw)) {
        return protocol_error("truncated frontier-push record");
      }
      const std::int64_t pred =
          i == 0 ? static_cast<std::int64_t>(raw) : prev + zigzag_dec(raw);
      prev = pred;
      for (std::uint32_t j = 0; j < n; ++j) {
        std::uint64_t s = 0;
        if (!read_varint(data, len, &pos, &s)) {
          return protocol_error("truncated frontier-push record");
        }
        scratch_[j] = static_cast<State>(s);
      }
      if (!run_.route_in(scratch_, pred)) {
        return protocol_error(
            "frontier-push record outside the owned shard range");
      }
    }
    if (pos != len) {
      return protocol_error(
          "trailing bytes after the last frontier-push record");
    }
    return true;
  }

  // Close the level: every push routed during the expansion has been
  // delivered (per-link FIFO puts them ahead of the drain command), so the
  // level-end store/next/edge counts are global invariants. A spilling
  // shard spills at the level end exactly like the single-process engine.
  bool on_drain(std::int64_t level) {
    run_.intern_routed();
    const auto end = run_.end_level();
    JsonValue done = JsonValue::object();
    done.set("store", JsonValue(static_cast<std::int64_t>(store_.size())));
    done.set("next",
             JsonValue(static_cast<std::int64_t>(run_.frontier().size())));
    done.set("edges", JsonValue(static_cast<std::int64_t>(run_.num_edges())));
    if (end == Run::LevelEnd::IoFailed) {
      done.set("error", JsonValue(store_.error()));
    } else if (end == Run::LevelEnd::MemoryCap) {
      done.set("error",
               JsonValue("resident index exceeds the per-worker budget"));
    }
    return send_barrier(std::move(done), "drain_done", level);
  }

  // Ship everything the coordinator needs for the SCC classification:
  // stats (occupancies first, so the coordinator can build the dense
  // remap), per-shard verdict arrays in local-id order, raw gid edges, and
  // a final end marker. The session ends here.
  void on_classify() {
    if (!run_.finish_levels()) {
      send_error(WireError::Internal, "edge spool write failed");
      return;
    }
    ExploredGraph graph = run_.explored();
    const auto occ = store_.shard_occupancies();
    const std::size_t owned_begin =
        shard_range_begin(init_.worker, init_.num_workers);
    const std::size_t owned_end =
        shard_range_end(init_.worker, init_.num_workers);
    // Owned shards only: summing disjoint ranges across workers equals one
    // process measuring all 64 shards (bit-identical ledgers).
    const std::uint64_t store_bytes =
        store_.bytes_for_shard_range(owned_begin, owned_end);
    {
      JsonValue stats = JsonValue::object();
      stats.set("spec_version", JsonValue(fuzz::kSpecVersion));
      stats.set("store", JsonValue(static_cast<std::int64_t>(store_.size())));
      stats.set("store_bytes",
                JsonValue(static_cast<std::int64_t>(store_bytes)));
      stats.set("num_edges",
                JsonValue(static_cast<std::int64_t>(run_.stats().edges)));
      stats.set("pushed",
                JsonValue(static_cast<std::int64_t>(pushed_total_)));
      JsonValue occs = JsonValue::array();
      for (std::size_t sh = 0; sh < 64; ++sh) {
        occs.push_back(JsonValue(static_cast<std::int64_t>(occ[sh])));
      }
      stats.set("occupancies", std::move(occs));
      std::string payload;
      payload.push_back(static_cast<char>(kResultStats));
      payload += stats.dump();
      if (!send_frame(Action::ShardResult, FrameKind::Response, payload)) {
        return;
      }
    }
    // Verdicts, per owned shard, indexed by local id: the store holds no
    // other shard, so its dense order is exactly that.
    const auto* verdicts =
        reinterpret_cast<const std::uint8_t*>(graph.verdicts.data());
    for (std::size_t sh = owned_begin; sh < owned_end; ++sh) {
      for (std::size_t start = 0; start < occ[sh];) {
        const std::size_t chunk =
            std::min<std::size_t>(kResultChunkBytes, occ[sh] - start);
        std::vector<std::uint8_t> payload(kPushHeaderSize, 0);
        payload[0] = kResultVerdicts;
        payload[1] = static_cast<std::uint8_t>(sh);
        put_u32(payload.data() + 4, static_cast<std::uint32_t>(start));
        put_u32(payload.data() + 8, static_cast<std::uint32_t>(chunk));
        payload.insert(payload.end(), verdicts + start,
                       verdicts + start + chunk);
        if (!send_bytes(Action::ShardResult, payload)) return;
        start += chunk;
      }
      verdicts += occ[sh];
    }
    // Edges, as (src gid, dst gid) varint pairs, byte-capped per frame.
    std::vector<std::uint8_t> payload(kPushHeaderSize, 0);
    std::uint32_t count = 0;
    const auto flush = [&] {
      if (count == 0) return true;
      payload[0] = kResultEdges;
      put_u32(payload.data() + 4, count);
      const bool ok = send_bytes(Action::ShardResult, payload);
      payload.assign(kPushHeaderSize, 0);
      count = 0;
      return ok;
    };
    bool ok = true;
    const auto add_edge = [&](std::int64_t src, std::int64_t dst) {
      append_varint(payload, static_cast<std::uint64_t>(src));
      append_varint(payload, static_cast<std::uint64_t>(dst));
      ++count;
      if (payload.size() >= kResultChunkBytes) ok = ok && flush();
    };
    if (graph.spool != nullptr) {
      EdgeSpool::ScanCursor cur(*graph.spool);
      std::int64_t src = 0;
      std::int64_t dst = 0;
      while (ok && cur.next(&src, &dst)) add_edge(src, dst);
      if (cur.failed()) {
        send_error(WireError::Internal, "edge spool read failed");
        return;
      }
    } else {
      for (const GidEdges& block : graph.edges) {
        for (const auto& [src, dst] : block) add_edge(src, dst);
      }
    }
    if (!ok || !flush()) return;
    // Count the session before the end marker: once the coordinator has
    // seen it (and so once its client has the report), the worker's
    // CacheStats already include this session's configs.
    if (hooks_.dist_configs != nullptr) {
      hooks_.dist_configs->fetch_add(store_.size(),
                                     std::memory_order_relaxed);
    }
    if (hooks_.dist_store_bytes != nullptr) {
      hooks_.dist_store_bytes->fetch_add(store_bytes,
                                         std::memory_order_relaxed);
    }
    const char end = static_cast<char>(kResultEnd);
    send_frame(Action::ShardResult, FrameKind::Response,
               std::string_view(&end, 1));
  }

  int fd_;
  FrameReader& reader_;
  std::uint64_t nonce_;
  const ShardInitRequest& init_;
  const WorkerSessionHooks& hooks_;
  const PackedConfigStore& store_;
  Run& run_;
  // The FrontierPush batch being filled, for one destination at a time.
  std::vector<std::uint8_t> push_;
  std::uint32_t push_count_ = 0;
  std::int64_t push_prev_ = 0;
  Config scratch_;
  std::uint64_t pushed_total_ = 0;
  std::uint64_t last_send_ms_ = 0;
};

}  // namespace

void run_worker_session(int fd, FrameReader reader, std::uint64_t nonce,
                        const ShardInitRequest& init,
                        const WorkerSessionHooks& hooks) {
  obs::count(obs::Counter::NetDistSessions);
  if (hooks.sessions != nullptr) {
    hooks.sessions->fetch_add(1, std::memory_order_relaxed);
  }
  // Answers the ShardInit with one structured error frame and closes.
  const auto refuse = [&](WireError e, const std::string& detail) {
    const auto bytes = encode_error_frame(Action::ShardInit, nonce, e, detail);
    write_all_blocking(fd, bytes.data(), bytes.size(), hooks.stop, 5'000,
                       hooks.bytes_out);
    ::close(fd);
  };
  const std::shared_ptr<Machine> machine = fuzz::build_machine(init.machine);
  if (machine == nullptr) {
    return refuse(WireError::BadSchema, "machine spec does not build");
  }
  // Every shard store packs. Wire machines are fuzz specs, which always
  // advertise |Q|; anything else is refused.
  const std::optional<int> nstates = machine->num_states();
  if (!nstates.has_value()) {
    return refuse(
        WireError::BadSchema,
        init.store + " store needs a machine with a state-space bound");
  }
  if (init.store == "tiered" &&
      (hooks.spill_dir.empty() || init.budget.max_store_bytes == 0)) {
    return refuse(
        WireError::BadSchema,
        "tiered shard needs a worker spill dir and a nonzero store budget");
  }
  // The shard's engine runs on the threads its budget asks for (the server
  // clamped them to its own cap), and a "tiered" shard spills under the
  // worker's spill dir.
  ExploreBudget budget = init.budget;
  budget.max_threads = explore_threads(*machine, budget);
  if (init.store == "tiered") budget.spill_dir = hooks.spill_dir;
  // Recompute the symmetry group locally: compute_symmetry is deterministic
  // and both ends run the same binary, so this matches the coordinator's
  // resolution exactly (docs/DISTRIBUTED.md).
  const SymmetryGroup grp =
      init.symmetry ? compute_symmetry(init.graph) : SymmetryGroup{};
  PackedConfigStore store(PackedCodec(*nstates, init.graph.n()),
                          budget.spill_dir, budget.max_store_bytes);
  if (!store.ok()) {
    return refuse(WireError::Internal,
                  "tiered store unavailable: " + store.error());
  }
  with_explicit_expander(
      *machine, init.graph, grp.trivial() ? nullptr : &grp,
      [&](const Config& initial, auto& make_expander, auto& verdict_of) {
        LevelExplorer<Config, PackedConfigStore,
                      std::remove_reference_t<decltype(make_expander)>,
                      std::remove_reference_t<decltype(verdict_of)>>
            run(store, make_expander, verdict_of, budget, init.worker,
                init.num_workers);
        if (run.io_failed()) {
          return refuse(WireError::Internal,
                        "tiered store unavailable: edge spool");
        }
        WorkerSession<decltype(run)>(fd, reader, nonce, init, hooks, store,
                                     run)
            .run(initial);
        ::close(fd);
      });
}

namespace {

// Coordinator-side view of one worker link, plus everything that worker has
// reported so far (barrier responses, classify-stage results).
struct LinkState {
  PeerLink link;
  int worker = 0;
  bool init_ok = false;
  int seeded = -1;
  bool expand_done = false;
  bool drain_done = false;
  std::uint64_t level_pushed = 0;
  std::uint64_t level_store = 0;
  std::uint64_t level_next = 0;
  std::uint64_t level_edges = 0;
  std::string drain_error;
  bool stats_seen = false;
  bool end_seen = false;
  std::array<std::uint64_t, 64> occ{};
  std::uint64_t store_bytes = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t configs = 0;
  std::uint64_t pushed = 0;
  std::array<std::vector<std::uint8_t>, 64> verdicts;  // owned shards only
};

class Coordinator {
 public:
  Coordinator(const DecideRequest& req, const std::vector<std::string>& peers,
              const DistCoordinatorOptions& opts)
      : req_(req), peers_(peers), opts_(opts) {}

  DistResult run() {
    machine_ = fuzz::build_machine(req_.machine);
    if (machine_ == nullptr) {
      return refuse(WireError::BadSchema, "machine spec does not build");
    }
    sym_ = req_.budget.use_symmetry && !compute_symmetry(req_.graph).trivial();
    // Store-mode resolution mirrors the single-process explicit engine
    // (explicit_space.cpp), with the workers' spill dirs standing in for the
    // single process's budget.spill_dir condition. Wire machines always
    // advertise |Q|, so the other shards pack; a worker refuses any machine
    // that does not.
    tiered_ = req_.budget.max_store_bytes > 0;
    DeadlineClock deadline(req_.budget);
    if (opts_.progress != nullptr) opts_.progress->reset();

    const int W = static_cast<int>(peers_.size());
    for (int i = 0; i < W; ++i) {
      links_.push_back(std::make_unique<LinkState>());
      LinkState& L = *links_.back();
      L.worker = i;
      L.link.nonce = static_cast<std::uint64_t>(i) + 1;
      L.link.set_counters(opts_.bytes_in, opts_.bytes_out);
      std::string err;
      if (!L.link.connect(peers_[static_cast<std::size_t>(i)], opts_.connect,
                          &err)) {
        return refuse(WireError::PeerLost,
                      "connect to " + peers_[static_cast<std::size_t>(i)] +
                          " failed: " + err);
      }
    }
    for (auto& Lp : links_) {
      ShardInitRequest init;
      init.worker = Lp->worker;
      init.num_workers = W;
      init.machine = req_.machine;
      init.graph = req_.graph;
      init.budget = req_.budget;
      init.budget.deadline_ms = 0;  // the coordinator alone enforces it
      init.budget.spill_dir.clear();
      init.budget.max_store_bytes =
          tiered_ ? std::max<std::size_t>(
                        req_.budget.max_store_bytes /
                            static_cast<std::size_t>(W),
                        1)
                  : 0;
      init.store = tiered_ ? "tiered" : "packed";
      init.symmetry = sym_;
      Lp->link.queue(encode_frame(Action::ShardInit, FrameKind::Request,
                                  Lp->link.nonce,
                                  shard_init_to_json(init).dump()));
    }
    if (!pump_until(&LinkState::init_ok)) {
      return fail_result();
    }
    int seeded = 0;
    for (const auto& Lp : links_) seeded += Lp->seeded == 1 ? 1 : 0;
    if (seeded != 1) {
      return refuse(WireError::Internal,
                    "shard ownership mismatch: " + std::to_string(seeded) +
                        " workers claimed the initial configuration");
    }

    DistResult res;
    std::uint64_t total_store = 1;
    std::uint64_t total_next = 1;
    std::uint64_t total_edges = 0;
    std::uint64_t frontier_peak = 0;
    UnknownReason abort_reason = UnknownReason::None;
    while (total_next > 0) {
      ++res.levels;
      frontier_peak = std::max(frontier_peak, total_next);
      if (opts_.progress != nullptr) {
        opts_.progress->level.store(res.levels, std::memory_order_relaxed);
        opts_.progress->frontier.store(total_next, std::memory_order_relaxed);
        if (deadline.enabled()) {
          opts_.progress->deadline_ms_remaining.store(
              deadline.remaining_ms(), std::memory_order_relaxed);
        }
      }
      obs::SpanScope level_span(opts_.spans, obs::Phase::ExploreExpand,
                                total_next);
      const auto level = static_cast<std::int64_t>(res.levels);
      for (auto& Lp : links_) {
        Lp->expand_done = false;
        Lp->drain_done = false;
        Lp->level_pushed = 0;
        Lp->drain_error.clear();
      }
      broadcast_barrier("expand", level);
      if (!pump_until(&LinkState::expand_done)) {
        return fail_result();
      }
      std::uint64_t level_pushed = 0;
      for (auto& Lp : links_) {
        level_pushed += Lp->level_pushed;
        Lp->pushed += Lp->level_pushed;
      }
      {
        // The exchange window: every push routed during the expansion is
        // already queued ahead of the drain on its destination link (FIFO),
        // so waiting out the drain barrier flushes the exchange.
        obs::SpanScope exchange_span(opts_.spans,
                                     obs::Phase::ExploreDistExchange,
                                     level_pushed);
        broadcast_barrier("drain", level);
        if (!pump_until(&LinkState::drain_done)) {
          return fail_result();
        }
      }
      obs::count(obs::Counter::NetDistBarriers);
      res.pushed_configs += level_pushed;
      total_store = 0;
      total_next = 0;
      total_edges = 0;
      std::string drain_error;
      for (const auto& Lp : links_) {
        total_store += Lp->level_store;
        total_next += Lp->level_next;
        total_edges += Lp->level_edges;
        if (!Lp->drain_error.empty() && drain_error.empty()) {
          drain_error = "worker " + std::to_string(Lp->worker) + ": " +
                        Lp->drain_error;
        }
      }
      if (opts_.progress != nullptr) {
        opts_.progress->configs.store(total_store, std::memory_order_relaxed);
        opts_.progress->edges.store(total_edges, std::memory_order_relaxed);
      }
      // Same per-level order as the single-process engine: config cap, then
      // deadline, then (tiered only) memory cap.
      if (total_store > req_.budget.max_configs) {
        abort_reason = UnknownReason::ConfigCap;
        break;
      }
      if (deadline.expired()) {
        abort_reason = UnknownReason::Deadline;
        break;
      }
      if (!drain_error.empty()) {
        abort_reason = UnknownReason::MemoryCap;
        res.error_detail = drain_error;  // informational; res.ok stays true
        break;
      }
    }

    if (abort_reason != UnknownReason::None) {
      abort_all();
      res.ok = true;
      res.report.decision = Decision::Unknown;
      res.report.unknown_reason = abort_reason;
      res.report.configs_explored =
          abort_reason == UnknownReason::ConfigCap
              ? req_.budget.max_configs
              : std::min<std::size_t>(total_store, req_.budget.max_configs);
      fill_report(res.report, /*completed=*/false, 0, frontier_peak, 0);
      fill_worker_stats(res);
      return res;
    }

    // Classification: collect verdicts, edges and stats from every worker,
    // rebuild the dense configuration graph, classify bottom SCCs.
    if (opts_.progress != nullptr) {
      opts_.progress->frontier.store(0, std::memory_order_relaxed);
    }
    classify_stage_ = true;
    broadcast_barrier("classify", static_cast<std::int64_t>(res.levels));
    if (!pump_until(&LinkState::end_seen)) {
      return fail_result();
    }
    for (auto& Lp : links_) Lp->link.close();

    std::array<std::uint64_t, 64> occ{};
    std::uint64_t total_configs = 0;
    std::uint64_t total_store_bytes = 0;
    std::uint64_t stats_edges = 0;
    for (const auto& Lp : links_) {
      if (!Lp->stats_seen) {
        return refuse(WireError::Internal,
                      "worker " + std::to_string(Lp->worker) +
                          " ended without a stats frame");
      }
      for (std::size_t sh = 0; sh < 64; ++sh) occ[sh] += Lp->occ[sh];
      total_configs += Lp->configs;
      total_store_bytes += Lp->store_bytes;
      stats_edges += Lp->num_edges;
    }
    if (total_configs != total_store || stats_edges != total_edges) {
      return refuse(WireError::Internal,
                    "classify totals disagree with the last level barrier");
    }
    // The engine's own classification. Dense ids run shard by shard, each in
    // local-id order: the order the verdict arrays concatenate in.
    std::array<std::int32_t, 64> offsets{};
    std::vector<Verdict> verdicts;
    for (std::size_t sh = 0; sh < 64; ++sh) {
      offsets[sh] = static_cast<std::int32_t>(verdicts.size());
      for (const auto& Lp : links_) {
        for (const std::uint8_t v : Lp->verdicts[sh]) {
          verdicts.push_back(static_cast<Verdict>(v));
        }
      }
      if (verdicts.size() - static_cast<std::size_t>(offsets[sh]) != occ[sh]) {
        return refuse(WireError::Internal,
                      "verdict array does not cover its shard");
      }
    }
    const std::optional<ExploreOutcome> outcome = classify_explored(
        [&] {
          ExploredGraph graph;
          graph.verdicts = std::move(verdicts);
          graph.edges.push_back(std::move(edges_raw_));
          return graph;
        },
        [&](std::int64_t gid) {
          return static_cast<std::size_t>(
              offsets[static_cast<std::size_t>(gid) & 63u] +
              static_cast<std::int32_t>(gid >> 6));
        },
        opts_.spans);
    if (!outcome.has_value()) {
      return refuse(WireError::Internal, "edge gid out of range");
    }

    if (opts_.progress != nullptr) {
      for (std::size_t sh = 0; sh < 64; ++sh) {
        opts_.progress->shard_sizes[sh].store(occ[sh],
                                              std::memory_order_relaxed);
      }
    }
    res.ok = true;
    res.report.decision = outcome->decision;
    res.report.unknown_reason = UnknownReason::None;
    res.report.configs_explored = outcome->num_configs;
    res.report.num_bottom_sccs = outcome->num_bottom_sccs;
    fill_report(res.report, /*completed=*/true, total_store_bytes,
                frontier_peak, total_edges);
    fill_worker_stats(res);
    return res;
  }

 private:
  // Pumps every link until each has set `flag`.
  bool pump_until(bool LinkState::*flag) {
    std::uint64_t activity_deadline = now_ms() + opts_.barrier_timeout_ms;
    std::vector<pollfd> fds;
    std::vector<LinkState*> order;
    while (!std::all_of(links_.begin(), links_.end(),
                        [&](const auto& Lp) { return (*Lp).*flag; })) {
      if (opts_.stop != nullptr &&
          opts_.stop->load(std::memory_order_relaxed)) {
        return set_fail(WireError::Draining, "coordinator shutting down");
      }
      if (now_ms() >= activity_deadline) {
        return set_fail(WireError::PeerLost,
                        "worker barrier timed out after " +
                            std::to_string(opts_.barrier_timeout_ms) + "ms");
      }
      fds.clear();
      order.clear();
      for (auto& Lp : links_) {
        if (!Lp->link.alive()) {
          if (classify_stage_ && Lp->end_seen) continue;  // finished, closed
          return set_fail(WireError::PeerLost,
                          "connection to worker " +
                              std::to_string(Lp->worker) + " (" +
                              Lp->link.address() + ") lost");
        }
        pollfd p = {};
        p.fd = Lp->link.fd();
        p.events = static_cast<short>(
            POLLIN | (Lp->link.want_write() ? POLLOUT : 0));
        fds.push_back(p);
        order.push_back(Lp.get());
      }
      if (fds.empty()) {
        return set_fail(WireError::PeerLost, "all worker links closed");
      }
      const int pr = ::poll(fds.data(), fds.size(), 200);
      if (pr < 0 && errno != EINTR) {
        return set_fail(WireError::Internal, "poll failed on worker links");
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        LinkState& L = *order[i];
        if ((fds[i].revents & POLLOUT) != 0) L.link.on_writable();
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          L.link.on_readable();
        }
        Frame f;
        while (L.link.next(&f)) {
          activity_deadline = now_ms() + opts_.barrier_timeout_ms;
          if (!handle_frame(L, f)) return false;
        }
        if (L.link.reader_error() != WireError::None) {
          return set_fail(WireError::PeerLost,
                          "framing error from worker " +
                              std::to_string(L.worker));
        }
      }
    }
    return true;
  }

  bool handle_frame(LinkState& L, const Frame& f) {
    if (f.header.nonce != L.link.nonce) {
      return set_fail(WireError::Internal, "worker echoed a foreign nonce");
    }
    if (f.header.kind == FrameKind::Error) {
      std::string json_err;
      const JsonValue v =
          JsonValue::parse(f.payload, &json_err).value_or(JsonValue());
      const JsonValue* code = require(v, "error", Kind::String, nullptr);
      const JsonValue* detail = v.get("detail");
      const std::string what =
          (detail != nullptr && detail->kind() == Kind::String)
              ? detail->as_string()
              : f.payload;
      const WireError e =
          (code != nullptr && code->as_string() == "bad-schema")
              ? WireError::BadSchema
              : WireError::PeerLost;
      return set_fail(e,
                      "worker " + std::to_string(L.worker) + ": " + what);
    }
    if (f.header.kind != FrameKind::Response) {
      return set_fail(WireError::Internal, "unexpected frame kind from worker");
    }
    switch (f.header.action) {
      case Action::ShardInit: {
        std::string json_err;
        const JsonValue v =
            JsonValue::parse(f.payload, &json_err).value_or(JsonValue());
        const JsonValue* ok = require(v, "ok", Kind::Bool, nullptr);
        const JsonValue* seeded = require(v, "seeded", Kind::Int, nullptr);
        if (ok == nullptr || !ok->as_bool() || seeded == nullptr) {
          return set_fail(WireError::Internal,
                          "malformed shard-init reply from worker " +
                              std::to_string(L.worker));
        }
        L.init_ok = true;
        L.seeded = static_cast<int>(seeded->as_int());
        return true;
      }
      case Action::FrontierPush: {
        // Star routing: re-frame the batch for its destination worker
        // without decoding the records. The payload's own header names the
        // destination.
        if (f.payload.size() < kPushHeaderSize) {
          return set_fail(WireError::Internal,
                          "malformed frontier-push batch");
        }
        const auto dest = static_cast<std::size_t>(
            static_cast<std::uint8_t>(f.payload[0]));
        if (dest >= links_.size()) {
          return set_fail(WireError::Internal,
                          "frontier-push to an unknown worker");
        }
        LinkState& D = *links_[dest];
        if (!D.link.alive()) {
          return set_fail(WireError::PeerLost,
                          "connection to worker " + std::to_string(D.worker) +
                              " (" + D.link.address() + ") lost");
        }
        D.link.queue(encode_frame(Action::FrontierPush, FrameKind::Request,
                                  D.link.nonce, f.payload));
        obs::count(obs::Counter::NetDistPushes);
        obs::count(obs::Counter::NetDistPushedConfigs,
                   get_u32(reinterpret_cast<const std::uint8_t*>(
                               f.payload.data()) +
                           4));
        return true;
      }
      case Action::LevelBarrier: {
        std::string json_err;
        const JsonValue v =
            JsonValue::parse(f.payload, &json_err).value_or(JsonValue());
        const JsonValue* cmd = require(v, "cmd", Kind::String, nullptr);
        if (cmd == nullptr) {
          return set_fail(WireError::Internal,
                          "malformed level-barrier reply");
        }
        if (cmd->as_string() == "tick") return true;  // heartbeat
        if (cmd->as_string() == "expand_done") {
          L.expand_done = true;
          if (!read_count(v, "pushed", &L.level_pushed)) L.level_pushed = 0;
          return true;
        }
        if (cmd->as_string() == "drain_done") {
          if (!read_count(v, "store", &L.level_store) ||
              !read_count(v, "next", &L.level_next) ||
              !read_count(v, "edges", &L.level_edges)) {
            return set_fail(WireError::Internal, "malformed drain reply");
          }
          L.drain_done = true;
          const JsonValue* derr = v.get("error");
          if (derr != nullptr && derr->kind() == Kind::String) {
            L.drain_error = derr->as_string();
          }
          return true;
        }
        return set_fail(WireError::Internal,
                        "unknown level-barrier reply: " + cmd->as_string());
      }
      case Action::ShardResult:
        return handle_result(L, f);
      default:
        return set_fail(WireError::Internal,
                        std::string("unexpected action from worker: ") +
                            name(f.header.action));
    }
  }

  bool handle_result(LinkState& L, const Frame& f) {
    if (f.payload.empty()) {
      return set_fail(WireError::Internal, "empty shard-result frame");
    }
    const auto* data = reinterpret_cast<const std::uint8_t*>(f.payload.data());
    const std::size_t len = f.payload.size();
    switch (data[0]) {
      case kResultStats: {
        std::string json_err;
        const JsonValue v = JsonValue::parse(f.payload.substr(1), &json_err)
                                .value_or(JsonValue());
        const JsonValue* occs =
            require(v, "occupancies", Kind::Array, nullptr);
        if (!read_count(v, "store", &L.configs) ||
            !read_count(v, "store_bytes", &L.store_bytes) ||
            !read_count(v, "num_edges", &L.num_edges) || occs == nullptr ||
            occs->size() != 64) {
          return set_fail(WireError::Internal,
                          "malformed shard-result stats from worker " +
                              std::to_string(L.worker));
        }
        for (std::size_t sh = 0; sh < 64; ++sh) {
          if (occs->at(sh).kind() != Kind::Int) {
            return set_fail(WireError::Internal, "malformed occupancy array");
          }
          L.occ[sh] = static_cast<std::uint64_t>(occs->at(sh).as_int());
        }
        L.stats_seen = true;
        return true;
      }
      case kResultVerdicts: {
        if (len < kPushHeaderSize) {
          return set_fail(WireError::Internal, "short verdict chunk");
        }
        const std::size_t sh = data[1];
        const std::size_t start = get_u32(data + 4);
        const std::size_t count = get_u32(data + 8);
        if (sh >= 64 || len != kPushHeaderSize + count) {
          return set_fail(WireError::Internal, "malformed verdict chunk");
        }
        const std::uint8_t* bytes = data + kPushHeaderSize;
        if (std::any_of(bytes, bytes + count,
                        [](std::uint8_t v) { return v > 2; })) {
          return set_fail(WireError::Internal, "verdict byte out of range");
        }
        auto& out = L.verdicts[sh];
        if (out.size() < start + count) out.resize(start + count);
        std::memcpy(out.data() + start, bytes, count);
        return true;
      }
      case kResultEdges: {
        if (len < kPushHeaderSize) {
          return set_fail(WireError::Internal, "short edge chunk");
        }
        const std::uint32_t count = get_u32(data + 4);
        std::size_t pos = kPushHeaderSize;
        for (std::uint32_t i = 0; i < count; ++i) {
          std::uint64_t src = 0;
          std::uint64_t dst = 0;
          if (!read_varint(data, len, &pos, &src) ||
              !read_varint(data, len, &pos, &dst)) {
            return set_fail(WireError::Internal, "truncated edge chunk");
          }
          edges_raw_.emplace_back(static_cast<std::int64_t>(src),
                                  static_cast<std::int64_t>(dst));
        }
        if (pos != len) {
          return set_fail(WireError::Internal,
                          "trailing bytes in an edge chunk");
        }
        return true;
      }
      case kResultEnd:
        L.end_seen = true;
        return true;
      default:
        return set_fail(WireError::Internal, "unknown shard-result tag");
    }
  }

  void broadcast_barrier(const char* cmd, std::int64_t level) {
    JsonValue v = JsonValue::object();
    v.set("cmd", JsonValue(cmd));
    v.set("level", JsonValue(level));
    const std::string payload = v.dump();
    for (auto& Lp : links_) {
      if (!Lp->link.alive()) continue;
      Lp->link.queue(encode_frame(Action::LevelBarrier, FrameKind::Request,
                                  Lp->link.nonce, payload));
    }
  }

  // Best-effort: tell surviving workers to stop, give their links half a
  // second to flush, close everything.
  void abort_all() {
    broadcast_barrier("abort", 0);
    const std::uint64_t flush_deadline = now_ms() + 500;
    std::vector<pollfd> fds;
    for (;;) {
      fds.clear();
      bool pending = false;
      for (auto& Lp : links_) {
        if (!Lp->link.alive() || !Lp->link.want_write()) continue;
        pending = true;
        pollfd p = {};
        p.fd = Lp->link.fd();
        p.events = POLLOUT;
        fds.push_back(p);
      }
      if (!pending || now_ms() >= flush_deadline) break;
      if (::poll(fds.data(), fds.size(), 100) <= 0) continue;
      for (auto& Lp : links_) {
        if (Lp->link.alive() && Lp->link.want_write()) {
          Lp->link.on_writable();
        }
      }
    }
    for (auto& Lp : links_) Lp->link.close();
  }

  bool set_fail(WireError e, const std::string& detail) {
    if (fail_error_ == WireError::None) {
      fail_error_ = e;
      fail_detail_ = detail;
    }
    return false;
  }

  DistResult refuse(WireError e, const std::string& detail) {
    set_fail(e, detail);
    return fail_result();
  }

  DistResult fail_result() {
    abort_all();
    DistResult res;
    res.ok = false;
    res.error =
        fail_error_ == WireError::None ? WireError::Internal : fail_error_;
    res.error_detail = fail_detail_;
    fill_worker_stats(res);
    return res;
  }

  void fill_worker_stats(DistResult& res) {
    res.workers.clear();
    for (const auto& Lp : links_) {
      res.workers.push_back({Lp->worker, Lp->configs, Lp->store_bytes,
                             Lp->pushed});
    }
  }

  // Mirrors decide.cpp's report assembly for the Explicit branch: the
  // ledger is filled only for completed, non-tiered runs, from the same
  // formulas the engine uses — which is what keeps the distributed report
  // bit-identical to the single-process one. The engine writes those
  // accounts through the ambient ledger, which -DDAWN_OBS=OFF compiles out,
  // so that build skips them here too.
  void fill_report(DecisionReport& rep, [[maybe_unused]] bool completed,
                   [[maybe_unused]] std::uint64_t store_bytes,
                   [[maybe_unused]] std::uint64_t frontier_peak,
                   [[maybe_unused]] std::uint64_t num_edges) {
    rep.method = DecideMethod::Explicit;
    rep.symmetry_reduced = sym_;
    rep.packed_store = true;
    rep.exact = true;
#ifndef DAWN_OBS_DISABLED
    if (completed && !tiered_) {
      account_explored(rep.memory, obs::MemoryAccount::PackedStoreBytes,
                       store_bytes, frontier_peak, num_edges);
    }
#endif
    rep.budget_exhausted = is_exhaustion(rep.unknown_reason);
    account_interner_bytes(*machine_, rep);
  }

  const DecideRequest& req_;
  const std::vector<std::string>& peers_;
  const DistCoordinatorOptions& opts_;
  std::vector<std::unique_ptr<LinkState>> links_;
  std::shared_ptr<Machine> machine_;
  bool sym_ = false;
  bool tiered_ = false;
  GidEdges edges_raw_;
  WireError fail_error_ = WireError::None;
  std::string fail_detail_;
  bool classify_stage_ = false;
};

}  // namespace

DistResult decide_distributed(const DecideRequest& req,
                              const std::vector<std::string>& peers,
                              const DistCoordinatorOptions& opts) {
  if (peers.empty() ||
      peers.size() > static_cast<std::size_t>(kMaxDistWorkers)) {
    DistResult res;
    res.error = WireError::BadSchema;
    res.error_detail = "distributed decide needs between 1 and " +
                       std::to_string(kMaxDistWorkers) + " peers";
    return res;
  }
  Coordinator coordinator(req, peers, opts);
  return coordinator.run();
}

}  // namespace dawn::net
