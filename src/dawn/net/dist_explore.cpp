#include "dawn/net/dist_explore.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
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
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/semantics/scc.hpp"
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

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

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

std::uint32_t get_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

const JsonValue* require(const JsonValue& v, const char* key, Kind kind,
                         std::string* error) {
  const JsonValue* field = v.get(key);
  if (field == nullptr || field->kind() != kind) {
    fail(error, std::string("missing or mistyped field: ") + key);
    return nullptr;
  }
  return field;
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
  static constexpr const char* kKnown[] = {
      "spec_version", "worker", "num_workers", "machine",
      "graph",        "budget", "store",       "symmetry"};
  for (const auto& [key, value] : v.members()) {
    (void)value;
    bool known = false;
    for (const char* k : kKnown) known = known || key == k;
    if (!known) {
      fail(error, "unknown shard-init key: " + key);
      return std::nullopt;
    }
  }
  const JsonValue* spec = require(v, "spec_version", Kind::Int, error);
  if (spec == nullptr) return std::nullopt;
  if (spec->as_int() != fuzz::kSpecVersion) {
    fail(error, "unknown spec_version: " + std::to_string(spec->as_int()));
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
  if (machine == nullptr) return std::nullopt;
  auto spec_parsed = fuzz::machine_spec_from_json(*machine, error);
  if (!spec_parsed.has_value()) return std::nullopt;
  init.machine = std::move(*spec_parsed);
  const JsonValue* graph = require(v, "graph", Kind::Object, error);
  if (graph == nullptr) return std::nullopt;
  auto graph_parsed = fuzz::graph_from_json(*graph, error);
  if (!graph_parsed.has_value()) return std::nullopt;
  init.graph = std::move(*graph_parsed);
  const JsonValue* budget = require(v, "budget", Kind::Object, error);
  if (budget == nullptr) return std::nullopt;
  if (!budget_from_json(*budget, &init.budget, error)) return std::nullopt;
  const JsonValue* store = require(v, "store", Kind::String, error);
  if (store == nullptr) return std::nullopt;
  init.store = store->as_string();
  if (init.store != "packed" && init.store != "tiered") {
    fail(error, "unknown store mode: " + init.store);
    return std::nullopt;
  }
  const JsonValue* symmetry = require(v, "symmetry", Kind::Bool, error);
  if (symmetry == nullptr) return std::nullopt;
  init.symmetry = symmetry->as_bool();
  return init;
}

namespace {

// One frontier entry of a worker session: the configuration is a value
// copy, so expanding it needs no store read.
struct FrontierEntry {
  std::int64_t gid = 0;
  Config config;
};

// One detached worker session: owns its shard range of the configuration
// space and runs the level-synchronous protocol against the coordinator.
// Single-threaded and blocking — the coordinator never blocks, so the star
// cannot deadlock.
template <typename ExpanderT>
class WorkerSession {
 public:
  WorkerSession(int fd, FrameReader& reader, std::uint64_t nonce,
                const ShardInitRequest& init, const WorkerSessionHooks& hooks,
                const Machine& machine, PackedConfigStore& store,
                ExpanderT& expander)
      : fd_(fd),
        reader_(reader),
        nonce_(nonce),
        init_(init),
        hooks_(hooks),
        machine_(machine),
        store_(store),
        expander_(expander),
        g_(init.graph),
        owned_begin_(shard_range_begin(init.worker, init.num_workers)),
        owned_end_(shard_range_end(init.worker, init.num_workers)) {
    for (std::size_t sh = 0; sh < 64; ++sh) {
      int owner = 0;
      for (int w = 0; w < init_.num_workers; ++w) {
        if (sh >= shard_range_begin(w, init_.num_workers) &&
            sh < shard_range_end(w, init_.num_workers)) {
          owner = w;
          break;
        }
      }
      owner_[sh] = static_cast<std::uint8_t>(owner);
    }
    batches_.resize(static_cast<std::size_t>(init_.num_workers));
  }

  void run(const Config& initial) {
    // Seed: the worker owning the initial configuration's shard interns it;
    // everyone reports `seeded` so the coordinator can check the ownership
    // partition (exactly one worker must claim it).
    int seeded = 0;
    if (owns(store_.shard_of(initial))) {
      const auto r = store_.intern(initial);
      verdicts_.emplace_back(r.gid, consensus(machine_, initial));
      next_.push_back({r.gid, initial});
      seeded = 1;
    }
    {
      JsonValue reply = JsonValue::object();
      reply.set("spec_version", JsonValue(fuzz::kSpecVersion));
      reply.set("ok", JsonValue(true));
      reply.set("seeded", JsonValue(static_cast<std::int64_t>(seeded)));
      if (!send_frame(Action::ShardInit, FrameKind::Response, reply.dump())) {
        return;
      }
    }
    Frame f;
    for (;;) {
      if (!read_frame_blocking(fd_, reader_, &f, hooks_.stop,
                               hooks_.barrier_timeout_ms, hooks_.bytes_in)) {
        return;  // coordinator gone, wedged, or shutting down
      }
      if (f.header.nonce != nonce_ || f.header.kind != FrameKind::Request) {
        protocol_error("frame does not match the shard session");
        return;
      }
      switch (f.header.action) {
        case Action::FrontierPush:
          if (!handle_push(f)) return;
          break;
        case Action::LevelBarrier: {
          std::string json_err;
          const auto parsed = JsonValue::parse(f.payload, &json_err);
          if (!parsed.has_value()) {
            protocol_error("level-barrier payload is not JSON: " + json_err);
            return;
          }
          const JsonValue& v = *parsed;
          const JsonValue* cmd = require(v, "cmd", Kind::String, nullptr);
          const JsonValue* level = v.get("level");
          const std::int64_t lvl =
              (level != nullptr && level->kind() == Kind::Int)
                  ? level->as_int()
                  : 0;
          if (cmd == nullptr) {
            protocol_error("level-barrier payload needs a cmd");
            return;
          }
          if (cmd->as_string() == "expand") {
            if (!do_expand(lvl)) return;
          } else if (cmd->as_string() == "drain") {
            if (!do_drain(lvl)) return;
          } else if (cmd->as_string() == "classify") {
            do_classify();
            return;  // classify is terminal either way
          } else if (cmd->as_string() == "abort") {
            return;
          } else {
            protocol_error("unknown level-barrier cmd: " + cmd->as_string());
            return;
          }
          break;
        }
        default:
          protocol_error(std::string("unexpected action in shard session: ") +
                         name(f.header.action));
          return;
      }
    }
  }

 private:
  struct PushBatch {
    std::vector<std::uint8_t> buf;
    std::uint32_t count = 0;
    std::int64_t prev = 0;
  };

  bool owns(std::size_t shard) const {
    return shard >= owned_begin_ && shard < owned_end_;
  }

  bool send_frame(Action action, FrameKind kind, std::string_view payload) {
    const auto bytes = encode_frame(action, kind, nonce_, payload);
    last_send_ms_ = now_ms();
    return write_all_blocking(fd_, bytes.data(), bytes.size(), hooks_.stop,
                              hooks_.barrier_timeout_ms, hooks_.bytes_out);
  }

  void protocol_error(const std::string& detail) {
    const auto bytes = encode_error_frame(Action::LevelBarrier, nonce_,
                                          WireError::BadSchema, detail);
    write_all_blocking(fd_, bytes.data(), bytes.size(), hooks_.stop, 5'000,
                       hooks_.bytes_out);
  }

  // Long expansions emit heartbeat ticks so the coordinator's inactivity
  // deadline only ever fires on a genuinely wedged worker, not a big level.
  bool maybe_tick(std::int64_t level) {
    const std::uint64_t quiet = hooks_.barrier_timeout_ms / 4 + 1;
    if (now_ms() - last_send_ms_ < quiet) return true;
    JsonValue tick = JsonValue::object();
    tick.set("cmd", JsonValue("tick"));
    tick.set("level", JsonValue(level));
    return send_frame(Action::LevelBarrier, FrameKind::Response, tick.dump());
  }

  bool append_push(int dest, std::int64_t pred, const Config& succ,
                   std::int64_t level) {
    PushBatch& b = batches_[static_cast<std::size_t>(dest)];
    if (b.count == 0) {
      b.buf.assign(kPushHeaderSize, 0);
      append_varint(b.buf, static_cast<std::uint64_t>(pred));
    } else {
      append_varint(b.buf, zigzag_enc(pred - b.prev));
    }
    b.prev = pred;
    for (const State s : succ) {
      append_varint(b.buf, static_cast<std::uint64_t>(s));
    }
    ++b.count;
    ++level_pushed_;
    if (b.count >= kPushFlushRecords || b.buf.size() >= kPushFlushBytes) {
      return flush_push(dest, level);
    }
    return true;
  }

  bool flush_push(int dest, std::int64_t level) {
    (void)level;
    PushBatch& b = batches_[static_cast<std::size_t>(dest)];
    if (b.count == 0) return true;
    b.buf[0] = static_cast<std::uint8_t>(dest);
    b.buf[1] = static_cast<std::uint8_t>(init_.worker);
    put_u32(b.buf.data() + 4, b.count);
    put_u32(b.buf.data() + 8, static_cast<std::uint32_t>(g_.n()));
    const bool ok = send_frame(
        Action::FrontierPush, FrameKind::Response,
        std::string_view(reinterpret_cast<const char*>(b.buf.data()),
                         b.buf.size()));
    obs::count(obs::Counter::NetDistPushes);
    obs::count(obs::Counter::NetDistPushedConfigs, b.count);
    pushed_total_ += b.count;
    b.buf.clear();
    b.count = 0;
    b.prev = 0;
    return ok;
  }

  // A batch of successors whose shard we own, routed here by the
  // coordinator. The destination owner records the edge (the emitting
  // worker does not), so every emit lands in exactly one edge record —
  // matching the single-process engine's per-emit edge accounting.
  bool handle_push(const Frame& f) {
    const auto* data = reinterpret_cast<const std::uint8_t*>(f.payload.data());
    const std::size_t len = f.payload.size();
    if (len < kPushHeaderSize) {
      protocol_error("frontier-push payload shorter than its header");
      return false;
    }
    if (data[0] != static_cast<std::uint8_t>(init_.worker)) {
      protocol_error("frontier-push routed to the wrong worker");
      return false;
    }
    const std::uint32_t count = get_u32(data + 4);
    const std::uint32_t n = get_u32(data + 8);
    if (n != static_cast<std::uint32_t>(g_.n())) {
      protocol_error("frontier-push configuration width mismatch");
      return false;
    }
    std::size_t pos = kPushHeaderSize;
    std::int64_t prev = 0;
    scratch_.resize(n);
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint64_t raw = 0;
      if (!read_varint(data, len, &pos, &raw)) {
        protocol_error("truncated frontier-push record");
        return false;
      }
      const std::int64_t pred =
          i == 0 ? static_cast<std::int64_t>(raw) : prev + zigzag_dec(raw);
      prev = pred;
      for (std::uint32_t j = 0; j < n; ++j) {
        std::uint64_t s = 0;
        if (!read_varint(data, len, &pos, &s)) {
          protocol_error("truncated frontier-push record");
          return false;
        }
        scratch_[j] = static_cast<State>(s);
      }
      if (!owns(store_.shard_of(scratch_))) {
        protocol_error("frontier-push record outside the owned shard range");
        return false;
      }
      const auto r = store_.intern(scratch_);
      edges_.emplace_back(pred, r.gid);
      if (r.fresh) {
        verdicts_.emplace_back(r.gid, consensus(machine_, scratch_));
        next_.push_back({r.gid, scratch_});
      }
    }
    if (pos != len) {
      protocol_error("trailing bytes after the last frontier-push record");
      return false;
    }
    return true;
  }

  // Expand this worker's slice of the level. Owned successors intern
  // locally (edge recorded here); non-owned successors are batched to their
  // owner via the coordinator. The frontier swap happens first, so pushes
  // read after expand_done — which all belong to the next level — land in
  // the fresh next_ buffer.
  bool do_expand(std::int64_t level) {
    frontier_.swap(next_);
    next_.clear();
    level_pushed_ = 0;
    bool ok = true;
    std::size_t processed = 0;
    for (const FrontierEntry& entry : frontier_) {
      if (hooks_.stop != nullptr &&
          hooks_.stop->load(std::memory_order_relaxed)) {
        return false;
      }
      expander_(entry.config, [&](const Config& succ) {
        if (!ok) return;
        const std::size_t sh = store_.shard_of(succ);
        if (owns(sh)) {
          const auto r = store_.intern(succ);
          edges_.emplace_back(entry.gid, r.gid);
          if (r.fresh) {
            verdicts_.emplace_back(r.gid, consensus(machine_, succ));
            next_.push_back({r.gid, succ});
          }
        } else {
          ok = ok && append_push(owner_[sh], entry.gid, succ, level);
        }
      });
      if (!ok) return false;
      if ((++processed & 1023) == 0 && !maybe_tick(level)) return false;
    }
    for (int w = 0; w < init_.num_workers; ++w) {
      if (!flush_push(w, level)) return false;
    }
    frontier_.clear();
    JsonValue done = JsonValue::object();
    done.set("cmd", JsonValue("expand_done"));
    done.set("level", JsonValue(level));
    done.set("pushed", JsonValue(static_cast<std::int64_t>(level_pushed_)));
    return send_frame(Action::LevelBarrier, FrameKind::Response, done.dump());
  }

  // Close the level: every push routed during the expansion has been
  // delivered (per-link FIFO puts them ahead of the drain command), so the
  // level-end store/next/edge counts are global invariants.
  bool do_drain(std::int64_t level) {
    // A spilling shard spills at the level boundary exactly like the
    // single-process engine; a spill failure or an index that no longer
    // fits the per-worker budget is a memory-cap abort. An in-memory shard
    // never spills and has no budget.
    std::string drain_error;
    if (!store_.spill_to_budget()) {
      drain_error = store_.error();
    } else if (store_.resident_bytes() > store_.max_resident_bytes()) {
      drain_error = "resident index exceeds the per-worker budget";
    }
    JsonValue done = JsonValue::object();
    done.set("cmd", JsonValue("drain_done"));
    done.set("level", JsonValue(level));
    done.set("store", JsonValue(static_cast<std::int64_t>(store_.size())));
    done.set("next", JsonValue(static_cast<std::int64_t>(next_.size())));
    done.set("edges", JsonValue(static_cast<std::int64_t>(edges_.size())));
    if (!drain_error.empty()) done.set("error", JsonValue(drain_error));
    return send_frame(Action::LevelBarrier, FrameKind::Response, done.dump());
  }

  // Ship everything the coordinator needs for the SCC classification:
  // stats (occupancies first, so the coordinator can build the dense
  // remap), per-shard verdict arrays in local-id order, raw gid edges, and
  // a final end marker. The session ends here.
  void do_classify() {
    store_.finalize();
    const auto occ = store_.shard_occupancies();
    // Owned shards only: summing disjoint ranges across workers equals one
    // process measuring all 64 shards (bit-identical ledgers).
    const std::uint64_t store_bytes =
        store_.bytes_for_shard_range(owned_begin_, owned_end_);
    {
      JsonValue stats = JsonValue::object();
      stats.set("spec_version", JsonValue(fuzz::kSpecVersion));
      stats.set("store", JsonValue(static_cast<std::int64_t>(store_.size())));
      stats.set("store_bytes",
                JsonValue(static_cast<std::int64_t>(store_bytes)));
      stats.set("num_edges",
                JsonValue(static_cast<std::int64_t>(edges_.size())));
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
    // Verdicts, per owned shard, indexed by local id.
    for (std::size_t sh = owned_begin_; sh < owned_end_; ++sh) {
      if (occ[sh] == 0) continue;
      shard_verdicts_.assign(occ[sh], static_cast<std::uint8_t>(0));
      for (const auto& [gid, verdict] : verdicts_) {
        if ((static_cast<std::uint64_t>(gid) & 63u) != sh) continue;
        shard_verdicts_[static_cast<std::size_t>(gid >> 6)] =
            static_cast<std::uint8_t>(verdict);
      }
      std::size_t start = 0;
      while (start < shard_verdicts_.size()) {
        const std::size_t chunk = std::min<std::size_t>(
            kResultChunkBytes, shard_verdicts_.size() - start);
        std::vector<std::uint8_t> payload(kPushHeaderSize, 0);
        payload[0] = kResultVerdicts;
        payload[1] = static_cast<std::uint8_t>(sh);
        put_u32(payload.data() + 4, static_cast<std::uint32_t>(start));
        put_u32(payload.data() + 8, static_cast<std::uint32_t>(chunk));
        payload.insert(payload.end(), shard_verdicts_.begin() +
                                          static_cast<std::ptrdiff_t>(start),
                       shard_verdicts_.begin() +
                           static_cast<std::ptrdiff_t>(start + chunk));
        if (!send_frame(Action::ShardResult, FrameKind::Response,
                        std::string_view(
                            reinterpret_cast<const char*>(payload.data()),
                            payload.size()))) {
          return;
        }
        start += chunk;
      }
    }
    // Edges, as (src gid, dst gid) varint pairs, byte-capped per frame.
    {
      std::vector<std::uint8_t> payload(kPushHeaderSize, 0);
      std::uint32_t count = 0;
      auto flush = [&]() -> bool {
        if (count == 0) return true;
        payload[0] = kResultEdges;
        put_u32(payload.data() + 4, count);
        const bool ok = send_frame(
            Action::ShardResult, FrameKind::Response,
            std::string_view(reinterpret_cast<const char*>(payload.data()),
                             payload.size()));
        payload.assign(kPushHeaderSize, 0);
        count = 0;
        return ok;
      };
      for (const auto& [src, dst] : edges_) {
        append_varint(payload, static_cast<std::uint64_t>(src));
        append_varint(payload, static_cast<std::uint64_t>(dst));
        ++count;
        if (payload.size() >= kResultChunkBytes && !flush()) return;
      }
      if (!flush()) return;
    }
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
  const Machine& machine_;
  PackedConfigStore& store_;
  ExpanderT& expander_;
  const Graph& g_;
  std::size_t owned_begin_;
  std::size_t owned_end_;
  std::array<std::uint8_t, 64> owner_{};
  std::vector<FrontierEntry> frontier_;
  std::vector<FrontierEntry> next_;
  std::vector<std::pair<std::int64_t, std::int64_t>> edges_;
  std::vector<std::pair<std::int64_t, Verdict>> verdicts_;
  std::vector<PushBatch> batches_;
  std::vector<std::uint8_t> shard_verdicts_;
  Config scratch_;
  std::uint64_t pushed_total_ = 0;
  std::uint64_t level_pushed_ = 0;
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
  const auto refuse = [&](WireError e, const std::string& detail) {
    const auto bytes = encode_error_frame(Action::ShardInit, nonce, e, detail);
    write_all_blocking(fd, bytes.data(), bytes.size(), hooks.stop, 5'000,
                       hooks.bytes_out);
  };
  const std::shared_ptr<Machine> machine = fuzz::build_machine(init.machine);
  if (machine == nullptr) {
    refuse(WireError::BadSchema, "machine spec does not build");
    ::close(fd);
    return;
  }
  // Every shard store packs. Wire machines are fuzz specs, which always
  // advertise |Q|; anything else is refused.
  const std::optional<int> nstates = machine->num_states();
  if (!nstates.has_value()) {
    refuse(WireError::BadSchema,
           init.store + " store needs a machine with a state-space bound");
    ::close(fd);
    return;
  }
  if (init.store == "tiered" &&
      (hooks.spill_dir.empty() || init.budget.max_store_bytes == 0)) {
    refuse(WireError::BadSchema,
           "tiered shard needs a worker spill dir and a nonzero store budget");
    ::close(fd);
    return;
  }
  // Recompute the symmetry group locally: compute_symmetry is deterministic
  // and both ends run the same binary, so this matches the coordinator's
  // resolution exactly (docs/DISTRIBUTED.md).
  SymmetryGroup grp;
  bool canon = false;
  if (init.symmetry) {
    grp = compute_symmetry(init.graph);
    canon = !grp.trivial();
  }
  Config initial = initial_config(*machine, init.graph);
  if (canon) {
    CanonScratch scratch;
    canonicalize(grp, initial, scratch);
  }
  // A "tiered" shard is the packed store in spill mode.
  PackedConfigStore store(
      PackedCodec(*nstates, init.graph.n()),
      init.store == "tiered" ? hooks.spill_dir : std::string(),
      init.budget.max_store_bytes);
  const auto run_with = [&](auto& expander) {
    WorkerSession<std::decay_t<decltype(expander)>> session(
        fd, reader, nonce, init, hooks, *machine, store, expander);
    session.run(initial);
  };
  if (!store.ok()) {
    refuse(WireError::Internal, "tiered store unavailable: " + store.error());
  } else if (canon) {
    CanonExplicitExpander expander{*machine, init.graph, grp};
    run_with(expander);
  } else {
    ExplicitExpander expander{*machine, init.graph, Neighbourhood{},
                              Config{}};
    run_with(expander);
  }
  ::close(fd);
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
    if (req_.budget.use_symmetry) {
      grp_ = compute_symmetry(req_.graph);
      sym_ = !grp_.trivial();
    }
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
      init.budget.max_threads = 1;  // shard expansion is single-threaded
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
    if (!pump([&] {
          for (const auto& Lp : links_) {
            if (!Lp->init_ok) return false;
          }
          return true;
        })) {
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
      if (!pump([&] {
            for (const auto& Lp : links_) {
              if (!Lp->expand_done) return false;
            }
            return true;
          })) {
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
        if (!pump([&] {
              for (const auto& Lp : links_) {
                if (!Lp->drain_done) return false;
              }
              return true;
            })) {
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
    if (!pump([&] {
          for (const auto& Lp : links_) {
            if (!Lp->end_seen) return false;
          }
          return true;
        })) {
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
    std::array<std::int32_t, 64> offsets{};
    std::int64_t off = 0;
    for (std::size_t sh = 0; sh < 64; ++sh) {
      offsets[sh] = static_cast<std::int32_t>(off);
      off += static_cast<std::int64_t>(occ[sh]);
    }
    const auto total = static_cast<std::size_t>(off);
    const auto dense = [&](std::int64_t gid) {
      return static_cast<std::size_t>(
          offsets[static_cast<std::size_t>(gid) & 63u] +
          static_cast<std::int32_t>(gid >> 6));
    };
    std::vector<Verdict> verdicts(total, Verdict::Neutral);
    CsrGraph graph;
    {
      obs::SpanScope merge_span(opts_.spans, obs::Phase::ExploreMerge, total);
      for (const auto& Lp : links_) {
        for (std::size_t sh = 0; sh < 64; ++sh) {
          const auto& shard = Lp->verdicts[sh];
          if (shard.empty()) continue;
          if (shard.size() != occ[sh]) {
            return refuse(WireError::Internal,
                          "verdict array does not cover its shard");
          }
          for (std::size_t local = 0; local < shard.size(); ++local) {
            if (shard[local] > 2) {
              return refuse(WireError::Internal, "verdict byte out of range");
            }
            verdicts[static_cast<std::size_t>(offsets[sh]) + local] =
                static_cast<Verdict>(shard[local]);
          }
        }
      }
      if (!build_csr(total, std::span<GidEdges>(&edges_raw_, 1), dense,
                     graph)) {
        return refuse(WireError::Internal, "edge gid out of range");
      }
    }
    BottomClassification cls;
    {
      obs::SpanScope scc_span(opts_.spans, obs::Phase::ExploreScc, total);
      cls = classify_bottom_sccs(graph,
                                 [&](std::size_t i) { return verdicts[i]; });
    }

    if (opts_.progress != nullptr) {
      for (std::size_t sh = 0; sh < 64; ++sh) {
        opts_.progress->shard_sizes[sh].store(occ[sh],
                                              std::memory_order_relaxed);
      }
    }
    res.ok = true;
    res.report.decision = cls.decision;
    res.report.unknown_reason = UnknownReason::None;
    res.report.configs_explored = total;
    res.report.num_bottom_sccs = cls.num_bottom_sccs;
    fill_report(res.report, /*completed=*/true, total_store_bytes,
                frontier_peak, total_edges);
    fill_worker_stats(res);
    return res;
  }

 private:
  template <typename Done>
  bool pump(const Done& done) {
    std::uint64_t activity_deadline = now_ms() + opts_.barrier_timeout_ms;
    std::vector<pollfd> fds;
    std::vector<LinkState*> order;
    while (!done()) {
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
          const JsonValue* pushed = require(v, "pushed", Kind::Int, nullptr);
          L.expand_done = true;
          L.level_pushed =
              pushed != nullptr
                  ? static_cast<std::uint64_t>(pushed->as_int())
                  : 0;
          return true;
        }
        if (cmd->as_string() == "drain_done") {
          const JsonValue* store = require(v, "store", Kind::Int, nullptr);
          const JsonValue* next = require(v, "next", Kind::Int, nullptr);
          const JsonValue* edges = require(v, "edges", Kind::Int, nullptr);
          if (store == nullptr || next == nullptr || edges == nullptr) {
            return set_fail(WireError::Internal, "malformed drain reply");
          }
          L.drain_done = true;
          L.level_store = static_cast<std::uint64_t>(store->as_int());
          L.level_next = static_cast<std::uint64_t>(next->as_int());
          L.level_edges = static_cast<std::uint64_t>(edges->as_int());
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
        const JsonValue* store = require(v, "store", Kind::Int, nullptr);
        const JsonValue* bytes =
            require(v, "store_bytes", Kind::Int, nullptr);
        const JsonValue* edges = require(v, "num_edges", Kind::Int, nullptr);
        const JsonValue* occs =
            require(v, "occupancies", Kind::Array, nullptr);
        if (store == nullptr || bytes == nullptr || edges == nullptr ||
            occs == nullptr || occs->size() != 64) {
          return set_fail(WireError::Internal,
                          "malformed shard-result stats from worker " +
                              std::to_string(L.worker));
        }
        L.configs = static_cast<std::uint64_t>(store->as_int());
        L.store_bytes = static_cast<std::uint64_t>(bytes->as_int());
        L.num_edges = static_cast<std::uint64_t>(edges->as_int());
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
        auto& out = L.verdicts[sh];
        if (out.size() < start + count) out.resize(start + count);
        std::memcpy(out.data() + start, data + kPushHeaderSize, count);
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
      rep.memory.set_max(obs::MemoryAccount::PackedStoreBytes, store_bytes);
      rep.memory.set_max(obs::MemoryAccount::FrontierBytes,
                         frontier_peak * sizeof(std::int64_t));
      rep.memory.set_max(obs::MemoryAccount::EdgeBytes,
                         num_edges * 2 * sizeof(std::int64_t));
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
  SymmetryGroup grp_;
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
