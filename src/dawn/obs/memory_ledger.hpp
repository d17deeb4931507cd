// MemoryLedger: unified byte-level accounting of where exploration memory
// goes.
//
// Before this layer each engine surfaced its own ad-hoc number
// (ExploreStats::store_bytes, the explore.store_bytes gauge) and the other
// allocations — frontier buffers, edge lists, interner layers, SoA trial
// blocks — were invisible. The ledger is one fixed enum-indexed account
// array, filled by the engines at the end of a run and surfaced through
// DecisionReport::memory and the BenchReport "telemetry" section (schema
// v1.2).
//
// Determinism contract: every account is computed from thread-count-
// invariant quantities only (reachable-set sizes, frontier peaks, edge
// counts, per-workspace layouts), so a DecisionReport's ledger is
// bit-identical for every thread count and regardless of whether spans or
// heartbeats are enabled. Engines do NOT fill store accounts on capped or
// deadline-aborted runs — what the store holds at an abort is scheduling
// noise — and account_interner_bytes (semantics/decide.cpp) leaves the
// interner account empty on every budget-exhausted report for the same
// reason. Compiled machines number their states in thread-timing order,
// which moves configurations between store shards, so the vector store
// charges per entry, not per-shard capacity. Values are estimates (container layouts are
// implementation-defined) but are measured the same way everywhere, so
// ratios across stores and PRs are meaningful.
#pragma once

#include <array>
#include <cstdint>

namespace dawn::obs {

class JsonValue;

enum class MemoryAccount : std::uint8_t {
  VectorStoreBytes,  // ShardedConfigStore occupancy, per entry: node, value,
                     // one bucket pointer, one key pointer
  PackedStoreBytes,  // PackedConfigStore arenas + hashes + index slots
  InternerBytes,     // lazily-interned machine states, all compiled layers;
                     // cumulative per machine instance
  FrontierBytes,     // peak BFS frontier: 8 B (one gid) per entry
  EdgeBytes,         // exploration edge buffers at merge time
  TrialBlockBytes,   // one SoA batched-trial workspace (lanes, memo, CSR)
  // Tiered (out-of-core) store accounts. Resident = the always-in-memory
  // hash index plus any not-yet-spilled arena words at finalize; the spill
  // accounts are cumulative bytes written to the unlinked spill files.
  // Spilling happens at level boundaries against level-end store contents,
  // so all three are thread-count-invariant like every other account.
  TieredResidentBytes,  // spilling PackedConfigStore's in-memory footprint
                        // at finalize
  SpillArenaBytes,      // packed config words written to the arena file
  SpillEdgeBytes,       // (src,dst) gid pairs written to the edge spool
  kCount,
};

inline constexpr std::size_t kNumMemoryAccounts =
    static_cast<std::size_t>(MemoryAccount::kCount);

// Registry names, stable across PRs (heartbeats and reports reference them).
const char* name(MemoryAccount a);

struct MemoryLedger {
  std::array<std::uint64_t, kNumMemoryAccounts> bytes{};

  std::uint64_t get(MemoryAccount a) const {
    return bytes[static_cast<std::size_t>(a)];
  }
  void set_max(MemoryAccount a, std::uint64_t value) {
    auto& slot = bytes[static_cast<std::size_t>(a)];
    if (value > slot) slot = value;
  }
  void add(MemoryAccount a, std::uint64_t value) {
    bytes[static_cast<std::size_t>(a)] += value;
  }

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t b : bytes) sum += b;
    return sum;
  }
  bool empty() const { return total() == 0; }

  // Deterministic merge: per-account max (accounts are peak footprints).
  void merge(const MemoryLedger& other) {
    for (std::size_t i = 0; i < kNumMemoryAccounts; ++i) {
      if (other.bytes[i] > bytes[i]) bytes[i] = other.bytes[i];
    }
  }

  bool operator==(const MemoryLedger&) const = default;

  // Named snapshot; zero accounts are omitted so reports stay small.
  JsonValue to_json() const;
};

#ifndef DAWN_OBS_DISABLED

namespace detail {
// The current thread's ambient ledger; null = disabled (the default).
// Installed via obs::TelemetryScope (telemetry.hpp); decide() points it at
// DecisionReport::memory.
inline thread_local MemoryLedger* t_ledger = nullptr;
}  // namespace detail

inline MemoryLedger* ledger() { return detail::t_ledger; }

#else

inline MemoryLedger* ledger() { return nullptr; }

#endif  // DAWN_OBS_DISABLED

}  // namespace dawn::obs
