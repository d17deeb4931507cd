#include "dawn/obs/memory_ledger.hpp"

#include "dawn/obs/json.hpp"

namespace dawn::obs {

const char* name(MemoryAccount a) {
  switch (a) {
    case MemoryAccount::VectorStoreBytes: return "vector_store_bytes";
    case MemoryAccount::PackedStoreBytes: return "packed_store_bytes";
    case MemoryAccount::InternerBytes: return "interner_bytes";
    case MemoryAccount::FrontierBytes: return "frontier_bytes";
    case MemoryAccount::EdgeBytes: return "edge_bytes";
    case MemoryAccount::TrialBlockBytes: return "trial_block_bytes";
    case MemoryAccount::TieredResidentBytes: return "tiered_resident_bytes";
    case MemoryAccount::SpillArenaBytes: return "spill_arena_bytes";
    case MemoryAccount::SpillEdgeBytes: return "spill_edge_bytes";
    case MemoryAccount::kCount: break;
  }
  return "?";
}

JsonValue MemoryLedger::to_json() const {
  JsonValue out = JsonValue::object();
  for (std::size_t i = 0; i < kNumMemoryAccounts; ++i) {
    if (bytes[i] != 0) {
      out.set(name(static_cast<MemoryAccount>(i)), JsonValue(bytes[i]));
    }
  }
  out.set("total_bytes", JsonValue(total()));
  return out;
}

}  // namespace dawn::obs
