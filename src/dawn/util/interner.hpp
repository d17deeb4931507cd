// Interner: bidirectional map between structured values and dense int ids.
//
// Compiled machines (Lemmas 4.7, 4.9, 4.10, 5.1) have nominally huge state
// spaces like Q ∪ Q×{1,2}×Q^Q. Interning materialises only the states that a
// run or a decision procedure actually reaches, which keeps the five-deep
// Section 6.1 stack tractable.
//
// id(), find() and value() are safe to call concurrently, which is what lets
// the parallel exploration engines step a compiled machine on every worker:
//
//  * values live in segments of doubling size that never move, so a
//    reference returned by value() stays valid while other threads insert;
//  * the index is an open-addressed table of atomic (hash tag, id + 1)
//    slots, probed without a lock;
//  * inserts take one mutex and re-probe under it before appending, so each
//    value gets exactly one id;
//  * a table that has grown is retired, not freed, until the interner dies:
//    a reader still probing it sees an older snapshot, and a miss there only
//    sends id() to the locked path.
//
// Ids stay dense, but when several threads insert, which value gets which
// id depends on thread timing.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "dawn/obs/metrics.hpp"  // header-only use: obs::count / gauge_max
#include "dawn/util/check.hpp"
#include "dawn/util/hash.hpp"

namespace dawn {

template <typename T, typename Hash = std::hash<T>>
class Interner {
 public:
  Interner() { publish(std::make_unique<Table>(kInitialSlots)); }

  ~Interner() {
    const std::size_t n = size_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      std::destroy_at(&at(static_cast<std::uint32_t>(i)));
    }
    for (int k = 0; k < kSegments; ++k) {
      if (T* seg = segments_[k].load(std::memory_order_relaxed)) {
        std::allocator<T>().deallocate(seg, segment_size(k));
      }
    }
  }

  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  // Returns the id of `value`, creating one if it is new. Ids are dense and
  // stable for the lifetime of the interner.
  std::int32_t id(const T& value) {
    const std::uint32_t tag = tag_of(value);
    const Probe hit = probe(*table_.load(std::memory_order_acquire), value, tag);
    return hit.id >= 0 ? hit.id : insert(value, tag);
  }

  // Looks up an id without creating it; returns -1 if absent.
  std::int32_t find(const T& value) const {
    return probe(*table_.load(std::memory_order_acquire), value, tag_of(value))
        .id;
  }

  const T& value(std::int32_t id) const {
    DAWN_CHECK(id >= 0 && static_cast<std::size_t>(id) < size());
    return at(static_cast<std::uint32_t>(id));
  }

  std::size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  // Segment k holds ids [kFirst·(2^k − 1), kFirst·(2^(k+1) − 1)); 28
  // segments cover every non-negative int32 id.
  static constexpr int kFirstBits = 4;
  static constexpr std::uint32_t kFirst = 1u << kFirstBits;
  static constexpr int kSegments = 28;
  static constexpr std::size_t kInitialSlots = 32;

  // A slot packs (hash tag << 32) | (id + 1); 0 marks an empty slot. The
  // home slot is tag & mask, so growing rehashes from the slots alone.
  struct Table {
    explicit Table(std::size_t capacity) : mask(capacity - 1), slots(capacity) {}
    std::size_t mask;
    std::vector<std::atomic<std::uint64_t>> slots;
  };

  struct Probe {
    std::int32_t id;   // -1 if absent
    std::size_t slot;  // the match, or the empty slot that ends the probe
  };

  static std::uint32_t tag_of(const T& value) {
    return static_cast<std::uint32_t>(hash_mix(Hash{}(value)) >> 32);
  }

  static std::size_t segment_size(int k) { return std::size_t{kFirst} << k; }

  const T& at(std::uint32_t id) const {
    const std::uint32_t biased = id + kFirst;
    const int top = std::bit_width(biased) - 1;
    return segments_[top - kFirstBits].load(std::memory_order_acquire)
        [biased - (1u << top)];
  }

  // Linear probing; tables stay at most half full, so a probe always ends.
  Probe probe(const Table& t, const T& value, std::uint32_t tag) const {
    for (std::size_t i = tag & t.mask;; i = (i + 1) & t.mask) {
      const std::uint64_t slot = t.slots[i].load(std::memory_order_acquire);
      if (slot == 0) return {-1, i};
      if (static_cast<std::uint32_t>(slot >> 32) == tag) {
        const auto id = static_cast<std::uint32_t>(slot) - 1;
        if (at(id) == value) return {static_cast<std::int32_t>(id), i};
      }
    }
  }

  std::int32_t insert(const T& value, std::uint32_t tag) {
    const std::lock_guard<std::mutex> lock(mu_);
    Table& t = *table_.load(std::memory_order_relaxed);
    const Probe p = probe(t, value, tag);
    if (p.id >= 0) return p.id;  // another thread inserted it first

    const std::size_t n = size_.load(std::memory_order_relaxed);
    DAWN_CHECK_MSG(n < static_cast<std::size_t>(INT32_MAX),
                   "interner id space exhausted");
    // Allocate everything that can throw before the new id becomes visible.
    std::unique_ptr<Table> bigger;
    if (2 * (n + 1) > t.mask + 1) {
      bigger = std::make_unique<Table>(2 * (t.mask + 1));
      tables_.reserve(tables_.size() + 1);
    }
    const auto id = static_cast<std::uint32_t>(n);
    const std::uint32_t biased = id + kFirst;
    const int k = std::bit_width(biased) - 1 - kFirstBits;
    T* seg = segments_[k].load(std::memory_order_relaxed);
    if (seg == nullptr) {
      seg = std::allocator<T>().allocate(segment_size(k));
      segments_[k].store(seg, std::memory_order_release);
    }
    std::construct_at(seg + (biased - (kFirst << k)), value);
    // Publish the count before the slot, so value(id) accepts every id a
    // reader can find.
    size_.store(n + 1, std::memory_order_release);

    const std::uint64_t entry = (std::uint64_t{tag} << 32) | (id + 1);
    if (bigger != nullptr) {
      for (const auto& slot : t.slots) {
        const std::uint64_t e = slot.load(std::memory_order_relaxed);
        if (e != 0) place(*bigger, e);
      }
      place(*bigger, entry);
      publish(std::move(bigger));
    } else {
      t.slots[p.slot].store(entry, std::memory_order_release);
    }
    // Insertions are rare after warm-up (compiled stacks saturate), so the
    // thread-local sink check stays off the steady-state path.
    obs::count(obs::Counter::InternerInserts);
    obs::gauge_max(obs::Gauge::InternerPeakStates, n + 1);
    return static_cast<std::int32_t>(id);
  }

  // Fills a table no reader can see yet.
  static void place(Table& t, std::uint64_t entry) {
    std::size_t i = static_cast<std::uint32_t>(entry >> 32) & t.mask;
    while (t.slots[i].load(std::memory_order_relaxed) != 0) i = (i + 1) & t.mask;
    t.slots[i].store(entry, std::memory_order_relaxed);
  }

  // Makes `t` the table readers probe; earlier tables stay alive.
  void publish(std::unique_ptr<Table> t) {
    tables_.push_back(std::move(t));
    table_.store(tables_.back().get(), std::memory_order_release);
  }

  std::atomic<Table*> table_{nullptr};
  std::atomic<std::size_t> size_{0};
  std::array<std::atomic<T*>, kSegments> segments_{};
  std::mutex mu_;                              // serialises inserts
  std::vector<std::unique_ptr<Table>> tables_;  // current table last
};

}  // namespace dawn
