#include "dawn/semantics/batched_trials.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <utility>

#include "dawn/automata/neighbourhood.hpp"
#include "dawn/obs/telemetry.hpp"
#include "dawn/util/check.hpp"
#include "dawn/util/simd.hpp"

#if DAWN_SIMD_COMPILED
#include <immintrin.h>
#endif

namespace dawn {

namespace {

// Caps that keep the δ memo table honest: states fit a uint8 SoA cell, the
// per-state capped count fits a base-(β+1) digit, and the table itself stays
// a few megabytes at worst.
constexpr int kMaxStates = 32;
constexpr int kMaxBeta = 8;
constexpr std::uint64_t kMaxSigs = std::uint64_t{1} << 20;
constexpr std::uint64_t kMaxTableEntries = std::uint64_t{1} << 22;

// "No deadline": a lane with Neutral consensus can never retire.
constexpr std::uint64_t kNever = ~std::uint64_t{0};

// Lanes are padded to a 32-byte multiple so the AVX2 kernels never need a
// tail loop; padding lanes carry real (retired-like) state and are ignored.
std::size_t lane_stride(std::size_t lanes) { return (lanes + 31) & ~std::size_t{31}; }

// The capped-count signature of a neighbourhood is its base-(β+1) digit
// string: sig = Σ_q min(count_q, β) · (β+1)^q. Two neighbourhoods with equal
// signatures are equal as capped-count functions, so δ is a pure function of
// (state, sig) — Neighbourhood::from_counts rebuilds the sparse form exactly
// when a table entry faults in.
struct Workspace {
  // δ memo table (persists across a worker's blocks; the factory contract
  // guarantees behavioural identity across machine instances).
  int num_states = 0;
  int beta = 0;
  std::uint32_t num_sigs = 0;
  std::vector<std::uint32_t> pow;                 // pow[q] = (β+1)^q
  std::vector<State> table;                       // (s, sig) -> δ, -1 unset
  std::vector<std::int8_t> vtab;                  // s -> Verdict
  std::vector<std::pair<State, int>> decode;      // from_counts scratch

  // Block state (capacity reused across blocks).
  std::vector<std::uint8_t> soa;     // n * stride
  std::vector<std::uint8_t> next;    // FullSweep staging, n * stride
  std::vector<std::uint32_t> sigs;   // stride signatures for one node
  std::array<std::uint8_t, kMaxStates> cnt{};  // scalar per-state counts

  // Flat CSR copy of the graph's adjacency. Graph stores one heap vector per
  // node; the signature loop touches ~deg of them per lane-step, and chasing
  // scattered vector headers costs more than the neighbour loads themselves.
  std::vector<std::uint32_t> adj_off;  // n + 1 offsets
  std::vector<std::uint32_t> adj;      // neighbour ids, contiguous

  // Per-lane run bookkeeping (mirrors Run's members, one slot per lane).
  std::vector<std::int32_t> accept_cnt;
  std::vector<std::int32_t> reject_cnt;
  std::vector<Verdict> consensus;
  std::vector<std::uint64_t> since;        // step the consensus was set at
  std::vector<std::uint64_t> commits;
  std::vector<std::uint64_t> established;
  std::vector<std::uint64_t> lost;
  std::vector<std::uint64_t> deadline;     // since + window, kNever if Neutral
  std::vector<std::uint32_t> active;       // live lane ids, compacted
  std::vector<std::uint32_t> idx;          // per-active-lane selected node
};

void ensure_table(Workspace& ws, const Machine& machine) {
  if (!ws.table.empty()) {
    // Same worker, later block: the factory contract makes the cached table
    // valid for the fresh machine instance too.
    DAWN_CHECK(ws.num_states == machine.num_states().value_or(-1));
    DAWN_CHECK(ws.beta == machine.beta());
    return;
  }
  ws.num_states = machine.num_states().value();
  ws.beta = machine.beta();
  const auto base = static_cast<std::uint32_t>(ws.beta + 1);
  ws.pow.resize(static_cast<std::size_t>(ws.num_states));
  std::uint64_t sigs = 1;
  for (int q = 0; q < ws.num_states; ++q) {
    ws.pow[static_cast<std::size_t>(q)] = static_cast<std::uint32_t>(sigs);
    sigs *= base;
  }
  ws.num_sigs = static_cast<std::uint32_t>(sigs);  // disqualifier bounded it
  ws.table.assign(static_cast<std::size_t>(ws.num_states) * ws.num_sigs, -1);
  ws.vtab.resize(static_cast<std::size_t>(ws.num_states));
  for (State s = 0; s < ws.num_states; ++s) {
    ws.vtab[static_cast<std::size_t>(s)] =
        static_cast<std::int8_t>(machine.verdict(s));
  }
}

// Faults one δ entry in: decode the signature back into sorted (state,
// count) pairs, rebuild the sparse neighbourhood, step the machine once.
State table_fill(Workspace& ws, const Machine& machine, std::uint8_t s,
                 std::uint32_t sig) {
  ws.decode.clear();
  const auto base = static_cast<std::uint32_t>(ws.beta + 1);
  std::uint32_t rest = sig;
  for (State q = 0; q < ws.num_states && rest != 0; ++q) {
    const std::uint32_t c = rest % base;
    rest /= base;
    if (c != 0) ws.decode.emplace_back(q, static_cast<int>(c));
  }
  const Neighbourhood nbh = Neighbourhood::from_counts(ws.decode, ws.beta);
  const State next = machine.step(static_cast<State>(s), nbh);
  DAWN_CHECK_MSG(next >= 0 && next < ws.num_states,
                 "enumerable machine stepped outside [0, num_states)");
  ws.table[static_cast<std::size_t>(s) * ws.num_sigs + sig] = next;
  return next;
}

inline State table_lookup(Workspace& ws, const Machine& machine,
                          std::uint8_t s, std::uint32_t sig) {
  const State cached =
      ws.table[static_cast<std::size_t>(s) * ws.num_sigs + sig];
  return cached >= 0 ? cached : table_fill(ws, machine, s, sig);
}

void build_adjacency(Workspace& ws, const Graph& g) {
  const auto n = static_cast<std::size_t>(g.n());
  ws.adj_off.resize(n + 1);
  ws.adj.clear();
  ws.adj_off[0] = 0;
  for (std::size_t v = 0; v < n; ++v) {
    for (const NodeId u : g.neighbours(static_cast<NodeId>(v))) {
      ws.adj.push_back(static_cast<std::uint32_t>(u));
    }
    ws.adj_off[v + 1] = static_cast<std::uint32_t>(ws.adj.size());
  }
}

// One lane's signature at node v: O(deg) incremental capped accumulation.
// When deg(v) ≤ β no count can reach the cap, so the signature is a plain
// pow-sum — one pass, no count array. The general path's second pass
// re-zeroes cnt so the array stays all-zero between calls.
inline std::uint32_t lane_signature(Workspace& ws, std::size_t stride,
                                    NodeId v, std::uint32_t lane) {
  const std::uint32_t* adj = ws.adj.data();
  const std::uint32_t lo = ws.adj_off[static_cast<std::size_t>(v)];
  const std::uint32_t hi = ws.adj_off[static_cast<std::size_t>(v) + 1];
  const std::uint8_t* soa = ws.soa.data();
  const std::uint32_t* pow = ws.pow.data();
  std::uint32_t sig = 0;
  if (hi - lo <= static_cast<std::uint32_t>(ws.beta)) {
    for (std::uint32_t e = lo; e < hi; ++e) {
      sig += pow[soa[static_cast<std::size_t>(adj[e]) * stride + lane]];
    }
    return sig;
  }
  const auto beta = static_cast<std::uint8_t>(ws.beta);
  for (std::uint32_t e = lo; e < hi; ++e) {
    const std::uint8_t q =
        soa[static_cast<std::size_t>(adj[e]) * stride + lane];
    if (ws.cnt[q] < beta) {
      ++ws.cnt[q];
      sig += pow[q];
    }
  }
  for (std::uint32_t e = lo; e < hi; ++e) {
    ws.cnt[soa[static_cast<std::size_t>(adj[e]) * stride + lane]] = 0;
  }
  return sig;
}

#if DAWN_SIMD_COMPILED

// All-lane signatures at node v, 32 lanes per 256-bit sweep. Per state q:
// saturating uint8 neighbour counts (exact after min with β, since β ≤ 8 ≪
// 255), widened ×4 to uint32 and multiply-accumulated with pow[q].
__attribute__((target("avx2"))) void node_signatures_avx2(
    const Workspace& ws, std::size_t stride, NodeId v, std::uint32_t* sigs) {
  const std::uint32_t* adj = ws.adj.data();
  const std::uint32_t lo = ws.adj_off[static_cast<std::size_t>(v)];
  const std::uint32_t hi = ws.adj_off[static_cast<std::size_t>(v) + 1];
  const __m256i beta_v = _mm256_set1_epi8(static_cast<char>(ws.beta));
  const __m256i one = _mm256_set1_epi8(1);
  const std::uint8_t* soa = ws.soa.data();
  for (std::size_t c = 0; c < stride; c += 32) {
    __m256i sig0 = _mm256_setzero_si256();
    __m256i sig1 = _mm256_setzero_si256();
    __m256i sig2 = _mm256_setzero_si256();
    __m256i sig3 = _mm256_setzero_si256();
    for (int q = 0; q < ws.num_states; ++q) {
      const __m256i qv = _mm256_set1_epi8(static_cast<char>(q));
      __m256i cnt = _mm256_setzero_si256();
      for (std::uint32_t e = lo; e < hi; ++e) {
        const __m256i row = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            soa + static_cast<std::size_t>(adj[e]) * stride + c));
        cnt = _mm256_adds_epu8(
            cnt, _mm256_and_si256(_mm256_cmpeq_epi8(row, qv), one));
      }
      cnt = _mm256_min_epu8(cnt, beta_v);
      const __m256i pw =
          _mm256_set1_epi32(static_cast<int>(ws.pow[static_cast<std::size_t>(q)]));
      const __m128i lo = _mm256_castsi256_si128(cnt);
      const __m128i hi = _mm256_extracti128_si256(cnt, 1);
      sig0 = _mm256_add_epi32(
          sig0, _mm256_mullo_epi32(_mm256_cvtepu8_epi32(lo), pw));
      sig1 = _mm256_add_epi32(
          sig1,
          _mm256_mullo_epi32(_mm256_cvtepu8_epi32(_mm_srli_si128(lo, 8)), pw));
      sig2 = _mm256_add_epi32(
          sig2, _mm256_mullo_epi32(_mm256_cvtepu8_epi32(hi), pw));
      sig3 = _mm256_add_epi32(
          sig3,
          _mm256_mullo_epi32(_mm256_cvtepu8_epi32(_mm_srli_si128(hi, 8)), pw));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sigs + c), sig0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sigs + c + 8), sig1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sigs + c + 16), sig2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sigs + c + 24), sig3);
  }
}

#endif  // DAWN_SIMD_COMPILED

// All-active-lane signatures at node v into ws.sigs (AVX2: every lane in the
// stride; scalar: active lanes only — retired/padding lanes are never read).
void node_signatures(Workspace& ws, std::size_t stride, NodeId v,
                     bool use_avx2) {
#if DAWN_SIMD_COMPILED
  if (use_avx2) {
    node_signatures_avx2(ws, stride, v, ws.sigs.data());
    return;
  }
#else
  (void)use_avx2;
#endif
  for (const std::uint32_t l : ws.active) {
    ws.sigs[l] = lane_signature(ws, stride, v, l);
  }
}

// Replicates Run::commit for one lane: state write, commit count, verdict
// partition counters.
inline void commit_lane(Workspace& ws, std::uint32_t lane, std::uint8_t* cell,
                        std::uint8_t next) {
  const std::int8_t was = ws.vtab[*cell];
  const std::int8_t now = ws.vtab[next];
  *cell = next;
  ++ws.commits[lane];
  if (was == now) return;
  constexpr auto kAccept = static_cast<std::int8_t>(Verdict::Accept);
  constexpr auto kReject = static_cast<std::int8_t>(Verdict::Reject);
  if (was == kAccept) --ws.accept_cnt[lane];
  if (was == kReject) --ws.reject_cnt[lane];
  if (now == kAccept) ++ws.accept_cnt[lane];
  if (now == kReject) ++ws.reject_cnt[lane];
}

// Replicates Run::note_consensus_after_step for one lane. Valid only on the
// single-commit shapes (PerLaneNode, SharedNode), where a lane commits at
// most once per lockstep step: evaluating right after the commit is then the
// same as evaluating at end of step, and uncommitted lanes cannot have
// changed consensus. Keeps the lane's retirement deadline and the loop's
// next-scan lower bound in sync — a deadline can silently *rise* (consensus
// lost), which only makes the next scan spuriously early, never late.
inline void note_consensus(Workspace& ws, std::uint32_t lane,
                           std::uint64_t steps_done, std::uint64_t window,
                           std::int32_t n, std::uint64_t& next_check) {
  const Verdict now = ws.accept_cnt[lane] == n   ? Verdict::Accept
                      : ws.reject_cnt[lane] == n ? Verdict::Reject
                                                 : Verdict::Neutral;
  if (now == ws.consensus[lane]) return;
  if (ws.consensus[lane] != Verdict::Neutral) ++ws.lost[lane];
  if (now != Verdict::Neutral) ++ws.established[lane];
  ws.consensus[lane] = now;
  ws.since[lane] = steps_done;
  std::uint64_t d = kNever;
  if (now != Verdict::Neutral) {
    d = steps_done + window;
    if (d < steps_done) d = kNever;  // saturate huge windows
  }
  ws.deadline[lane] = d;
  if (d < next_check) next_check = d;
}

// Replicates simulate()'s result assembly for one lane at retirement.
void finish_lane(Workspace& ws, std::uint32_t lane, bool converged,
                 std::uint64_t steps_done, std::uint64_t sel_size,
                 bool collect_metrics, TrialOutcome& out) {
  SimulateResult& r = out.result;
  r.converged = converged;
  r.verdict = ws.consensus[lane];
  const std::uint64_t held =
      r.verdict == Verdict::Neutral ? 0 : steps_done - ws.since[lane];
  r.convergence_step = steps_done - held;
  r.total_steps = steps_done;
  if (!collect_metrics) return;
  obs::RunMetrics& m = r.metrics;
  m.add(obs::Counter::SimRuns);
  m.add(obs::Counter::SimSteps, steps_done);
  m.add(obs::Counter::SimActivations, steps_done * sel_size);
  m.add(obs::Counter::SimCommits, ws.commits[lane]);
  if (converged) m.add(obs::Counter::SimConverged);
  m.add(obs::Counter::ConsensusEstablished, ws.established[lane]);
  m.add(obs::Counter::ConsensusLost, ws.lost[lane]);
  m.gauge_max(obs::Gauge::MaxSelectionSize, steps_done > 0 ? sel_size : 0);
}

// Steps one block of lanes in lockstep until every lane converged or
// max_steps ran out. `outs[l]` is lane l's outcome slot.
void run_block(Workspace& ws, const Machine& machine, const Graph& g,
               BatchScheduler& sched, const SimulateOptions& sim,
               std::span<TrialOutcome> outs) {
  [[maybe_unused]] const auto start = std::chrono::steady_clock::now();
  const auto n = static_cast<std::size_t>(g.n());
  const std::size_t lanes = outs.size();
  const std::size_t stride = lane_stride(lanes);
  const BatchScheduler::Shape shape = sched.shape();
  const std::uint64_t sel_size =
      shape == BatchScheduler::Shape::FullSweep ? n : 1;
  const bool use_avx2 = simd_tier() == SimdTier::Avx2;

  build_adjacency(ws, g);

  // Initial SoA configuration: every lane starts from δ0, so each row is a
  // constant fill (padding lanes included — they are read by the AVX2
  // kernels but their results are never consumed).
  ws.soa.resize(n * stride);
  ws.sigs.resize(stride);
  std::int32_t accept0 = 0;
  std::int32_t reject0 = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const State s0 = machine.init(g.label(static_cast<NodeId>(v)));
    std::memset(ws.soa.data() + v * stride, static_cast<int>(s0), stride);
    const std::int8_t verd = ws.vtab[static_cast<std::size_t>(s0)];
    if (verd == static_cast<std::int8_t>(Verdict::Accept)) ++accept0;
    if (verd == static_cast<std::int8_t>(Verdict::Reject)) ++reject0;
  }
  const auto ni = static_cast<std::int32_t>(n);
  const Verdict consensus0 = accept0 == ni   ? Verdict::Accept
                             : reject0 == ni ? Verdict::Reject
                                             : Verdict::Neutral;
  ws.accept_cnt.assign(lanes, accept0);
  ws.reject_cnt.assign(lanes, reject0);
  ws.consensus.assign(lanes, consensus0);
  ws.since.assign(lanes, 0);
  ws.commits.assign(lanes, 0);
  ws.established.assign(lanes, 0);
  ws.lost.assign(lanes, 0);
  const std::uint64_t window = sim.stable_window;
  const std::uint64_t deadline0 =
      consensus0 == Verdict::Neutral ? kNever : window;
  ws.deadline.assign(lanes, deadline0);
  ws.active.resize(lanes);
  std::iota(ws.active.begin(), ws.active.end(), 0u);
  ws.idx.resize(lanes);
  if (shape == BatchScheduler::Shape::FullSweep) {
    ws.next.resize(n * stride);
  }

  // Lower bound on the earliest step any lane can retire: the per-step
  // retirement scan on the single-commit shapes only runs when it could
  // matter. note_consensus keeps it a valid lower bound.
  std::uint64_t next_check = deadline0;
  std::uint64_t steps_done = 0;
  while (!ws.active.empty() && steps_done < sim.max_steps) {
    switch (shape) {
      case BatchScheduler::Shape::PerLaneNode: {
        sched.select_batch(g, steps_done, ws.active, ws.idx.data());
        ++steps_done;
        for (std::size_t k = 0; k < ws.active.size(); ++k) {
          const std::uint32_t l = ws.active[k];
          const auto v = static_cast<NodeId>(ws.idx[k]);
          std::uint8_t* cell =
              ws.soa.data() + static_cast<std::size_t>(v) * stride + l;
          const std::uint32_t sig = lane_signature(ws, stride, v, l);
          const State next = table_lookup(ws, machine, *cell, sig);
          if (next != *cell) {
            commit_lane(ws, l, cell, static_cast<std::uint8_t>(next));
            note_consensus(ws, l, steps_done, window, ni, next_check);
          }
        }
        break;
      }
      case BatchScheduler::Shape::SharedNode: {
        const NodeId v = sched.shared_node(g, steps_done);
        ++steps_done;
        node_signatures(ws, stride, v, use_avx2);
        std::uint8_t* row =
            ws.soa.data() + static_cast<std::size_t>(v) * stride;
        for (const std::uint32_t l : ws.active) {
          const State next = table_lookup(ws, machine, row[l], ws.sigs[l]);
          if (next != row[l]) {
            commit_lane(ws, l, row + l, static_cast<std::uint8_t>(next));
            note_consensus(ws, l, steps_done, window, ni, next_check);
          }
        }
        break;
      }
      case BatchScheduler::Shape::FullSweep: {
        ++steps_done;
        // Phase 1: evaluate every node against the pre-step SoA into the
        // staging buffer (simultaneous semantics, as Run::apply's phase 1).
        for (std::size_t v = 0; v < n; ++v) {
          node_signatures(ws, stride, static_cast<NodeId>(v), use_avx2);
          const std::uint8_t* row = ws.soa.data() + v * stride;
          std::uint8_t* stage = ws.next.data() + v * stride;
          for (const std::uint32_t l : ws.active) {
            stage[l] = static_cast<std::uint8_t>(
                table_lookup(ws, machine, row[l], ws.sigs[l]));
          }
        }
        // Phase 2: commit the diffs.
        for (std::size_t v = 0; v < n; ++v) {
          std::uint8_t* row = ws.soa.data() + v * stride;
          const std::uint8_t* stage = ws.next.data() + v * stride;
          for (const std::uint32_t l : ws.active) {
            if (stage[l] != row[l]) commit_lane(ws, l, row + l, stage[l]);
          }
        }
        break;
      }
    }
    if (shape == BatchScheduler::Shape::FullSweep) {
      // A lane commits many times per sweep, so consensus is evaluated once
      // at end of step (Run::note_consensus_after_step), eagerly per lane.
      std::size_t keep = 0;
      for (std::size_t k = 0; k < ws.active.size(); ++k) {
        const std::uint32_t l = ws.active[k];
        const Verdict now = ws.accept_cnt[l] == ni   ? Verdict::Accept
                            : ws.reject_cnt[l] == ni ? Verdict::Reject
                                                     : Verdict::Neutral;
        if (now != ws.consensus[l]) {
          if (ws.consensus[l] != Verdict::Neutral) ++ws.lost[l];
          if (now != Verdict::Neutral) ++ws.established[l];
          ws.consensus[l] = now;
          ws.since[l] = steps_done;
        }
        if (now != Verdict::Neutral &&
            steps_done - ws.since[l] >= window) {
          finish_lane(ws, l, /*converged=*/true, steps_done, sel_size,
                      sim.collect_metrics, outs[l]);
        } else {
          ws.active[keep++] = l;
        }
      }
      ws.active.resize(keep);
    } else if (steps_done >= next_check) {
      // Single-commit shapes: consensus was kept current inline, so the only
      // per-step question is "did a deadline pass?" — answered O(1) against
      // the lower bound, with the O(active) scan run only when it could fire.
      std::size_t keep = 0;
      std::uint64_t rest = kNever;
      for (std::size_t k = 0; k < ws.active.size(); ++k) {
        const std::uint32_t l = ws.active[k];
        if (steps_done >= ws.deadline[l]) {
          finish_lane(ws, l, /*converged=*/true, steps_done, sel_size,
                      sim.collect_metrics, outs[l]);
        } else {
          ws.active[keep++] = l;
          if (ws.deadline[l] < rest) rest = ws.deadline[l];
        }
      }
      ws.active.resize(keep);
      next_check = rest;
    }
  }
  for (const std::uint32_t l : ws.active) {
    finish_lane(ws, l, /*converged=*/false, steps_done, sel_size,
                sim.collect_metrics, outs[l]);
  }
  ws.active.clear();
#ifndef DAWN_OBS_DISABLED
  if (sim.collect_metrics) {
    // One SimulateTotal sample per lane, as the scalar path's Stopwatch
    // records one per run (and, like it, none when the obs layer is
    // compiled out). Lanes share the block, so each gets the block's wall
    // time — timers are outside the determinism contract (obs/metrics.hpp).
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    for (auto& out : outs) {
      out.result.metrics
          .timers[static_cast<std::size_t>(obs::Timer::SimulateTotal)]
          .record(ns);
    }
  }
#endif
}

}  // namespace

int batched_lane_width(const TrialOptions& opts) {
  return std::clamp(opts.batch_width, 8, 64);
}

std::string batched_trials_disqualifier(const MachineFactory& machine_factory,
                                        const Graph& g,
                                        const SchedulerFactory& scheduler_factory,
                                        const TrialOptions& opts) {
  DAWN_CHECK(machine_factory != nullptr);
  DAWN_CHECK(scheduler_factory != nullptr);
  if (g.n() < 1) return "empty graph";
  if (opts.sim.trace != nullptr) return "tracing requested";
  if (opts.sim.engine != StepEngine::Incremental) {
    return "full-copy reference engine requested";
  }
  const auto machine = machine_factory();
  if (!machine->parallel_step_safe()) {
    return "machine is not parallel-step-safe (stateful step)";
  }
  const std::optional<int> num_states = machine->num_states();
  if (!num_states.has_value()) return "machine is not enumerable";
  const int q = *num_states;
  if (q < 1 || q > kMaxStates) {
    return "num_states outside [1, " + std::to_string(kMaxStates) + "]";
  }
  const int beta = machine->beta();
  if (beta < 1 || beta > kMaxBeta) {
    return "beta outside [1, " + std::to_string(kMaxBeta) + "]";
  }
  std::uint64_t sigs = 1;
  for (int i = 0; i < q; ++i) {
    sigs *= static_cast<std::uint64_t>(beta + 1);
    if (sigs > kMaxSigs) return "signature space exceeds the memo-table cap";
  }
  if (static_cast<std::uint64_t>(q) * sigs > kMaxTableEntries) {
    return "delta table exceeds the memo-table cap";
  }
  for (NodeId v = 0; v < g.n(); ++v) {
    const State s0 = machine->init(g.label(v));
    if (s0 < 0 || s0 >= q) return "initial state outside [0, num_states)";
  }
  std::array<std::unique_ptr<Scheduler>, 1> probe = {
      scheduler_factory(trial_seed(opts.base_seed, 0))};
  if (make_batch_scheduler(probe) == nullptr) {
    return "scheduler has no lockstep form";
  }
  return "";
}

std::optional<std::vector<TrialOutcome>> try_run_trials_batched(
    const MachineFactory& machine_factory, const Graph& g,
    const SchedulerFactory& scheduler_factory, const TrialOptions& opts) {
  DAWN_CHECK(opts.num_trials >= 0);
  if (!batched_trials_disqualifier(machine_factory, g, scheduler_factory, opts)
           .empty()) {
    return std::nullopt;
  }
  const auto num_trials = static_cast<std::size_t>(opts.num_trials);
  std::vector<TrialOutcome> outcomes(num_trials);
  if (num_trials == 0) return outcomes;
  const auto width = static_cast<std::size_t>(batched_lane_width(opts));
  const std::size_t num_blocks = (num_trials + width - 1) / width;
  const int workers =
      resolve_parallel_threads(opts.num_threads, num_blocks);
  std::vector<Workspace> workspaces(static_cast<std::size_t>(workers));
  const obs::Telemetry tel = obs::telemetry();
  parallel_for(
      num_blocks, opts.num_threads,
      std::function<void(int, std::size_t)>([&, tel](int worker,
                                                     std::size_t b) {
        const obs::TelemetryScope telemetry_scope(tel);
        Workspace& ws = workspaces[static_cast<std::size_t>(worker)];
        const std::size_t lo = b * width;
        const std::size_t hi = std::min(lo + width, num_trials);
        obs::SpanScope block_span(tel.spans, obs::Phase::TrialsBlock,
                                  hi - lo);
        const auto machine = machine_factory();
        ensure_table(ws, *machine);
        std::vector<std::unique_ptr<Scheduler>> lane_scheds;
        lane_scheds.reserve(hi - lo);
        for (std::size_t t = lo; t < hi; ++t) {
          outcomes[t].trial = static_cast<int>(t);
          outcomes[t].seed = trial_seed(opts.base_seed, outcomes[t].trial);
          lane_scheds.push_back(scheduler_factory(outcomes[t].seed));
        }
        const auto batch = make_batch_scheduler(lane_scheds);
        DAWN_CHECK_MSG(batch != nullptr,
                       "scheduler family qualified in the probe but a lane "
                       "refused batching (non-deterministic factory?)");
        run_block(ws, *machine, g, *batch, opts.sim,
                  std::span<TrialOutcome>(outcomes).subspan(lo, hi - lo));
      }));
  // Workspace accounting, after the joins (the ledger is not thread-safe):
  // peak SoA/staging/memo footprint of one worker's block. Every workspace
  // sizes its buffers from (machine, graph, options) only, so the per-
  // workspace maximum is thread-count-invariant.
  if (tel.ledger != nullptr) {
    std::size_t peak = 0;
    for (const Workspace& ws : workspaces) {
      const std::size_t ws_bytes =
          ws.table.capacity() * sizeof(State) + ws.soa.capacity() +
          ws.next.capacity() + ws.sigs.capacity() * sizeof(std::uint32_t) +
          (ws.adj_off.capacity() + ws.adj.capacity()) * sizeof(std::uint32_t);
      peak = std::max(peak, ws_bytes);
    }
    tel.ledger->set_max(obs::MemoryAccount::TrialBlockBytes, peak);
  }
  return outcomes;
}

}  // namespace dawn
