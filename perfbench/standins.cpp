// Stand-in probes for the layers a workload does not exercise, and the
// self-test entry point.
#include <cstdio>
#include <initializer_list>

#include "workloads.hpp"

namespace perfbench {

void fill_missing(Metrics& into, const Metrics& extra) {
  for (const auto& [name, metric] : extra) into.emplace(name, metric);
}

void fill_with_standins(std::uint64_t seed, Metrics& have, RunResult& result,
                        SpanLog* spans, int parent) {
  const auto missing = [&have](std::initializer_list<const char*> names) {
    for (const char* name : names) {
      if (have.count(name) == 0) return true;
    }
    return false;
  };
  if (missing({"automata.neighbourhood_ns", "automata.step_ns",
               "automata.successors_per_config", "extensions.step_ns",
               "extensions.interned_states", "semantics.intern_ns",
               "semantics.counted_successor_ns", "semantics.scc_ns_per_config",
               "semantics.thread_speedup", "semantics.unattributed_frac"})) {
    const SpanScope span(spans, "stand-in explore", parent);
    fill_missing(have, probe_explore(explore_standins(seed), result, spans,
                                     span.id()));
  }
  if (missing({"semantics.batched_lane_step_ns", "semantics.scalar_step_ns",
               "semantics.batched_trial_frac", "sched.select_ns",
               "util.rng_draw_ns"})) {
    const SpanScope span(spans, "stand-in trials", parent);
    fill_missing(have, probe_trials_standin(seed, result, spans, span.id()));
  }
  if (missing({"net.frame_ns", "net.request_decode_us", "net.cache_us",
               "net.reply_encode_us", "net.decide_us_p50", "net.decide_us_p90",
               "net.unattributed_us", "net.cache_hit_frac", "net.bytes_per_req"})) {
    const SpanScope span(spans, "stand-in dawnd", parent);
    fill_missing(have, probe_net_standin(seed, result, spans, span.id()));
  }
}

int run_selftest() {
  const int bad = selftest_explore() + selftest_trials() + selftest_service();
  std::printf("perfbench selftest: %s\n", bad == 0 ? "all checks behave" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench
