#include "dawn/obs/metrics.hpp"

#include "dawn/obs/json.hpp"

namespace dawn::obs {

const char* name(Counter c) {
  switch (c) {
    case Counter::SimRuns: return "sim.runs";
    case Counter::SimSteps: return "sim.steps";
    case Counter::SimActivations: return "sim.activations";
    case Counter::SimCommits: return "engine.commits";
    case Counter::SimConverged: return "sim.converged";
    case Counter::ConsensusEstablished: return "consensus.established";
    case Counter::ConsensusLost: return "consensus.lost";
    case Counter::SchedGreedyWasted: return "sched.greedy.wasted";
    case Counter::SchedGreedyForcedSweeps: return "sched.greedy.forced_sweeps";
    case Counter::SchedPermutationShuffles: return "sched.permutation.shuffles";
    case Counter::InternerInserts: return "interner.inserts";
    case Counter::OverlaySteps: return "overlay.neighbourhood_steps";
    case Counter::OverlayBroadcasts: return "overlay.broadcasts";
    case Counter::AbsenceSuperSteps: return "absence.super_steps";
    case Counter::AbsenceHangs: return "absence.hangs";
    case Counter::PopulationSteps: return "population.steps";
    case Counter::TraceEventsDropped: return "trace.events_dropped";
    case Counter::ExploreConfigs: return "explore.configs";
    case Counter::ExploreEdges: return "explore.edges";
    case Counter::ExploreLevels: return "explore.levels";
    case Counter::ExploreSteals: return "explore.steals";
    case Counter::ExploreSpillEvents: return "explore.spill.events";
    case Counter::ExploreSpillBytes: return "explore.spill.bytes";
    case Counter::NetConnections: return "net.connections";
    case Counter::NetRequests: return "net.requests";
    case Counter::NetErrors: return "net.errors";
    case Counter::NetCacheHits: return "net.cache_hits";
    case Counter::kCount: break;
  }
  return "counter.unknown";
}

const char* name(Gauge g) {
  switch (g) {
    case Gauge::MaxSelectionSize: return "sim.max_selection_size";
    case Gauge::CensusDistinctStates: return "census.distinct_states";
    case Gauge::CensusDistinctConfigs: return "census.distinct_configs";
    case Gauge::InternerPeakStates: return "interner.peak_states";
    case Gauge::ExploreShardPeak: return "explore.shard_peak";
    case Gauge::ExploreFrontierPeak: return "explore.frontier_peak";
    case Gauge::ExploreThreads: return "explore.threads";
    case Gauge::ExploreStoreBytes: return "explore.store_bytes";
    case Gauge::ExploreResidentBytes: return "explore.resident_bytes";
    case Gauge::NetInflightPeak: return "net.inflight_peak";
    case Gauge::kCount: break;
  }
  return "gauge.unknown";
}

const char* name(Timer t) {
  switch (t) {
    case Timer::SimulateTotal: return "time.simulate";
    case Timer::AbsenceSuperStep: return "time.absence_super_step";
    case Timer::OverlayBroadcast: return "time.overlay_broadcast";
    case Timer::kCount: break;
  }
  return "timer.unknown";
}

void RunMetrics::merge(const RunMetrics& other) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    counters[i] += other.counters[i];
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    if (other.gauges[i] > gauges[i]) gauges[i] = other.gauges[i];
  }
  for (std::size_t i = 0; i < kNumTimers; ++i) {
    timers[i].count += other.timers[i].count;
    timers[i].total_ns += other.timers[i].total_ns;
    if (other.timers[i].max_ns > timers[i].max_ns) {
      timers[i].max_ns = other.timers[i].max_ns;
    }
  }
}

bool RunMetrics::empty() const {
  for (const auto c : counters) {
    if (c != 0) return false;
  }
  for (const auto g : gauges) {
    if (g != 0) return false;
  }
  for (const auto& t : timers) {
    if (t.count != 0) return false;
  }
  return true;
}

JsonValue RunMetrics::to_json(bool include_timers) const {
  JsonValue out = JsonValue::object();
  JsonValue cs = JsonValue::object();
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (counters[i] != 0) {
      cs.set(name(static_cast<Counter>(i)), counters[i]);
    }
  }
  out.set("counters", std::move(cs));
  JsonValue gs = JsonValue::object();
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    if (gauges[i] != 0) {
      gs.set(name(static_cast<Gauge>(i)), gauges[i]);
    }
  }
  out.set("gauges", std::move(gs));
  if (include_timers) {
    JsonValue ts = JsonValue::object();
    for (std::size_t i = 0; i < kNumTimers; ++i) {
      const TimerStat& t = timers[i];
      if (t.count == 0) continue;
      JsonValue entry = JsonValue::object();
      entry.set("count", t.count);
      entry.set("total_ns", t.total_ns);
      entry.set("max_ns", t.max_ns);
      ts.set(name(static_cast<Timer>(i)), std::move(entry));
    }
    out.set("timers", std::move(ts));
  }
  return out;
}

}  // namespace dawn::obs
