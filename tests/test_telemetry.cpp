// The telemetry subsystem's contract: span recording and deterministic
// merge order, Chrome-trace export invariants (matched B/E, monotonic ts),
// heartbeats that never perturb decisions at any thread count, the memory
// ledger's thread-count-invariance, shard chi-square balance, and
// TrialSummary parity between the scalar and SoA batched trial engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "dawn/graph/generators.hpp"
#include "dawn/obs/json.hpp"
#include "dawn/obs/memory_ledger.hpp"
#include "dawn/obs/progress.hpp"
#include "dawn/obs/span_log.hpp"
#include "dawn/obs/telemetry.hpp"
#include "dawn/protocols/exists_label.hpp"
#include "dawn/protocols/pp_majority.hpp"
#include "dawn/sched/scheduler.hpp"
#include "dawn/semantics/clique_counted.hpp"
#include "dawn/semantics/decision.hpp"
#include "dawn/semantics/explicit_space.hpp"
#include "dawn/semantics/parallel_explore.hpp"
#include "dawn/semantics/simulate.hpp"
#include "dawn/semantics/trials.hpp"

namespace dawn {
namespace {

// The "flood retreats" bug (test_decide.cpp): a thread-safe FunctionMachine
// whose runs never stabilise, so explorations reach a rich configuration
// graph with nontrivial SCC structure — good span and ledger coverage.
std::shared_ptr<Machine> buggy_flooding() {
  FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 2;
  spec.num_states = 2;
  spec.init = [](Label l) { return static_cast<State>(l); };
  spec.step = [](State s, const Neighbourhood& n) {
    if (s == 0 && n.count(1) > 0) return State{1};
    if (s == 1 && n.count(0) > 0) return State{0};
    return s;
  };
  spec.verdict = [](State s) {
    return s == 1 ? Verdict::Accept : Verdict::Reject;
  };
  return std::make_shared<FunctionMachine>(spec);
}

// The batched-trials gossip shape (test_batched_trials.cpp): qualifies for
// the SoA lockstep engine and converges at genuinely different steps.
MachineFactory gossip_factory() {
  return [] {
    FunctionMachine::Spec spec;
    spec.beta = 3;
    spec.num_labels = 2;
    spec.num_states = 4;
    spec.init = [](Label l) { return static_cast<State>(l); };
    spec.step = [](State s, const Neighbourhood& n) {
      const int ones = n.sum([](State q) { return q % 2 == 1; });
      if (ones > n.beta() / 2 && s % 2 == 0) return static_cast<State>(s + 1);
      if (ones == 0 && s % 2 == 1) return static_cast<State>(s - 1);
      return s;
    };
    spec.verdict = [](State s) {
      return s % 2 == 1 ? Verdict::Accept : Verdict::Reject;
    };
    return std::make_shared<FunctionMachine>(spec);
  };
}

// Mirrors tools/dawn_trace_check: every event is B/E/M with a name and
// numeric pid/tid/ts, B/E pairs match like a bracket language per (pid,tid),
// and ts is monotonically non-decreasing per (pid,tid).
void expect_valid_chrome_trace(const obs::JsonValue& doc) {
  ASSERT_EQ(doc.kind(), obs::JsonValue::Kind::Object);
  const obs::JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind(), obs::JsonValue::Kind::Array);

  std::map<std::pair<std::int64_t, std::int64_t>, std::vector<std::string>>
      open;
  std::map<std::pair<std::int64_t, std::int64_t>, double> last_ts;
  for (std::size_t i = 0; i < events->size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    const obs::JsonValue& e = events->at(i);
    ASSERT_EQ(e.kind(), obs::JsonValue::Kind::Object);
    const obs::JsonValue* ph = e.get("ph");
    const obs::JsonValue* name = e.get("name");
    const obs::JsonValue* pid = e.get("pid");
    const obs::JsonValue* tid = e.get("tid");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(name, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    const std::string& kind = ph->as_string();
    if (kind == "M") {
      EXPECT_TRUE(name->as_string() == "process_name" ||
                  name->as_string() == "thread_name");
      continue;
    }
    ASSERT_TRUE(kind == "B" || kind == "E") << kind;
    const obs::JsonValue* ts = e.get("ts");
    ASSERT_NE(ts, nullptr);
    const auto key = std::make_pair(pid->as_int(), tid->as_int());
    const double t = ts->as_double();
    const auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(t, it->second) << "ts went backwards on tid " << key.second;
    }
    last_ts[key] = t;
    auto& stack = open[key];
    if (kind == "B") {
      stack.push_back(name->as_string());
    } else {
      ASSERT_FALSE(stack.empty()) << "E without open B: " << name->as_string();
      EXPECT_EQ(stack.back(), name->as_string());
      stack.pop_back();
    }
  }
  for (const auto& [key, stack] : open) {
    EXPECT_TRUE(stack.empty())
        << stack.size() << " unclosed B on tid " << key.second;
  }
}

TEST(ShardChiSquare, UniformIsZeroAndConcentratedExplodes) {
  std::vector<std::size_t> uniform(64, 10);
  EXPECT_DOUBLE_EQ(shard_chi_square(uniform.data(), uniform.size()), 0.0);

  std::vector<std::size_t> concentrated(64, 0);
  concentrated[0] = 640;
  EXPECT_GT(shard_chi_square(concentrated.data(), concentrated.size()),
            10'000.0);

  EXPECT_DOUBLE_EQ(shard_chi_square(nullptr, 0), 0.0);
  std::vector<std::size_t> empty(64, 0);
  EXPECT_DOUBLE_EQ(shard_chi_square(empty.data(), empty.size()), 0.0);
}

TEST(ShardChiSquare, BalancedShardsOnExplicitGrid) {
  // Regression pin for the PR-5 hash_mix fix: thousands of reachable grid
  // configurations must spread evenly over the 64 store shards. A
  // concentration regression shows up as a jump of orders of magnitude
  // (E[chi2] = 63 for a well-mixed hash; 150 is far beyond noise).
  const auto m = buggy_flooding();
  const Graph g =
      make_grid(3, 4, {0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0});
  ExploreStats stats;
  const auto r = decide_pseudo_stochastic_parallel(
      *m, g, {.max_configs = 2'000'000, .max_threads = 4}, &stats);
  ASSERT_NE(r.decision, Decision::Unknown);
  ASSERT_GT(stats.configs, 1'000u);
  EXPECT_GT(stats.shard_chi2, 0.0);
  EXPECT_LT(stats.shard_chi2, 150.0);

  // Thread-count-invariant: final occupancies are a property of the
  // reachable set and the hash, not of scheduling.
  ExploreStats seq_stats;
  const auto seq = decide_pseudo_stochastic_parallel(
      *m, g, {.max_configs = 2'000'000, .max_threads = 1}, &seq_stats);
  ASSERT_EQ(seq.decision, r.decision);
  EXPECT_DOUBLE_EQ(seq_stats.shard_chi2, stats.shard_chi2);
}

TEST(ShardChiSquare, BalancedShardsOnCountedClique) {
  // Counted configurations hash differently from explicit ones; pin the
  // balance on the clique backend too. C(n+3, 3)-ish configs for majority.
  const auto m = make_majority_daf(0, 1, 2);
  ExploreStats stats;
  const auto r = decide_clique_pseudo_stochastic_parallel(
      *m, LabelCount{20, 21}, {.max_configs = 2'000'000, .max_threads = 4},
      &stats);
  ASSERT_NE(r.decision, Decision::Unknown);
  ASSERT_GT(stats.configs, 1'000u);
  EXPECT_GT(stats.shard_chi2, 0.0);
  EXPECT_LT(stats.shard_chi2, 150.0);
}

#ifndef DAWN_OBS_DISABLED

TEST(SpanLog, RecordsNestedSpansInPostOrder) {
  obs::SpanLog log;
  {
    obs::SpanScope outer(&log, obs::Phase::DecideTotal, 1);
    {
      obs::SpanScope inner(&log, obs::Phase::ExploreExpand, 2);
    }
  }
  // A span is appended when it *ends*, so the per-thread buffer is a
  // post-order traversal: inner before outer.
  const auto threads = log.per_thread();
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].size(), 2u);
  EXPECT_EQ(threads[0][0].phase, obs::Phase::ExploreExpand);
  EXPECT_EQ(threads[0][0].items, 2u);
  EXPECT_EQ(threads[0][1].phase, obs::Phase::DecideTotal);
  EXPECT_EQ(threads[0][1].items, 1u);
  // Nesting: the outer interval contains the inner one.
  EXPECT_LE(threads[0][1].begin_ns, threads[0][0].begin_ns);
  EXPECT_GE(threads[0][1].end_ns, threads[0][0].end_ns);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.num_threads(), 1u);
}

TEST(SpanLog, NullLogAndAddItemsAreInert) {
  obs::SpanScope span(nullptr, obs::Phase::SimulateRun);
  span.add_items(7);  // must not crash; nothing to record into
  obs::SpanLog log;
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.num_threads(), 0u);
}

TEST(SpanLog, BoundedBufferCountsDropsInsteadOfGrowing) {
  obs::SpanLog log(4);
  for (int i = 0; i < 6; ++i) {
    obs::SpanScope span(&log, obs::Phase::SimulateRun,
                        static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 2u);
  // The survivors are the first four (capacity checked at construction).
  const auto merged = log.merged();
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].items, i);
  }
}

TEST(SpanLog, MergedOrderIsDeterministicAcrossThreads) {
  obs::SpanLog log;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < 8; ++i) {
        obs::SpanScope span(&log, obs::Phase::TrialsBlock,
                            static_cast<std::uint64_t>(t * 8 + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(log.num_threads(), 4u);
  EXPECT_EQ(log.size(), 32u);

  const auto merged = log.merged();
  ASSERT_EQ(merged.size(), 32u);
  // The documented merge key: (begin_ns, end_ns, tid, phase, items).
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const auto& a = merged[i - 1];
    const auto& b = merged[i];
    const auto key = [](const obs::SpanRecord& r) {
      return std::make_tuple(r.begin_ns, r.end_ns, r.tid,
                             static_cast<int>(r.phase), r.items);
    };
    EXPECT_LE(key(a), key(b)) << "merge order violated at " << i;
  }
  EXPECT_EQ(merged, log.merged());  // stable under repetition
}

TEST(SpanLog, PhaseNamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
    const char* n = obs::name(static_cast<obs::Phase>(p));
    ASSERT_NE(n, nullptr);
    EXPECT_FALSE(std::string(n).empty());
    names.insert(n);
  }
  EXPECT_EQ(names.size(), obs::kNumPhases);
  // The exploration phases the engines and docs/OBSERVABILITY.md name.
  for (const char* n : {"explore.expand", "explore.intern", "explore.merge",
                        "explore.scc", "explore.spill"}) {
    EXPECT_TRUE(names.count(n)) << n;
  }
}

TEST(ChromeTrace, TightNestedSpansSurviveTimestampTies) {
  // Coarse clocks produce tied timestamps on tight spans; the exporter must
  // still emit a stack-valid B/E sequence (rebuilt from post-order nesting).
  obs::SpanLog log;
  for (int i = 0; i < 200; ++i) {
    obs::SpanScope outer(&log, obs::Phase::ExploreExpand);
    obs::SpanScope mid(&log, obs::Phase::Canonicalize);
    obs::SpanScope inner(&log, obs::Phase::SimulateRun);
  }
  const obs::JsonValue doc = obs::chrome_trace_json(log);
  expect_valid_chrome_trace(doc);
}

TEST(ChromeTrace, MultiThreadedLogExportsOneThreadLanePerSink) {
  obs::SpanLog log;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < 5; ++i) {
        obs::SpanScope outer(&log, obs::Phase::TrialsBlock);
        obs::SpanScope inner(&log, obs::Phase::SimulateRun);
      }
    });
  }
  for (auto& th : threads) th.join();
  const obs::JsonValue doc = obs::chrome_trace_json(log);
  expect_valid_chrome_trace(doc);
  // One thread_name metadata event per registered sink.
  const obs::JsonValue* events = doc.get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t thread_names = 0, durations = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const obs::JsonValue& e = events->at(i);
    const std::string& ph = e.get("ph")->as_string();
    if (ph == "M" && e.get("name")->as_string() == "thread_name") {
      ++thread_names;
    }
    if (ph == "B") ++durations;
  }
  EXPECT_EQ(thread_names, 3u);
  EXPECT_EQ(durations, 30u);
}

TEST(ChromeTrace, DumpWritesAParseableFileAndReportsIoFailure) {
  obs::SpanLog log;
  {
    obs::SpanScope span(&log, obs::Phase::DecideTotal);
  }
  const std::string path = testing::TempDir() + "dawn_trace_test.json";
  std::string error;
  ASSERT_TRUE(obs::dump_chrome_trace(log, path, &error)) << error;

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buf;
  buf << in.rdbuf();
  const auto parsed = obs::JsonValue::parse(buf.str());
  ASSERT_TRUE(parsed.has_value());
  expect_valid_chrome_trace(*parsed);

  error.clear();
  EXPECT_FALSE(obs::dump_chrome_trace(
      log, testing::TempDir() + "no_such_dir_zzz/trace.json", &error));
  EXPECT_FALSE(error.empty());
}

TEST(ChromeTrace, FullDecideTraceIsValidAndCoversTheEnginePhases) {
  const auto m = buggy_flooding();
  const Graph g = make_cycle({0, 1, 0, 0, 1, 0, 0, 1});
  obs::SpanLog log;
  obs::Telemetry tel;
  tel.spans = &log;
  {
    const obs::TelemetryScope scope(tel);
    DecisionRequest req;
    req.budget = {.max_configs = 500'000, .max_threads = 8};
    req.method = DecideMethod::Explicit;
    const DecisionReport r = decide(*m, g, req);
    ASSERT_EQ(r.decision, Decision::Inconsistent);
  }
  EXPECT_EQ(log.dropped(), 0u);
  std::size_t decide_spans = 0;
  std::set<obs::Phase> phases;
  for (const auto& rec : log.merged()) {
    phases.insert(rec.phase);
    if (rec.phase == obs::Phase::DecideTotal) ++decide_spans;
  }
  EXPECT_EQ(decide_spans, 1u);
  EXPECT_TRUE(phases.count(obs::Phase::ExploreExpand));
  EXPECT_TRUE(phases.count(obs::Phase::ExploreIntern));
  EXPECT_TRUE(phases.count(obs::Phase::ExploreMerge));
  EXPECT_TRUE(phases.count(obs::Phase::ExploreScc));
  // One owner-phase span per level, nested in that level's expand span on
  // the same thread.
  const auto merged = log.merged();
  std::size_t expand_spans = 0;
  std::size_t intern_spans = 0;
  for (const auto& rec : merged) {
    if (rec.phase == obs::Phase::ExploreExpand) ++expand_spans;
    if (rec.phase != obs::Phase::ExploreIntern) continue;
    ++intern_spans;
    EXPECT_TRUE(std::any_of(merged.begin(), merged.end(), [&](const auto& e) {
      return e.phase == obs::Phase::ExploreExpand && e.tid == rec.tid &&
             e.begin_ns <= rec.begin_ns && rec.end_ns <= e.end_ns;
    }));
  }
  EXPECT_EQ(intern_spans, expand_spans);
  expect_valid_chrome_trace(obs::chrome_trace_json(log));
}

// The in-memory SCC pass runs once per completed decide, at any worker
// count, inside an explore.scc span whose items are the configurations it
// classified; capped runs never reach it.
TEST(ChromeTrace, OneSccSpanPerCompletedDecideCarriesTheConfigCount) {
  const auto m = buggy_flooding();
  const Graph g = make_cycle({0, 1, 0, 0, 1, 0, 0, 1});
  for (const int threads : {1, 2, 8}) {
    for (const std::size_t cap : {std::size_t{500'000}, std::size_t{50}}) {
      obs::SpanLog log;
      obs::Telemetry tel;
      tel.spans = &log;
      DecisionReport r;
      {
        const obs::TelemetryScope scope(tel);
        DecisionRequest req;
        req.budget = {.max_configs = cap, .max_threads = threads};
        req.method = DecideMethod::Explicit;
        r = decide(*m, g, req);
      }
      std::vector<std::uint64_t> scc_items;
      for (const auto& rec : log.merged()) {
        if (rec.phase == obs::Phase::ExploreScc) scc_items.push_back(rec.items);
      }
      ASSERT_EQ(r.decision == Decision::Unknown, cap == 50);
      if (cap == 50) {
        EXPECT_TRUE(scc_items.empty()) << threads << " threads, capped";
      } else {
        ASSERT_EQ(scc_items.size(), 1u) << threads << " threads";
        EXPECT_EQ(scc_items[0], r.configs_explored) << threads << " threads";
      }
    }
  }
}

TEST(Telemetry, ScopeInstallsTheBundleAndRestoresThePreviousOne) {
  EXPECT_EQ(obs::spans(), nullptr);
  EXPECT_EQ(obs::progress(), nullptr);
  EXPECT_EQ(obs::ledger(), nullptr);
  EXPECT_FALSE(obs::telemetry().any());

  obs::SpanLog log;
  obs::ExploreProgress prog;
  obs::MemoryLedger ledger;
  {
    obs::Telemetry outer;
    outer.spans = &log;
    const obs::TelemetryScope outer_scope(outer);
    EXPECT_EQ(obs::spans(), &log);
    EXPECT_EQ(obs::progress(), nullptr);
    {
      obs::Telemetry inner;
      inner.progress = &prog;
      inner.ledger = &ledger;
      const obs::TelemetryScope inner_scope(inner);
      EXPECT_EQ(obs::spans(), nullptr);  // inner bundle replaces, not merges
      EXPECT_EQ(obs::progress(), &prog);
      EXPECT_EQ(obs::ledger(), &ledger);
    }
    EXPECT_EQ(obs::spans(), &log);
    EXPECT_EQ(obs::progress(), nullptr);
  }
  EXPECT_FALSE(obs::telemetry().any());
}

TEST(Telemetry, SimulateFiresOneSpanPerRun) {
  const auto m = buggy_flooding();
  const Graph g = make_line({1, 0, 0, 1});
  obs::SpanLog log;
  obs::Telemetry tel;
  tel.spans = &log;
  const obs::TelemetryScope scope(tel);
  RandomExclusiveScheduler sched(3);
  SimulateOptions opts;
  opts.max_steps = 500;
  opts.stable_window = 50;
  for (int i = 0; i < 3; ++i) (void)simulate(*m, g, sched, opts);
  const auto merged = log.merged();
  ASSERT_EQ(merged.size(), 3u);
  for (const auto& rec : merged) {
    EXPECT_EQ(rec.phase, obs::Phase::SimulateRun);
  }
}

TEST(ProgressReporter, StopAlwaysTakesAFinalSnapshot) {
  obs::ExploreProgress prog;
  prog.configs.store(42, std::memory_order_relaxed);
  obs::ProgressReporter::Options opts;
  opts.interval_ms = 60'000;  // far beyond the test's lifetime
  obs::ProgressReporter reporter(prog, opts);
  reporter.start();
  EXPECT_TRUE(reporter.running());
  reporter.stop();
  EXPECT_FALSE(reporter.running());
  ASSERT_GE(reporter.records().size(), 1u);
  const obs::JsonValue& rec = reporter.records().back();
  EXPECT_EQ(rec.get("type")->as_string(), "heartbeat");
  EXPECT_EQ(rec.get("configs")->as_int(), 42);
  EXPECT_EQ(rec.get("deadline_ms_remaining")->as_int(), -1);
}

TEST(ProgressReporter, StreamsWellFormedJsonlHeartbeats) {
  const std::string path = testing::TempDir() + "dawn_heartbeats_test.jsonl";
  obs::ExploreProgress prog;
  obs::ProgressReporter::Options opts;
  opts.interval_ms = 2;
  opts.jsonl_path = path;
  obs::ProgressReporter reporter(prog, opts);
  reporter.start();
  for (int i = 1; i <= 20; ++i) {
    prog.configs.store(static_cast<std::uint64_t>(i * 10),
                       std::memory_order_relaxed);
    prog.level.store(static_cast<std::uint64_t>(i),
                     std::memory_order_relaxed);
    prog.shard_sizes[static_cast<std::size_t>(i) % 64].fetch_add(
        1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reporter.stop();
  EXPECT_FALSE(reporter.write_failed());
  ASSERT_GE(reporter.records().size(), 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  std::int64_t last_seq = -1;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto rec = obs::JsonValue::parse(line);
    ASSERT_TRUE(rec.has_value()) << "line " << lines << ": " << line;
    EXPECT_EQ(rec->get("type")->as_string(), "heartbeat");
    const std::int64_t seq = rec->get("seq")->as_int();
    EXPECT_GT(seq, last_seq);  // strictly increasing
    last_seq = seq;
    const obs::JsonValue* shards = rec->get("shards");
    ASSERT_NE(shards, nullptr);
    EXPECT_EQ(shards->size(), obs::ExploreProgress::kNumShards);
    ++lines;
  }
  EXPECT_EQ(lines, reporter.records().size());
  // The final snapshot reflects the finished state.
  const obs::JsonValue& last = reporter.records().back();
  EXPECT_EQ(last.get("configs")->as_int(), 200);
  EXPECT_EQ(last.get("shard_nonzero")->as_int(), 20);
}

TEST(ProgressReporter, HeartbeatsNeverPerturbDecisionsAtAnyThreadCount) {
  // The ISSUE's acceptance bar: DecisionReports (including the memory
  // ledger — operator== covers it) are bit-identical with heartbeats on or
  // off, at 1, 2 and 8 threads. Fresh machine per decide() so no state
  // leaks between runs.
  const Graph g = make_cycle({0, 1, 0, 0, 1, 0, 0, 1});
  DecisionReport baseline;
  bool have_baseline = false;
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    DecisionRequest req;
    req.budget = {.max_configs = 500'000, .max_threads = threads};
    req.method = DecideMethod::Explicit;

    const DecisionReport off = decide(*buggy_flooding(), g, req);

    obs::SpanLog log;
    obs::ExploreProgress prog;
    obs::ProgressReporter::Options popts;
    popts.interval_ms = 1;  // hammer the sampler against the workers
    obs::ProgressReporter reporter(prog, popts);
    obs::Telemetry tel;
    tel.spans = &log;
    tel.progress = &prog;
    reporter.start();
    DecisionReport on;
    {
      const obs::TelemetryScope scope(tel);
      on = decide(*buggy_flooding(), g, req);
    }
    reporter.stop();

    EXPECT_TRUE(off == on) << "telemetry perturbed the report";
    ASSERT_GE(reporter.records().size(), 1u);
    if (!have_baseline) {
      baseline = off;
      have_baseline = true;
    } else {
      EXPECT_TRUE(off == baseline) << "report depends on thread count";
    }
  }
}

TEST(MemoryLedger, SetMaxMergeAndJsonOmitZeros) {
  obs::MemoryLedger a;
  EXPECT_TRUE(a.empty());
  a.set_max(obs::MemoryAccount::VectorStoreBytes, 100);
  a.set_max(obs::MemoryAccount::VectorStoreBytes, 50);  // max, not last
  EXPECT_EQ(a.get(obs::MemoryAccount::VectorStoreBytes), 100u);
  a.add(obs::MemoryAccount::EdgeBytes, 7);
  EXPECT_EQ(a.total(), 107u);

  obs::MemoryLedger b;
  b.set_max(obs::MemoryAccount::VectorStoreBytes, 200);
  b.set_max(obs::MemoryAccount::FrontierBytes, 30);
  a.merge(b);
  EXPECT_EQ(a.get(obs::MemoryAccount::VectorStoreBytes), 200u);
  EXPECT_EQ(a.get(obs::MemoryAccount::FrontierBytes), 30u);
  EXPECT_EQ(a.get(obs::MemoryAccount::EdgeBytes), 7u);

  const obs::JsonValue json = a.to_json();
  EXPECT_NE(json.get(obs::name(obs::MemoryAccount::VectorStoreBytes)),
            nullptr);
  // Zero accounts are omitted so reports stay small.
  EXPECT_EQ(json.get(obs::name(obs::MemoryAccount::TrialBlockBytes)),
            nullptr);
}

TEST(MemoryLedger, ExplicitDecideFillsThreadCountInvariantAccounts) {
  // Both machines explore on the packed store: an enumerable one at
  // ceil(log2 |Q|) bits per node, a compiled one, which advertises no
  // num_states(), at 31. A compiled machine's state ids, and so its
  // configurations' shards, follow thread timing, and the store's charge
  // must not. Each decide builds a fresh machine: a reused compiled
  // machine's interner is already warm.
  const auto reports = [](const auto& build, const Graph& g) {
    std::vector<DecisionReport> out;
    for (const int threads : {1, 8}) {
      DecisionRequest req;
      req.budget = {.max_configs = 500'000, .max_threads = threads};
      req.method = DecideMethod::Explicit;
      out.push_back(decide(*build(), g, req));
    }
    return out;
  };

  const auto table = reports([] { return buggy_flooding(); },
                             make_grid(2, 3, {0, 1, 0, 0, 1, 0}));
  ASSERT_EQ(table[0].decision, Decision::Inconsistent);
  EXPECT_TRUE(table[0].packed_store);
  EXPECT_GT(table[0].memory.get(obs::MemoryAccount::PackedStoreBytes), 0u);
  EXPECT_GT(table[0].memory.get(obs::MemoryAccount::FrontierBytes), 0u);
  EXPECT_GT(table[0].memory.get(obs::MemoryAccount::EdgeBytes), 0u);
  EXPECT_EQ(table[0].memory.get(obs::MemoryAccount::VectorStoreBytes), 0u);
  EXPECT_TRUE(table[0].memory == table[1].memory);

  const auto compiled = reports([] { return make_majority_daf(0, 1, 2); },
                                make_cycle({0, 1, 1, 0, 1}));
  ASSERT_NE(compiled[0].decision, Decision::Unknown);
  EXPECT_TRUE(compiled[0].packed_store);
  EXPECT_GT(compiled[0].memory.get(obs::MemoryAccount::PackedStoreBytes), 0u);
  EXPECT_GT(compiled[0].memory.get(obs::MemoryAccount::FrontierBytes), 0u);
  EXPECT_GT(compiled[0].memory.get(obs::MemoryAccount::EdgeBytes), 0u);
  EXPECT_EQ(compiled[0].memory.get(obs::MemoryAccount::VectorStoreBytes), 0u);
  EXPECT_TRUE(compiled[0].memory == compiled[1].memory);
}

TEST(MemoryLedger, PackedStoreRunsAccountUnderThePackedAccount) {
  const Graph g = make_grid(2, 3, {0, 1, 0, 0, 1, 0});
  DecisionRequest req;
  req.method = DecideMethod::Explicit;
  req.budget.max_configs = 500'000;
  req.budget.max_threads = 4;
  const DecisionReport r = decide(*buggy_flooding(), g, req);
  ASSERT_EQ(r.decision, Decision::Inconsistent);
  ASSERT_TRUE(r.packed_store);
  EXPECT_GT(r.memory.get(obs::MemoryAccount::PackedStoreBytes), 0u);
  EXPECT_EQ(r.memory.get(obs::MemoryAccount::VectorStoreBytes), 0u);
}

TEST(MemoryLedger, CountedCliqueDecideFillsTheStoreAccount) {
  std::vector<Label> labels(30);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = i % 2 == 0 ? 0 : 1;
  }
  const Graph g = make_clique(labels);
  const auto m = make_majority_daf(0, 1, 2);
  DecisionRequest req;  // Auto routes cliques to the counted backend
  req.budget = {.max_configs = 2'000'000, .max_threads = 4};
  const DecisionReport r = decide(*m, g, req);
  ASSERT_NE(r.decision, Decision::Unknown);
  ASSERT_EQ(r.method, DecideMethod::CountedClique);
  EXPECT_TRUE(r.packed_store);
  EXPECT_GT(r.memory.get(obs::MemoryAccount::PackedStoreBytes), 0u);
  EXPECT_EQ(r.memory.get(obs::MemoryAccount::VectorStoreBytes), 0u);
}

TEST(MemoryLedger, CappedRunsLeaveStoreAccountsEmpty) {
  // What the store holds at an abort is scheduling noise; the contract says
  // capped runs leave the store/frontier/edge accounts empty so reports
  // stay thread-count-invariant.
  const Graph g = make_grid(2, 3, {0, 1, 0, 0, 1, 0});
  DecisionRequest req;
  req.budget = {.max_configs = 5, .max_threads = 8};
  req.method = DecideMethod::Explicit;
  const DecisionReport r = decide(*buggy_flooding(), g, req);
  ASSERT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.memory.get(obs::MemoryAccount::VectorStoreBytes), 0u);
  EXPECT_EQ(r.memory.get(obs::MemoryAccount::PackedStoreBytes), 0u);
  EXPECT_EQ(r.memory.get(obs::MemoryAccount::FrontierBytes), 0u);
  EXPECT_EQ(r.memory.get(obs::MemoryAccount::EdgeBytes), 0u);
}

TEST(MemoryLedger, BatchedTrialsAccountOneWorkspace) {
  const Graph g = make_cycle({0, 1, 0, 1, 0, 1, 0, 0, 1});
  const SchedulerFactory sched = [](std::uint64_t seed) {
    return std::make_unique<RandomExclusiveScheduler>(seed);
  };
  TrialOptions opts;
  opts.num_trials = 12;
  opts.num_threads = 2;
  opts.batch = TrialBatch::Force;
  opts.sim.max_steps = 2'000;
  opts.sim.stable_window = 50;

  obs::MemoryLedger ledger;
  obs::Telemetry tel;
  tel.ledger = &ledger;
  {
    const obs::TelemetryScope scope(tel);
    (void)run_trials(gossip_factory(), g, sched, opts);
  }
  EXPECT_GT(ledger.get(obs::MemoryAccount::TrialBlockBytes), 0u);
}

TEST(Telemetry, SamplerRacesEightWorkerExplorationCleanly) {
  // TSan target: a 1 ms sampler thread reading the relaxed atomics the 8
  // exploration workers write, with spans recording on every thread. Any
  // missing synchronisation in the obs layer shows up here under
  // -fsanitize=thread; under plain builds it is one more parity check.
  const Graph g = make_grid(3, 4, {0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0});
  obs::SpanLog log;
  obs::ExploreProgress prog;
  obs::ProgressReporter::Options popts;
  popts.interval_ms = 1;
  obs::ProgressReporter reporter(prog, popts);
  obs::Telemetry tel;
  tel.spans = &log;
  tel.progress = &prog;
  reporter.start();
  DecisionReport on;
  {
    const obs::TelemetryScope scope(tel);
    DecisionRequest req;
    req.budget = {.max_configs = 500'000, .max_threads = 8};
    req.method = DecideMethod::Explicit;
    on = decide(*buggy_flooding(), g, req);
  }
  reporter.stop();
  ASSERT_EQ(on.decision, Decision::Inconsistent);
  ASSERT_GE(reporter.records().size(), 1u);
  // The final snapshot saw the finished exploration.
  const obs::JsonValue& last = reporter.records().back();
  EXPECT_EQ(last.get("configs")->as_int(),
            static_cast<std::int64_t>(on.configs_explored));
  expect_valid_chrome_trace(obs::chrome_trace_json(log));
}

#else  // DAWN_OBS_DISABLED

static_assert(std::is_empty_v<obs::SpanScope>,
              "DAWN_OBS_DISABLED must reduce SpanScope to an empty class");

TEST(Disabled, AmbientAccessorsAreInert) {
  EXPECT_EQ(obs::spans(), nullptr);
  EXPECT_EQ(obs::progress(), nullptr);
  EXPECT_EQ(obs::ledger(), nullptr);
  EXPECT_FALSE(obs::telemetry().any());

  // Installing a bundle is a no-op: the accessors stay null.
  obs::SpanLog log;
  obs::ExploreProgress prog;
  obs::Telemetry tel;
  tel.spans = &log;
  tel.progress = &prog;
  const obs::TelemetryScope scope(tel);
  EXPECT_EQ(obs::spans(), nullptr);
  EXPECT_EQ(obs::progress(), nullptr);
  EXPECT_FALSE(obs::telemetry().any());
}

TEST(Disabled, ReporterStartIsANoOp) {
  obs::ExploreProgress prog;
  obs::ProgressReporter reporter(prog, {.interval_ms = 1});
  reporter.start();
  EXPECT_FALSE(reporter.running());
  reporter.stop();
  EXPECT_TRUE(reporter.records().empty());
}

TEST(Disabled, DecideStillWorksWithAnEmptyLedger) {
  const Graph g = make_cycle({0, 1, 0, 0, 1});
  DecisionRequest req;
  req.budget = {.max_configs = 500'000, .max_threads = 4};
  const DecisionReport r = decide(*buggy_flooding(), g, req);
  EXPECT_EQ(r.decision, Decision::Inconsistent);
  EXPECT_TRUE(r.memory.empty());
}

#endif  // DAWN_OBS_DISABLED

TEST(Trials, SummaryParityScalarVsBatchedAcrossThreadsAndWidths) {
  // The satellite's metrics-parity pin: summarize() must agree field for
  // field (including the deterministic slice of the merged RunMetrics)
  // between the scalar reference and the SoA batched engine, for every
  // thread count and lane width.
  const Graph g = make_cycle({0, 1, 0, 1, 0, 1, 0, 0, 1});
  const SchedulerFactory sched = [](std::uint64_t seed) {
    return std::make_unique<RandomExclusiveScheduler>(seed);
  };
  const MachineFactory machine = gossip_factory();

  TrialOptions base;
  base.num_trials = 20;
  base.base_seed = 0xd1ff;
  base.sim.max_steps = 3'000;
  base.sim.stable_window = 50;
  base.sim.collect_metrics = true;

  auto scalar_opts = base;
  scalar_opts.num_threads = 1;
  scalar_opts.batch = TrialBatch::Off;
  const TrialSummary ref = summarize(run_trials(machine, g, sched,
                                                scalar_opts));
  ASSERT_GT(ref.converged, 0);

  for (const int threads : {1, 2, 8}) {
    for (const int width : {8, 32}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, width " +
                   std::to_string(width));
      auto opts = base;
      opts.num_threads = threads;
      opts.batch = TrialBatch::Force;
      opts.batch_width = width;
      const TrialSummary s = summarize(run_trials(machine, g, sched, opts));
      EXPECT_EQ(s.num_trials, ref.num_trials);
      EXPECT_EQ(s.converged, ref.converged);
      EXPECT_EQ(s.accepted, ref.accepted);
      EXPECT_EQ(s.rejected, ref.rejected);
      EXPECT_EQ(s.max_total_steps, ref.max_total_steps);
      EXPECT_DOUBLE_EQ(s.mean_convergence_step, ref.mean_convergence_step);
      EXPECT_TRUE(s.metrics.deterministic_equal(ref.metrics));
    }
  }
}

}  // namespace
}  // namespace dawn
