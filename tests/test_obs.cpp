// The observability layer's contracts: JSON round-trips, deterministic
// metric merges, sink scoping, bounded traces, and the exporter schema.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "dawn/graph/generators.hpp"
#include "dawn/obs/export.hpp"
#include "dawn/obs/json.hpp"
#include "dawn/obs/metrics.hpp"
#include "dawn/obs/trace_log.hpp"
#include "dawn/protocols/exists_label.hpp"
#include "dawn/sched/scheduler.hpp"
#include "dawn/semantics/simulate.hpp"
#include "dawn/trace/census.hpp"

namespace dawn {
namespace {

// Whether the ambient metrics sink is compiled in: -DDAWN_OBS=OFF reduces
// it to no-ops, so values it would feed stay 0 there.
#ifdef DAWN_OBS_DISABLED
constexpr bool kObsCompiledIn = false;
#else
constexpr bool kObsCompiledIn = true;
#endif

// ---------------------------------------------------------------- JsonValue

TEST(Json, DumpParseRoundTrip) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("b", obs::JsonValue(true));
  doc.set("i", obs::JsonValue(std::int64_t{-42}));
  doc.set("d", obs::JsonValue(1.5));
  doc.set("s", obs::JsonValue("hi \"there\"\n"));
  obs::JsonValue arr = obs::JsonValue::array();
  arr.push_back(obs::JsonValue(1));
  arr.push_back(obs::JsonValue());
  doc.set("a", std::move(arr));

  const auto parsed = obs::JsonValue::parse(doc.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, doc);
  // Pretty-printing parses back to the same value too.
  const auto pretty = obs::JsonValue::parse(doc.dump(2));
  ASSERT_TRUE(pretty.has_value());
  EXPECT_EQ(*pretty, doc);
}

TEST(Json, KeepsIntDoubleDistinction) {
  const auto v = obs::JsonValue::parse(R"({"i": 7, "d": 7.0})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->get("i")->kind(), obs::JsonValue::Kind::Int);
  EXPECT_EQ(v->get("d")->kind(), obs::JsonValue::Kind::Double);
  EXPECT_EQ(v->get("i")->as_int(), 7);
  EXPECT_DOUBLE_EQ(v->get("d")->as_double(), 7.0);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("zebra", obs::JsonValue(1));
  doc.set("apple", obs::JsonValue(2));
  doc.set("mango", obs::JsonValue(3));
  const std::string s = doc.dump();
  EXPECT_LT(s.find("zebra"), s.find("apple"));
  EXPECT_LT(s.find("apple"), s.find("mango"));
  // set() on an existing key replaces in place, keeping the slot.
  doc.set("apple", obs::JsonValue(9));
  EXPECT_EQ(doc.size(), 3u);
  EXPECT_EQ(doc.get("apple")->as_int(), 9);
}

TEST(Json, ParseErrorsCarryAMessage) {
  std::string error;
  EXPECT_FALSE(obs::JsonValue::parse("{\"unterminated\": ", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(obs::JsonValue::parse("{} trailing", &error).has_value());
}

// The number range contract (docs/OBSERVABILITY.md): the full int64 range
// parses exactly; anything beyond it is a NAMED parse error, never strtoll's
// silent saturation to LLONG_MAX/LLONG_MIN.
TEST(Json, Int64BoundariesParseExactly) {
  const auto max = obs::JsonValue::parse("9223372036854775807");
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ(max->as_int(), std::numeric_limits<std::int64_t>::max());

  const auto min = obs::JsonValue::parse("-9223372036854775808");
  ASSERT_TRUE(min.has_value());
  EXPECT_EQ(min->as_int(), std::numeric_limits<std::int64_t>::min());
}

TEST(Json, IntegersBeyondInt64AreNamedParseErrors) {
  std::string error;
  // INT64_MAX + 1 / INT64_MIN - 1: one past each boundary.
  EXPECT_FALSE(obs::JsonValue::parse("9223372036854775808", &error));
  EXPECT_NE(error.find("int64"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(obs::JsonValue::parse("-9223372036854775809", &error));
  EXPECT_NE(error.find("int64"), std::string::npos) << error;
  // A 20-digit token (uint64 territory — e.g. a ledger counter near 2^64).
  error.clear();
  EXPECT_FALSE(obs::JsonValue::parse("18446744073709551615", &error));
  EXPECT_NE(error.find("int64"), std::string::npos) << error;
  // Nested occurrences fail the whole document, with the same message.
  error.clear();
  EXPECT_FALSE(
      obs::JsonValue::parse("{\"bytes\": 99999999999999999999}", &error));
  EXPECT_NE(error.find("int64"), std::string::npos) << error;
}

TEST(Json, LedgerScaleCountersRoundTrip) {
  // Counters the MemoryLedger actually produces can be huge but are always
  // int64-representable; they must survive dump -> parse bit-exactly.
  const std::int64_t big = std::int64_t{1} << 62;
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("spill_bytes", obs::JsonValue(big));
  const auto back = obs::JsonValue::parse(doc.dump());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->get("spill_bytes")->as_int(), big);
}

TEST(Json, DoubleOverflowIsANamedParseErrorUnderflowIsNot) {
  std::string error;
  EXPECT_FALSE(obs::JsonValue::parse("1e999", &error));
  EXPECT_NE(error.find("double"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(obs::JsonValue::parse("-1e999", &error));
  EXPECT_NE(error.find("double"), std::string::npos) << error;
  // Gradual underflow is accepted as the nearest representable value.
  const auto tiny = obs::JsonValue::parse("1e-999");
  ASSERT_TRUE(tiny.has_value());
  EXPECT_EQ(tiny->as_double(), 0.0);
}

TEST(Json, UnicodeEscapesDecodeBmp) {
  const auto v = obs::JsonValue::parse(R"("A\u00e9\u20ac")");
  ASSERT_TRUE(v.has_value());
  // A, é (2-byte UTF-8), € (3-byte UTF-8).
  EXPECT_EQ(v->as_string(), "A\xc3\xa9\xe2\x82\xac");
}

TEST(Json, UnicodeEscapesDecodeSurrogatePairs) {
  // U+1F600 is encoded in JSON as the pair \ud83d\ude00 and must decode to
  // the single 4-byte UTF-8 sequence, not two 3-byte surrogate encodings.
  const auto v = obs::JsonValue::parse(R"("\ud83d\ude00")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "\xf0\x9f\x98\x80");
  // First supplementary-plane character U+10000.
  const auto lo = obs::JsonValue::parse(R"("\ud800\udc00")");
  ASSERT_TRUE(lo.has_value());
  EXPECT_EQ(lo->as_string(), "\xf0\x90\x80\x80");
  // Last code point U+10FFFF.
  const auto hi = obs::JsonValue::parse(R"("\udbff\udfff")");
  ASSERT_TRUE(hi.has_value());
  EXPECT_EQ(hi->as_string(), "\xf4\x8f\xbf\xbf");
}

TEST(Json, LoneSurrogatesAreParseErrors) {
  std::string error;
  // High surrogate at end of string.
  EXPECT_FALSE(obs::JsonValue::parse(R"("\ud83d")", &error).has_value());
  EXPECT_NE(error.find("surrogate"), std::string::npos);
  // High surrogate followed by a non-surrogate escape.
  error.clear();
  EXPECT_FALSE(obs::JsonValue::parse(R"("\ud83dA")", &error).has_value());
  EXPECT_NE(error.find("surrogate"), std::string::npos);
  // High surrogate followed by plain text.
  EXPECT_FALSE(obs::JsonValue::parse(R"("\ud83dxyz")").has_value());
  // Low surrogate with no preceding high surrogate.
  error.clear();
  EXPECT_FALSE(obs::JsonValue::parse(R"("\ude00")", &error).has_value());
  EXPECT_NE(error.find("surrogate"), std::string::npos);
}

TEST(Json, NonBmpTextSurvivesDumpParseRoundTrip) {
  // The writer emits raw UTF-8 bytes; the reader must accept them and any
  // escaped spelling of the same text.
  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("emoji", obs::JsonValue("ok \xf0\x9f\x98\x80"));
  const auto parsed = obs::JsonValue::parse(doc.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, doc);
}

// ---------------------------------------------------------------- RunMetrics

TEST(Metrics, MergeAddsCountersMaxesGauges) {
  obs::RunMetrics a;
  a.add(obs::Counter::SimSteps, 10);
  a.gauge_max(obs::Gauge::MaxSelectionSize, 3);
  a.timers[0].record(100);
  obs::RunMetrics b;
  b.add(obs::Counter::SimSteps, 5);
  b.gauge_max(obs::Gauge::MaxSelectionSize, 7);
  b.timers[0].record(40);

  a.merge(b);
  EXPECT_EQ(a.counter(obs::Counter::SimSteps), 15u);
  EXPECT_EQ(a.gauge(obs::Gauge::MaxSelectionSize), 7u);
  EXPECT_EQ(a.timers[0].count, 2u);
  EXPECT_EQ(a.timers[0].total_ns, 140u);
  EXPECT_EQ(a.timers[0].max_ns, 100u);
}

TEST(Metrics, MergeOrderDoesNotMatterForDeterministicPart) {
  obs::RunMetrics x, y;
  x.add(obs::Counter::SimCommits, 2);
  x.gauge_max(obs::Gauge::InternerPeakStates, 10);
  y.add(obs::Counter::SimCommits, 5);
  y.gauge_max(obs::Gauge::InternerPeakStates, 4);

  obs::RunMetrics xy = x, yx = y;
  xy.merge(y);
  yx.merge(x);
  EXPECT_TRUE(xy.deterministic_equal(yx));
}

TEST(Metrics, DeterministicEqualIgnoresTimers) {
  obs::RunMetrics a, b;
  a.add(obs::Counter::SimRuns);
  b.add(obs::Counter::SimRuns);
  a.timers[0].record(123);  // wall clock differs run to run
  EXPECT_TRUE(a.deterministic_equal(b));
  EXPECT_FALSE(a == b);
  b.add(obs::Counter::SimRuns);
  EXPECT_FALSE(a.deterministic_equal(b));
}

TEST(Metrics, EmptyDetectsAnyActivity) {
  obs::RunMetrics m;
  EXPECT_TRUE(m.empty());
  m.timers[0].record(1);
  EXPECT_FALSE(m.empty());
}

TEST(Metrics, ScopeInstallsAndRestoresTheSink) {
  // No sink: count() is a no-op, not a crash.
  obs::count(obs::Counter::SimSteps);
  EXPECT_FALSE(obs::enabled());

  obs::RunMetrics outer, inner;
  {
    obs::MetricsScope s1(outer);
    obs::count(obs::Counter::SimSteps);
    {
      obs::MetricsScope s2(inner);  // nesting redirects...
      obs::count(obs::Counter::SimSteps, 5);
    }
    obs::count(obs::Counter::SimSteps);  // ...and pops back to outer
  }
  EXPECT_FALSE(obs::enabled());
  EXPECT_EQ(outer.counter(obs::Counter::SimSteps), kObsCompiledIn ? 2u : 0u);
  EXPECT_EQ(inner.counter(obs::Counter::SimSteps), kObsCompiledIn ? 5u : 0u);
}

TEST(Metrics, StopwatchRecordsOnlyWhenSinkInstalled) {
  obs::RunMetrics m;
  { obs::Stopwatch unsinked(obs::Timer::OverlayBroadcast); }
  EXPECT_TRUE(m.empty());
  {
    obs::MetricsScope scope(m);
    obs::Stopwatch sw(obs::Timer::OverlayBroadcast);
  }
  EXPECT_EQ(m.timer(obs::Timer::OverlayBroadcast).count,
            kObsCompiledIn ? 1u : 0u);
}

TEST(Metrics, ToJsonOmitsZeroEntries) {
  obs::RunMetrics m;
  m.add(obs::Counter::SimRuns, 3);
  const obs::JsonValue j = m.to_json();
  ASSERT_NE(j.get("counters"), nullptr);
  EXPECT_EQ(j.get("counters")->size(), 1u);
  EXPECT_EQ(j.get("counters")->get("sim.runs")->as_int(), 3);
  EXPECT_EQ(j.get("gauges")->size(), 0u);
  // include_timers=false drops the wall-clock section for diffable output.
  EXPECT_EQ(m.to_json(false).get("timers"), nullptr);
}

// ------------------------------------------------------------------ TraceLog

TEST(TraceLog, RecordsTypedEventsInOrder) {
  obs::TraceLog log;
  log.run_start(3, "incremental");
  log.step(0, Selection{1, 2}, 1);
  log.consensus(4, "accept");
  log.run_end(10, true, "accept");
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log.events()[0].get("type")->as_string(), "run_start");
  EXPECT_EQ(log.events()[1].get("sel")->size(), 2u);
  EXPECT_EQ(log.events()[1].get("sel")->at(1).as_int(), 2);
  EXPECT_EQ(log.events()[3].get("type")->as_string(), "run_end");
  EXPECT_FALSE(log.truncated());
}

TEST(TraceLog, BoundedAppendDropsAndCounts) {
  obs::RunMetrics m;
  obs::MetricsScope scope(m);
  obs::TraceLog log(2);
  log.run_start(1, "incremental");
  EXPECT_TRUE(log.append(obs::JsonValue::object()));
  EXPECT_FALSE(log.append(obs::JsonValue::object()));
  EXPECT_FALSE(log.append(obs::JsonValue::object()));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_TRUE(log.truncated());
  EXPECT_EQ(m.counter(obs::Counter::TraceEventsDropped),
            kObsCompiledIn ? 2u : 0u);
}

TEST(TraceLog, RunEndEvictsRatherThanDrops) {
  // A full trace still ends with run_end: the newest step is evicted so the
  // terminal event is never lost.
  obs::TraceLog log(2);
  log.run_start(1, "incremental");
  log.step(0, Selection{0}, 1);
  log.run_end(5, true, "accept");
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.events()[0].get("type")->as_string(), "run_start");
  EXPECT_EQ(log.events()[1].get("type")->as_string(), "run_end");
  EXPECT_EQ(log.dropped(), 1u);
}

TEST(TraceLog, JsonlRoundTripWithTruncationMarker) {
  obs::TraceLog log(1);
  log.run_start(2, "full_copy");
  log.step(0, Selection{0}, 0);  // dropped
  const std::string jsonl = log.to_jsonl();
  const auto events = obs::TraceLog::parse_jsonl(jsonl);
  ASSERT_TRUE(events.has_value());
  ASSERT_EQ(events->size(), 2u);  // kept event + truncation marker line
  EXPECT_EQ(events->back().get("type")->as_string(), "truncated");
  EXPECT_EQ(events->back().get("dropped")->as_int(), 1);
}

TEST(TraceLog, FirstDivergencePinpointsTheStep) {
  obs::TraceLog a, b;
  a.run_start(2, "incremental");
  b.run_start(2, "incremental");
  a.step(0, Selection{0}, 1);
  b.step(0, Selection{0}, 1);
  a.step(1, Selection{1}, 1);
  b.step(1, Selection{0}, 1);  // diverges here
  EXPECT_EQ(obs::TraceLog::first_divergence(a.events(), b.events()), 2);
  EXPECT_EQ(obs::TraceLog::first_divergence(a.events(), a.events()), -1);
}

TEST(TraceLog, SimulateEmitsReplayableTrace) {
  const auto m = make_exists_label(1, 2);
  const Graph g = make_line({1, 0, 0});
  obs::TraceLog trace;
  RandomExclusiveScheduler sched(7);
  SimulateOptions opts;
  opts.max_steps = 2'000;
  opts.stable_window = 100;
  opts.trace = &trace;
  const SimulateResult r = simulate(*m, g, sched, opts);
  EXPECT_TRUE(r.converged);
  ASSERT_GE(trace.size(), 2u);
  EXPECT_EQ(trace.events().front().get("type")->as_string(), "run_start");
  const obs::JsonValue& last = trace.events().back();
  EXPECT_EQ(last.get("type")->as_string(), "run_end");
  EXPECT_TRUE(last.get("converged")->as_bool());
  EXPECT_EQ(last.get("verdict")->as_string(), "accept");
  // Two identically-seeded runs produce identical traces.
  obs::TraceLog again;
  RandomExclusiveScheduler sched2(7);
  opts.trace = &again;
  simulate(*m, g, sched2, opts);
  EXPECT_EQ(obs::TraceLog::first_divergence(trace.events(), again.events()),
            -1);
  EXPECT_EQ(trace.size(), again.size());
}

// --------------------------------------------------------------- BenchReport

TEST(BenchReport, EmitsTheVersionedSchema) {
  obs::BenchReport report("unit", /*smoke=*/true);
  report.meta("n", obs::JsonValue(4));
  obs::JsonValue& row = report.add_row();
  row.set("case", obs::JsonValue("a"));
  row.set("ok", obs::JsonValue(true));

  const obs::JsonValue& doc = report.json();
  EXPECT_EQ(doc.get("schema_version")->as_int(), obs::kBenchSchemaVersion);
  EXPECT_EQ(doc.get("bench")->as_string(), "unit");
  EXPECT_TRUE(doc.get("smoke")->as_bool());
  std::string error;
  EXPECT_TRUE(obs::BenchReport::validate(doc, &error)) << error;
}

TEST(BenchReport, ValidateRejectsDrift) {
  obs::BenchReport report("unit");
  std::string error;

  auto broken = report.json();
  broken.set("schema_version", obs::JsonValue(99));
  EXPECT_FALSE(obs::BenchReport::validate(broken, &error));
  EXPECT_NE(error.find("schema_version"), std::string::npos);

  auto nested = report.json();
  obs::JsonValue row = obs::JsonValue::object();
  row.set("inner", obs::JsonValue::object());  // non-scalar row value
  nested.get("results")->push_back(std::move(row));
  EXPECT_FALSE(obs::BenchReport::validate(nested, &error));
  EXPECT_NE(error.find("not a scalar"), std::string::npos);

  EXPECT_FALSE(obs::BenchReport::validate(obs::JsonValue(1), &error));
}

TEST(BenchReport, AddMetricsFlattensNonzeroColumns) {
  obs::BenchReport report("unit");
  obs::RunMetrics m;
  m.add(obs::Counter::SimSteps, 12);
  m.gauge_max(obs::Gauge::MaxSelectionSize, 2);
  m.timers[static_cast<std::size_t>(obs::Timer::OverlayBroadcast)].record(50);
  obs::JsonValue& row = report.add_row();
  report.add_metrics(row, m);
  EXPECT_EQ(row.get("metrics.sim.steps")->as_int(), 12);
  EXPECT_EQ(row.get("metrics.sim.max_selection_size")->as_int(), 2);
  EXPECT_EQ(row.get("metrics.time.overlay_broadcast.count")->as_int(), 1);
  EXPECT_EQ(row.get("metrics.sim.runs"), nullptr);  // zero: omitted
  std::string error;
  EXPECT_TRUE(obs::BenchReport::validate(report.json(), &error)) << error;
}

TEST(BenchReport, AddCensusFlattensLayers) {
  obs::BenchReport report("unit");
  Census census;
  census.distinct_states = 5;
  census.distinct_configs = 9;
  census.steps = 100;
  census.layers.push_back({"broadcast(L4.7)", 12});
  census.layers.push_back({"absence(L4.9)", 3});
  obs::JsonValue& row = report.add_row();
  report.add_census(row, census);
  EXPECT_EQ(row.get("census.distinct_states")->as_int(), 5);
  EXPECT_EQ(row.get("census.total_interned")->as_int(), 15);
  EXPECT_EQ(row.get("census.layer0.name")->as_string(), "broadcast(L4.7)");
  EXPECT_EQ(row.get("census.layer1.states")->as_int(), 3);
  std::string error;
  EXPECT_TRUE(obs::BenchReport::validate(report.json(), &error)) << error;
}

TEST(BenchReport, WriteRoundTripsThroughTheValidator) {
  obs::BenchReport report("roundtrip", /*smoke=*/true);
  report.meta("cells", obs::JsonValue(1));
  report.add_row().set("x", obs::JsonValue(1.25));

  const std::string dir = ::testing::TempDir();
  const std::string path = report.write(dir);
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("BENCH_roundtrip.json"), std::string::npos);
  // The stem override picks the file name; the bench name stays inside.
  const std::string aliased = report.write(dir, "alias");
  EXPECT_NE(aliased.find("BENCH_alias.json"), std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto doc = obs::JsonValue::parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  std::string error;
  EXPECT_TRUE(obs::BenchReport::validate(*doc, &error)) << error;
  EXPECT_EQ(doc->get("bench")->as_string(), "roundtrip");
  EXPECT_EQ(doc->get("results")->at(0).get("x")->as_double(), 1.25);
  std::remove(path.c_str());
  std::remove(aliased.c_str());
}

TEST(BenchReport, RecordCensusFillsGauges) {
  Census census;
  census.distinct_states = 4;
  census.distinct_configs = 11;
  census.layers.push_back({"tagged", 6});
  obs::RunMetrics m;
  obs::record_census(census, m);
  EXPECT_EQ(m.gauge(obs::Gauge::CensusDistinctStates), 4u);
  EXPECT_EQ(m.gauge(obs::Gauge::CensusDistinctConfigs), 11u);
  EXPECT_EQ(m.gauge(obs::Gauge::InternerPeakStates), 6u);
}

TEST(BenchReport, SmokeModeParsesArgv) {
  const char* yes[] = {"bench", "--smoke"};
  const char* no[] = {"bench", "--other"};
  EXPECT_TRUE(obs::smoke_mode(2, const_cast<char**>(yes)));
  EXPECT_FALSE(obs::smoke_mode(2, const_cast<char**>(no)));
  EXPECT_FALSE(obs::smoke_mode(1, const_cast<char**>(yes)));
}

}  // namespace
}  // namespace dawn
