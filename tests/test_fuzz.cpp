// The fuzzing harness's own contracts: deterministic generation, class
// validity of generated machines, shrinker idempotence, artifact
// round-trips, and a small all-pairs oracle smoke. ISSUE: any real
// divergence the campaigns surface gets pinned here as a regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "dawn/automata/run.hpp"
#include "dawn/fuzz/artifact.hpp"
#include "dawn/fuzz/fuzz.hpp"
#include "dawn/fuzz/gen.hpp"
#include "dawn/fuzz/oracle.hpp"
#include "dawn/fuzz/shrink.hpp"
#include "dawn/graph/generators.hpp"
#include "dawn/net/payload.hpp"
#include "dawn/util/rng.hpp"

namespace dawn {
namespace {

// ------------------------------------------------------------- generators

TEST(FuzzGen, FixedSeedIsDeterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 20; ++i) {
    const fuzz::FuzzCase x = fuzz::gen_case(a);
    const fuzz::FuzzCase y = fuzz::gen_case(b);
    EXPECT_EQ(x.machine, y.machine);
    EXPECT_EQ(x.shape, y.shape);
    EXPECT_EQ(x.graph.n(), y.graph.n());
    EXPECT_EQ(x.schedule, y.schedule);
    for (NodeId v = 0; v < x.graph.n(); ++v) {
      EXPECT_EQ(x.graph.label(v), y.graph.label(v));
      EXPECT_TRUE(std::ranges::equal(x.graph.neighbours(v),
                                     y.graph.neighbours(v)));
    }
  }
  // And different seeds actually explore: some case must differ.
  Rng c(43);
  bool any_diff = false;
  Rng a2(42);
  for (int i = 0; i < 20 && !any_diff; ++i) {
    const fuzz::FuzzCase x = fuzz::gen_case(a2);
    const fuzz::FuzzCase y = fuzz::gen_case(c);
    any_diff = !(x.machine == y.machine) || x.schedule != y.schedule;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FuzzGen, CoversAllClassesAndShapes) {
  Rng rng(7);
  std::set<std::string> classes, shapes;
  for (int i = 0; i < 300; ++i) {
    const fuzz::FuzzCase c = fuzz::gen_case(rng);
    classes.insert(c.machine.cls.name());
    shapes.insert(c.shape);
  }
  EXPECT_EQ(classes.size(), all_classes().size());
  for (const char* shape :
       {"single-node", "edgeless", "disconnected", "star", "line", "clique"}) {
    EXPECT_TRUE(shapes.count(shape)) << shape;
  }
}

TEST(FuzzGen, NonCountingMachinesNeverCount) {
  // A d-class spec must build a machine with β = 1: the engine then caps
  // every neighbourhood count at one, so the machine cannot count even if
  // its hash-transition wanted to.
  Rng rng(11);
  int seen = 0;
  for (int i = 0; i < 200; ++i) {
    const fuzz::MachineSpec spec = fuzz::gen_machine(rng);
    if (spec.cls.detection == DetectionKind::NonCounting) {
      ++seen;
      EXPECT_EQ(spec.beta, 1);
      EXPECT_EQ(fuzz::build_machine(spec)->beta(), 1);
    } else {
      EXPECT_GE(spec.beta, 2);
    }
  }
  EXPECT_GT(seen, 20);
}

TEST(FuzzGen, HaltingMachinesNeverFlipTheirVerdict) {
  // Run generated halting-class machines under their generated schedules:
  // once a node's verdict leaves Neutral it must never change again
  // (halting acceptance, Section 2.1 of the paper).
  Rng rng(13);
  int checked = 0;
  for (int i = 0; i < 120; ++i) {
    const fuzz::FuzzCase c = fuzz::gen_case(rng);
    if (c.machine.cls.acceptance != AcceptanceKind::Halting) continue;
    ++checked;
    const auto machine = fuzz::build_machine(c.machine);
    dawn::Run run(*machine, c.graph, StepEngine::Incremental);
    const int n = c.graph.n();
    std::vector<Verdict> settled(static_cast<std::size_t>(n),
                                 Verdict::Neutral);
    for (const Selection& sel : c.schedule) {
      run.apply(sel);
      for (NodeId v = 0; v < n; ++v) {
        const Verdict now =
            machine->verdict(run.config()[static_cast<std::size_t>(v)]);
        if (settled[static_cast<std::size_t>(v)] != Verdict::Neutral) {
          EXPECT_EQ(now, settled[static_cast<std::size_t>(v)])
              << "node " << v << " flipped a halting verdict";
        }
        settled[static_cast<std::size_t>(v)] = now;
      }
    }
  }
  EXPECT_GT(checked, 20);
}

TEST(FuzzGen, SchedulesCoverEveryNodeAndAreNonEmpty) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const int n = static_cast<int>(rng.uniform(1, 8));
    const int len = static_cast<int>(rng.uniform(1, 10));
    const auto sched = fuzz::gen_schedule(rng, n, len);
    ASSERT_GE(sched.size(), 1u);
    std::set<NodeId> covered;
    for (const Selection& sel : sched) {
      ASSERT_FALSE(sel.empty());
      for (NodeId v : sel) {
        ASSERT_GE(v, 0);
        ASSERT_LT(v, n);
        covered.insert(v);
      }
    }
    EXPECT_EQ(static_cast<int>(covered.size()), n);
  }
}

// --------------------------------------------------------------- shrinker

TEST(FuzzShrink, ShrinksToThePredicateCore) {
  // Predicate: the divergence is "node count >= 3 and schedule length
  // >= 2". The shrinker must reach exactly that boundary.
  Rng rng(23);
  fuzz::CaseGenOptions gen;
  gen.graph.min_nodes = 6;
  gen.graph.max_nodes = 9;
  const fuzz::FuzzCase big = fuzz::gen_case(rng, gen);
  const auto fails = [](const fuzz::FuzzCase& c) {
    return c.graph.n() >= 3 && c.schedule.size() >= 2;
  };
  ASSERT_TRUE(fails(big));
  const fuzz::FuzzCase small = fuzz::shrink_case(big, fails);
  EXPECT_TRUE(fails(small));
  EXPECT_EQ(small.graph.n(), 3);
  EXPECT_EQ(small.schedule.size(), 2u);
  for (const Selection& sel : small.schedule) EXPECT_EQ(sel.size(), 1u);
}

TEST(FuzzShrink, IdempotentOnAMinimalCase) {
  Rng rng(29);
  const fuzz::FuzzCase big = fuzz::gen_case(rng);
  const auto fails = [](const fuzz::FuzzCase& c) {
    return c.graph.n() >= 2;
  };
  const fuzz::FuzzCase once = fuzz::shrink_case(big, fails);
  const fuzz::FuzzCase twice = fuzz::shrink_case(once, fails);
  EXPECT_EQ(once.machine, twice.machine);
  EXPECT_EQ(once.graph.n(), twice.graph.n());
  EXPECT_EQ(once.schedule, twice.schedule);
  EXPECT_EQ(once.graph.n(), 2);
}

TEST(FuzzShrink, KeepsTheCaseWhenNothingHelps) {
  // A predicate that pins every field: no move applies, input comes back.
  Rng rng(31);
  fuzz::CaseGenOptions gen;
  gen.graph.min_nodes = 1;
  gen.graph.max_nodes = 1;
  const fuzz::FuzzCase c = fuzz::gen_case(rng, gen);
  const fuzz::FuzzCase s = fuzz::shrink_case(
      c, [&](const fuzz::FuzzCase& cand) {
        return cand.machine == c.machine && cand.graph.n() == c.graph.n() &&
               cand.schedule == c.schedule;
      });
  EXPECT_EQ(s.machine, c.machine);
  EXPECT_EQ(s.schedule, c.schedule);
}

TEST(FuzzShrink, RemoveGraphNodeRenumbersAndDropsEdges) {
  GraphBuilder b;
  for (const Label l : {0, 1, 0, 1}) b.add_node(l);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(0, 3);
  const Graph g = std::move(b).build();
  const Graph h = fuzz::remove_graph_node(g, 1);
  ASSERT_EQ(h.n(), 3);
  // Old node 2 -> new 1, old 3 -> new 2; the 0–1 and 1–2 edges died with
  // node 1, the 2–3 and 0–3 edges survive renumbered.
  EXPECT_EQ(h.label(0), 0);
  EXPECT_EQ(h.label(1), 0);
  EXPECT_EQ(h.label(2), 1);
  EXPECT_EQ(h.degree(0), 1);
  EXPECT_EQ(h.degree(1), 1);
  EXPECT_EQ(h.degree(2), 2);
}

// -------------------------------------------------------------- artifacts

TEST(FuzzArtifact, CaseRoundTripsThroughJson) {
  Rng rng(37);
  for (int i = 0; i < 25; ++i) {
    const fuzz::FuzzCase c = fuzz::gen_case(rng);
    std::string error;
    const auto back = fuzz::case_from_json(fuzz::case_to_json(c), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->machine, c.machine);
    EXPECT_EQ(back->shape, c.shape);
    EXPECT_EQ(back->schedule, c.schedule);
    ASSERT_EQ(back->graph.n(), c.graph.n());
    for (NodeId v = 0; v < c.graph.n(); ++v) {
      EXPECT_EQ(back->graph.label(v), c.graph.label(v));
      // The artifact stores a canonical edge list, so adjacency ORDER may
      // differ from the generator's construction order; the neighbour SET
      // is what the step semantics read (counts are aggregated).
      auto lhs = std::vector<NodeId>(back->graph.neighbours(v).begin(),
                                     back->graph.neighbours(v).end());
      auto rhs = std::vector<NodeId>(c.graph.neighbours(v).begin(),
                                     c.graph.neighbours(v).end());
      std::ranges::sort(lhs);
      std::ranges::sort(rhs);
      EXPECT_EQ(lhs, rhs);
    }
  }
}

TEST(FuzzArtifact, RejectsCorruptCases) {
  Rng rng(41);
  const fuzz::FuzzCase c = fuzz::gen_case(rng);
  obs::JsonValue v = fuzz::case_to_json(c);
  v.set("schedule", obs::JsonValue::array());  // empty schedule is invalid
  std::string error;
  EXPECT_FALSE(fuzz::case_from_json(v, &error).has_value());
  EXPECT_FALSE(error.empty());

  obs::JsonValue w = fuzz::case_to_json(c);
  obs::JsonValue bad_edge = obs::JsonValue::array();
  bad_edge.push_back(obs::JsonValue(0));
  bad_edge.push_back(obs::JsonValue(999));  // out of range
  w.get("graph")->get("edges")->push_back(std::move(bad_edge));
  EXPECT_FALSE(fuzz::case_from_json(w).has_value());
}

TEST(FuzzArtifact, FileRoundTripAndTrace) {
  Rng rng(43);
  const fuzz::FuzzCase c = fuzz::gen_case(rng);
  const fuzz::DivergenceArtifact a{"step-engine", "test detail", c};
  const std::string path = "fuzz_artifact_roundtrip.case.json";
  std::string error;
  ASSERT_TRUE(fuzz::write_artifact(path, a, &error)) << error;
  const auto back = fuzz::load_artifact(path, &error);
  std::remove(path.c_str());
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->pair, a.pair);
  EXPECT_EQ(back->detail, a.detail);
  EXPECT_EQ(back->c.machine, a.c.machine);
  EXPECT_EQ(back->c.schedule, a.c.schedule);

  const obs::TraceLog trace = fuzz::trace_case(c);
  EXPECT_GT(trace.size(), 0u);
}

TEST(FuzzArtifact, ClassFromNameParsesAllAndRejectsJunk) {
  for (const AutomatonClass& cls : all_classes()) {
    const auto parsed = fuzz::class_from_name(cls.name());
    ASSERT_TRUE(parsed.has_value()) << cls.name();
    EXPECT_EQ(*parsed, cls);
  }
  EXPECT_FALSE(fuzz::class_from_name("xyz").has_value());
  EXPECT_FALSE(fuzz::class_from_name("").has_value());
  EXPECT_FALSE(fuzz::class_from_name("dAff").has_value());
}

// The frozen spec_version 1 wire bytes, pinned character by character. If
// either of these strings has to change, the schema changed: bump
// fuzz::kSpecVersion and teach the parsers both versions — do NOT just
// update the literal (docs/SERVICE.md, "Payload schema").
TEST(FuzzArtifact, SpecVersionOneCaseBytesArePinned) {
  fuzz::FuzzCase c;
  c.machine.cls = *fuzz::class_from_name("dAf");
  c.machine.num_states = 3;
  c.machine.num_labels = 2;
  c.machine.beta = 1;
  c.machine.seed = 7;
  c.machine.halt_accept = 1;
  c.machine.halt_reject = 1;
  c.graph = make_line({0, 1});
  c.shape = "line";
  c.schedule = {{0}, {0, 1}};

  const std::string pinned =
      R"({"spec_version":1,)"
      R"("machine":{"class":"dAf","states":3,"labels":2,"beta":1,"seed":7,)"
      R"("halt_accept":1,"halt_reject":1},)"
      R"("graph":{"labels":[0,1],"edges":[[0,1]]},)"
      R"("shape":"line","schedule":[[0],[0,1]]})";
  EXPECT_EQ(fuzz::case_to_json(c).dump(), pinned);

  // Parsing the pinned bytes and re-serialising reproduces them exactly —
  // the round trip is the identity on canonical documents.
  const auto doc = obs::JsonValue::parse(pinned);
  ASSERT_TRUE(doc.has_value());
  std::string error;
  const auto back = fuzz::case_from_json(*doc, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(fuzz::case_to_json(*back).dump(), pinned);

  // A future spec_version is a named error, not a silent acceptance.
  obs::JsonValue bumped = *doc;
  bumped.set("spec_version", obs::JsonValue(2));
  error.clear();
  EXPECT_FALSE(fuzz::case_from_json(bumped, &error).has_value());
  EXPECT_EQ(error, "unknown spec_version: 2");
}

TEST(FuzzArtifact, SpecVersionOneDecideRequestBytesArePinned) {
  // The dawnd Decide payload shares the machine/graph halves of the case
  // schema byte for byte (net/payload.hpp reuses the artifact serialisers).
  net::DecideRequest req;
  req.machine.cls = *fuzz::class_from_name("dAf");
  req.machine.num_states = 3;
  req.machine.num_labels = 2;
  req.machine.beta = 1;
  req.machine.seed = 7;
  req.machine.halt_accept = 1;
  req.machine.halt_reject = 1;
  req.graph = make_line({0, 1});
  req.budget.max_configs = 50'000;
  req.budget.max_threads = 1;

  const std::string pinned =
      R"({"spec_version":1,)"
      R"("machine":{"class":"dAf","states":3,"labels":2,"beta":1,"seed":7,)"
      R"("halt_accept":1,"halt_reject":1},)"
      R"("graph":{"labels":[0,1],"edges":[[0,1]]},)"
      R"("budget":{"max_configs":50000,"max_threads":1,"deadline_ms":0,)"
      R"("use_symmetry":false},)"
      R"("method":"auto"})";
  EXPECT_EQ(net::decide_request_to_json(req).dump(), pinned);

  const auto doc = obs::JsonValue::parse(pinned);
  ASSERT_TRUE(doc.has_value());
  std::string error;
  const auto back = net::decide_request_from_json(*doc, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(net::decide_request_to_json(*back).dump(), pinned);

  // Older spec-v1 clients still send the retired packing flag. Either value
  // parses to the same request (packing follows the machine now); a
  // non-boolean stays a named error.
  for (const char* flag : {"false", "true"}) {
    const std::string legacy =
        R"({"spec_version":1,)"
        R"("machine":{"class":"dAf","states":3,"labels":2,"beta":1,"seed":7,)"
        R"("halt_accept":1,"halt_reject":1},)"
        R"("graph":{"labels":[0,1],"edges":[[0,1]]},)"
        R"("budget":{"max_configs":50000,"max_threads":1,"deadline_ms":0,)"
        R"("use_symmetry":false,"use_packing":)" +
        std::string(flag) + R"(},"method":"auto"})";
    const auto legacy_doc = obs::JsonValue::parse(legacy);
    ASSERT_TRUE(legacy_doc.has_value()) << flag;
    const auto parsed = net::decide_request_from_json(*legacy_doc, &error);
    ASSERT_TRUE(parsed.has_value()) << flag << ": " << error;
    EXPECT_EQ(net::decide_request_to_json(*parsed).dump(), pinned) << flag;
    EXPECT_EQ(net::cache_key(*parsed), net::cache_key(*back)) << flag;
  }
  obs::JsonValue mistyped = *doc;
  obs::JsonValue budget = *doc->get("budget");
  budget.set("use_packing", obs::JsonValue(1));
  mistyped.set("budget", budget);
  error.clear();
  EXPECT_FALSE(net::decide_request_from_json(mistyped, &error).has_value());
  EXPECT_EQ(error, "missing or mistyped field: use_packing");
}

// ----------------------------------------------------------------- oracle

TEST(FuzzOracle, RegistryNamesAreUniqueAndFindable) {
  std::set<std::string> names;
  for (const fuzz::OraclePair& pair : fuzz::oracle_pairs()) {
    EXPECT_TRUE(names.insert(pair.name).second) << pair.name;
    EXPECT_EQ(fuzz::find_pair(pair.name), &pair);
    EXPECT_FALSE(pair.description.empty());
  }
  EXPECT_GE(names.size(), 6u);
  EXPECT_EQ(fuzz::find_pair("no-such-pair"), nullptr);
}

TEST(FuzzOracle, SmokeCampaignIsDivergenceFree) {
  // The harness's own tier-1 gate: a short all-pairs campaign must come
  // back clean. A failure here is a real engine bug (or a harness bug) —
  // shrink it with tools/dawn_fuzz and pin the artifact.
  fuzz::FuzzOptions opts;
  opts.seed = 2026;
  opts.budget_cases = 40;
  const fuzz::FuzzReport report = fuzz::run_fuzz(opts);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.cases, 40);
  // Every pair must have actually checked something.
  for (const fuzz::PairStats& s : report.per_pair) {
    EXPECT_GT(s.checked, 0) << s.name;
  }
}

TEST(FuzzOracle, StopOnDivergenceHonoursPairSelection) {
  fuzz::FuzzOptions opts;
  opts.seed = 5;
  opts.budget_cases = 5;
  opts.pairs = {"step-engine", "record-replay"};
  const fuzz::FuzzReport report = fuzz::run_fuzz(opts);
  ASSERT_EQ(report.per_pair.size(), 2u);
  EXPECT_EQ(report.per_pair[0].name, "step-engine");
  EXPECT_EQ(report.per_pair[1].name, "record-replay");
  EXPECT_THROW(
      {
        fuzz::FuzzOptions bad;
        bad.pairs = {"bogus"};
        fuzz::run_fuzz(bad);
      },
      std::logic_error);
}

}  // namespace
}  // namespace dawn
