// The explore-table and explore-compiled workloads: decide() with the
// facade defaults, one fresh machine per op, every report checked.
#include <cstdio>

#include "dawn/automata/config.hpp"
#include "dawn/fuzz/gen.hpp"
#include "dawn/graph/generators.hpp"
#include "dawn/props/predicates.hpp"
#include "dawn/protocols/majority_bounded.hpp"
#include "dawn/protocols/parity_strong.hpp"
#include "dawn/protocols/pp_majority.hpp"
#include "dawn/protocols/pp_mod.hpp"
#include "dawn/protocols/threshold_daf.hpp"
#include "dawn/semantics/decision.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dawn::Decision;
using dawn::Label;
using dawn::Rng;

// explore-table sizing. |Q|^n bounds the reachable configs from above (the
// slots below keep it within 2^15.9..2^17.5); the screen drops instances
// that stay under kScreenCap configs.
constexpr std::size_t kScreenCap = std::size_t{1} << 14;
constexpr std::size_t kTableInstances = 112;
// Instances the traced run replays layer by layer.
constexpr std::size_t kTableProbes = 3;
constexpr std::size_t kCompiledProbes = 5;

// A parallel-safe table machine with a non-monotone, many-state reachable
// space (as in bench_explicit_parallel): a node advances around a K-cycle of
// states whenever some neighbour sits one ahead or one behind it.
std::shared_ptr<const dawn::Machine> chase_machine(int K) {
  dawn::FunctionMachine::Spec spec;
  spec.beta = 1;
  spec.num_labels = 2;
  spec.num_states = K;
  spec.init = [K](Label l) { return static_cast<dawn::State>(l % K); };
  spec.step = [K](dawn::State s, const dawn::Neighbourhood& n) {
    const auto up = static_cast<dawn::State>((s + 1) % K);
    const auto down = static_cast<dawn::State>((s + K - 1) % K);
    return n.count(up) > 0 || n.count(down) > 0 ? up : s;
  };
  spec.verdict = [](dawn::State s) {
    return s == 0 ? dawn::Verdict::Accept : dawn::Verdict::Reject;
  };
  return std::make_shared<dawn::FunctionMachine>(spec);
}

int uniform(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.uniform(lo, hi));
}

std::vector<Label> random_labels(Rng& rng, int n, int num_labels) {
  std::vector<Label> labels(static_cast<std::size_t>(n));
  for (Label& l : labels) l = uniform(rng, 0, num_labels - 1);
  return labels;
}

// A cycle, line, grid or random degree-<=3 graph on about n nodes (a grid
// takes the largest w*h <= n). Never a clique or a star, so Auto routes it
// to the explicit engine.
dawn::Graph bounded_graph(Rng& rng, int topology, int n, int num_labels,
                          std::string* shape) {
  switch (topology) {
    case 0:
      *shape = "cycle";
      return dawn::make_cycle(random_labels(rng, n, num_labels));
    case 1:
      *shape = "line";
      return dawn::make_line(random_labels(rng, n, num_labels));
    case 2: {
      int w = 2;
      for (int d = 2; d * d <= n; ++d) {
        if ((n / d) * d > (n / w) * w || d * (n / d) == n) w = d;
      }
      const int h = n / w;
      *shape = "grid";
      return dawn::make_grid(w, h, random_labels(rng, w * h, num_labels));
    }
    default:
      *shape = "random";
      return dawn::make_random_bounded_degree(
          random_labels(rng, n, num_labels), 3, n / 2, rng);
  }
}

// One slot of the explore-table rotation: a machine kind with |Q| states on
// a topology of n nodes. The rotation is the same for every seed, so runs of
// different seeds do the same mix of work; the seed draws the fuzz machines,
// the labels and the random graphs.
struct TableSlot {
  bool chase;
  int states;
  int topology;  // 0 cycle, 1 line, 2 grid, 3 random degree <= 3
  int n;
};
constexpr TableSlot kTableSlots[] = {
    {false, 4, 0, 8},  {true, 3, 0, 11}, {false, 3, 1, 10}, {true, 4, 2, 8},
    {false, 5, 3, 7},  {true, 4, 0, 9},  {false, 3, 2, 11}, {true, 3, 3, 10},
    {false, 4, 3, 8},  {true, 4, 1, 9},  {false, 5, 0, 7},  {true, 3, 2, 10},
};

ExploreInstance table_candidate(Rng& rng, const TableSlot& slot) {
  ExploreInstance inst;
  int labels = 2;
  if (slot.chase) {
    const int k = slot.states;
    inst.build = [k] { return chase_machine(k); };
    inst.family = "chase" + std::to_string(k);
  } else {
    dawn::fuzz::MachineGenOptions opts;
    opts.min_states = slot.states;
    opts.max_states = slot.states;
    opts.max_labels = 2;
    const dawn::fuzz::MachineSpec spec = dawn::fuzz::gen_machine(rng, opts);
    labels = spec.num_labels;
    inst.build = [spec] { return dawn::fuzz::build_machine(spec); };
    inst.family = "fuzz-" + spec.cls.name() + "-q" + std::to_string(slot.states);
  }
  std::string shape;
  inst.graph = bounded_graph(rng, slot.topology, slot.n, labels, &shape);
  inst.family += "/" + shape + std::to_string(inst.graph.n());
  return inst;
}

bool mixed_labels(const dawn::Graph& g) {
  for (int v = 1; v < g.n(); ++v) {
    if (g.label(v) != g.label(0)) return true;
  }
  return false;
}

// Seeded table instances in op order, fuzz and chase machines alternating;
// the first is the warm-up op. Fuzz candidates must pass the screen. Chase
// machines on mixed labels never freeze and reach far more than kScreenCap
// configs at these sizes, so they skip it.
std::vector<ExploreInstance> table_instances(std::uint64_t seed,
                                             std::size_t count) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<ExploreInstance> out;
  dawn::DecisionRequest screen;
  screen.budget.max_configs = kScreenCap;
  while (out.size() < count) {
    const TableSlot& slot =
        kTableSlots[out.size() % std::size(kTableSlots)];
    ExploreInstance inst = table_candidate(rng, slot);
    if (slot.chase) {
      if (mixed_labels(inst.graph)) out.push_back(std::move(inst));
      continue;
    }
    const auto machine = inst.build();
    const auto r = dawn::decide(*machine, inst.graph, screen);
    if (r.unknown_reason == dawn::UnknownReason::ConfigCap) {
      out.push_back(std::move(inst));
    }
  }
  return out;
}

// n labels of which exactly `zeros` are 0 (the rest 1), in seeded order.
std::vector<Label> labels_with_zeros(Rng& rng, int n, int zeros) {
  std::vector<Label> labels(static_cast<std::size_t>(n), 1);
  std::fill_n(labels.begin(), zeros, 0);
  rng.shuffle(labels);
  return labels;
}

// The paper's constructions in a fixed rotation of families, each cycling
// through fixed strata of sizes and label counts; the seed draws the label
// positions, the residues and the exact counts within a stratum. The label
// counts and positions, not just n, set the size of these spaces (the 4-node
// mod pipeline spans 63k to 862k configs over its label counts, and 3 ones
// on a 7-line span 16k to 63k over their positions), so the strata keep
// every op near 150 ms on a 4-core host: ops of similar cost keep the
// median op time inside one cluster of samples rather than in a gap between
// two. Each family's predicate gives the expected verdict.
ExploreInstance compiled_instance(Rng& rng, std::size_t op) {
  ExploreInstance inst;
  inst.compiled = true;
  const int stratum = static_cast<int>(op / 5);
  std::string shape = "clique";
  const auto ring = [&](int n, int zeros, bool cycle) {
    const std::vector<Label> labels = labels_with_zeros(rng, n, zeros);
    shape = cycle ? "cycle" : "line";
    return cycle ? dawn::make_cycle(labels) : dawn::make_line(labels);
  };
  dawn::LabellingPredicate pred;
  switch (op % 5) {
    case 0: {  // majority-pp (Lemma 4.10) on odd cliques: no ties
      const int n = 81 + 4 * (stratum % 3);
      const int zeros = n / 2 + uniform(rng, -5, 6);
      inst.graph = dawn::make_clique(labels_with_zeros(rng, n, zeros));
      inst.build = [] { return dawn::make_majority_daf(0, 1, 2); };
      pred = dawn::pred_majority_gt(0, 1, 2);
      inst.family = "majority-pp";
      break;
    }
    case 1: {  // mod-pp: #0 = r (mod 3) by leader fusion, on cliques
      constexpr int kStrata[][2] = {{12, 6}, {12, 7}, {13, 4}};  // n, zeros
      const auto& [n, zeros] = kStrata[stratum % 3];
      const int r = uniform(rng, 0, 2);
      inst.graph = dawn::make_clique(labels_with_zeros(rng, n, zeros));
      inst.build = [r] { return dawn::make_mod_population_daf(3, r, 0, 2); };
      pred = dawn::pred_mod(0, 3, r, 2);
      inst.family = "mod-pp:3:" + std::to_string(r);
      break;
    }
    case 2: {  // threshold:1:2 (Lemma C.5): at least two 1s
      constexpr int kStrata[][2] = {{7, 3}, {7, 4}, {8, 2}};  // n, ones
      const auto& [n, ones] = kStrata[stratum % 3];
      inst.graph = ring(n, n - ones, true);
      inst.build = [] { return dawn::make_threshold_daf(2, 1, 2); };
      pred = dawn::pred_threshold(1, 2, 2);
      inst.family = "threshold:1:2";
      break;
    }
    case 3: {  // majority:2 (Section 6.1): #0 >= #1 among 5
      inst.graph = ring(5, stratum % 2 == 0 ? 1 : 4, (stratum / 2) % 2 == 0);
      inst.build = [] { return dawn::make_majority_bounded(2).machine; };
      pred = dawn::pred_majority_ge(0, 1, 2);
      inst.family = "majority:2";
      break;
    }
    default: {  // the Lemma 5.1 pipeline for #0 = r (mod 2), on a 4-cycle
      const int r = uniform(rng, 0, 1);
      inst.graph = ring(4, 1, true);
      inst.build = [r] { return dawn::make_mod_counter_daf(2, r, 0, 2).machine; };
      pred = dawn::pred_mod(0, 2, r, 2);
      inst.family = "mod:0:2:" + std::to_string(r);
      break;
    }
  }
  const dawn::LabelCount L = inst.graph.label_count(2);
  inst.expected = pred(L) ? 1 : 0;
  inst.family += "/" + shape + std::to_string(inst.graph.n()) + "/zeros" +
                 std::to_string(L[0]);
  return inst;
}

// The rotation in op order, after a warm-up op whose cost does not depend
// on the seed: majority-pp on a 51-clique with 25 zeros.
std::vector<ExploreInstance> compiled_instances(std::uint64_t seed,
                                                std::size_t count) {
  Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 2);
  std::vector<ExploreInstance> out(1);
  out[0].compiled = true;
  out[0].graph = dawn::make_clique(labels_with_zeros(rng, 51, 25));
  out[0].build = [] { return dawn::make_majority_daf(0, 1, 2); };
  out[0].expected = dawn::pred_majority_gt(0, 1, 2)(out[0].graph.label_count(2)) ? 1 : 0;
  out[0].family = "majority-pp/clique51/zeros25";
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(compiled_instance(rng, i));
  }
  return out;
}

Decision expected_decision(const ExploreInstance& inst) {
  return inst.expected == 1 ? Decision::Accept : Decision::Reject;
}

// Reference check of one report; false (and a failure) on disagreement.
bool check_report(const ExploreInstance& inst, const dawn::DecisionReport& r,
                  RunResult& result) {
  if (r.decision == Decision::Unknown) {
    result.fail(inst.family + ": unknown (" + dawn::to_string(r.unknown_reason) +
                ")");
    return false;
  }
  if (inst.expected >= 0 && r.decision != expected_decision(inst)) {
    result.fail(inst.family + ": decided " + dawn::to_string(r.decision) +
                ", the predicate says " +
                dawn::to_string(expected_decision(inst)));
    return false;
  }
  return true;
}

std::size_t interned_states(const dawn::Machine& m) {
  std::vector<dawn::LayerFootprint> layers;
  m.footprint(layers);
  std::size_t total = 0;
  for (const auto& layer : layers) total += layer.interned_states;
  return total;
}

std::string op_record(const dawn::DecisionReport& r) {
  return std::to_string(r.configs_explored) + "," +
         std::to_string(r.num_bottom_sccs) + "," + dawn::to_string(r.decision) +
         "," + std::to_string(r.memory.total());
}

}  // namespace

Metrics probe_explore(const std::vector<ExploreInstance>& instances,
                      RunResult& result, SpanLog* spans, int parent) {
  using dawn::obs::MemoryAccount;
  ReplayResult table;     // summed layer times over table machines
  ReplayResult compiled;  // ... and over compiled constructions
  double scc_s = 0.0;
  double wall_1 = 0.0;
  double attributed = 0.0;
  std::size_t configs = 0;
  std::size_t replayed_configs = 0;
  std::size_t successors = 0;
  std::size_t bottom_sccs = 0;
  std::size_t states = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t edge_bytes = 0;
  std::uint64_t frontier_peak = 0;
  std::vector<double> speedups;
  bool any_compiled = false;
  for (const ExploreInstance& inst : instances) {
    const SpanScope span(spans, "probe " + inst.family, parent);
    const auto m_all = inst.build();
    auto t0 = Clock::now();
    const dawn::DecisionReport r = dawn::decide(*m_all, inst.graph);
    const double wall_all = seconds_since(t0);
    dawn::DecisionRequest one;
    one.budget.max_threads = 1;
    const auto m_one = inst.build();
    t0 = Clock::now();
    const dawn::DecisionReport r1 = dawn::decide(*m_one, inst.graph, one);
    const double wall_one = seconds_since(t0);
    if (!check_report(inst, r, result)) continue;
    if (!(r1 == r)) {
      result.fail(inst.family + ": report differs between 1 and all threads");
      continue;
    }
    speedups.push_back(wall_one / wall_all);
    configs += r.configs_explored;
    bottom_sccs += r.num_bottom_sccs;
    store_bytes += r.memory.get(MemoryAccount::VectorStoreBytes);
    edge_bytes += r.memory.get(MemoryAccount::EdgeBytes);
    frontier_peak = std::max(frontier_peak, r.memory.get(MemoryAccount::FrontierBytes));
    if (inst.compiled) {
      any_compiled = true;
      states += interned_states(*m_all);
    }
    std::string record = op_record(r);
    if (r.method != dawn::DecideMethod::CountedStar) {
      // No public successor function exists for counted stars; their
      // reports are still checked against decide() at 1 and all threads.
      const auto m_replay = inst.build();
      const ReplayResult rep =
          r.method == dawn::DecideMethod::CountedClique
              ? replay_counted(*m_replay, inst.graph)
              : replay_explicit(*m_replay, inst.graph);
      if (!replay_matches(rep, r)) {
        result.fail(inst.family + ": replay found " +
                    std::to_string(rep.configs) + " configs, " +
                    std::to_string(rep.bottom_sccs) + " bottom SCCs, " +
                    dawn::to_string(rep.decision) + "; decide() reported " +
                    op_record(r));
        continue;
      }
      ReplayResult& sum = inst.compiled ? compiled : table;
      sum.neighbourhood_s += rep.neighbourhood_s;
      sum.neighbourhood_calls += rep.neighbourhood_calls;
      sum.step_s += rep.step_s;
      sum.step_calls += rep.step_calls;
      sum.counted_successor_s += rep.counted_successor_s;
      sum.counted_successor_calls += rep.counted_successor_calls;
      sum.intern_s += rep.intern_s;
      sum.intern_calls += rep.intern_calls;
      scc_s += rep.scc_s;
      replayed_configs += rep.configs;
      successors += rep.successors;
      wall_1 += wall_one;
      attributed += rep.attributed_s();
      record += "," + std::to_string(rep.successors);
    }
    result.records["probe"].push_back(inst.family + ":" + record);
  }

  Metrics m;
  const auto per_call_ns = [](double s, std::size_t calls) {
    return s * 1e9 / static_cast<double>(calls);
  };
  const std::size_t nb_calls = table.neighbourhood_calls + compiled.neighbourhood_calls;
  if (nb_calls > 0) {
    m["automata.neighbourhood_ns"] = {
        per_call_ns(table.neighbourhood_s + compiled.neighbourhood_s, nb_calls), "ns"};
  }
  if (table.step_calls > 0) {
    m["automata.step_ns"] = {per_call_ns(table.step_s, table.step_calls), "ns"};
  }
  if (compiled.step_calls > 0) {
    m["extensions.step_ns"] = {per_call_ns(compiled.step_s, compiled.step_calls), "ns"};
  }
  if (any_compiled) {
    m["extensions.interned_states"] = {static_cast<double>(states), "count"};
  }
  const std::size_t intern_calls = table.intern_calls + compiled.intern_calls;
  if (intern_calls > 0) {
    m["semantics.intern_ns"] = {
        per_call_ns(table.intern_s + compiled.intern_s, intern_calls), "ns"};
    m["semantics.scc_ns_per_config"] = {per_call_ns(scc_s, replayed_configs), "ns"};
    m["automata.successors_per_config"] = {
        static_cast<double>(successors) / static_cast<double>(replayed_configs),
        "count"};
    m["semantics.unattributed_frac"] = {1.0 - attributed / wall_1, "ratio"};
  }
  const std::size_t counted_calls =
      table.counted_successor_calls + compiled.counted_successor_calls;
  if (counted_calls > 0) {
    m["semantics.counted_successor_ns"] = {
        per_call_ns(table.counted_successor_s + compiled.counted_successor_s,
                    counted_calls),
        "ns"};
  }
  if (configs > 0) {
    m["semantics.store_bytes_per_config"] = {
        static_cast<double>(store_bytes) / static_cast<double>(configs), "B/config"};
    m["semantics.edge_bytes_per_config"] = {
        static_cast<double>(edge_bytes) / static_cast<double>(configs), "B/config"};
    m["semantics.frontier_peak_mb"] = {
        static_cast<double>(frontier_peak) / (1024.0 * 1024.0), "MiB"};
    m["semantics.thread_speedup"] = {median(speedups), "x"};
  }
  Json& c = result.counts;
  const auto add = [&c](const char* key, std::uint64_t v) {
    const Json* old = c.get(key);
    c.set(key, Json(v + (old != nullptr ? static_cast<std::uint64_t>(old->as_int()) : 0)));
  };
  add("probe_configs", configs);
  add("probe_successors", successors);
  add("probe_bottom_sccs", bottom_sccs);
  add("probe_interned_states", states);
  add("probe_ledger_bytes", store_bytes + edge_bytes + frontier_peak);
  return m;
}

std::vector<ExploreInstance> explore_standins(std::uint64_t seed) {
  Rng rng(seed * 0x94d049bb133111ebULL + 3);
  std::vector<ExploreInstance> out;
  // A table machine on an 8-cycle.
  {
    ExploreInstance inst;
    dawn::fuzz::MachineGenOptions opts;
    opts.min_states = 4;
    opts.max_states = 4;
    opts.max_labels = 2;
    const auto spec = dawn::fuzz::gen_machine(rng, opts);
    inst.build = [spec] { return dawn::fuzz::build_machine(spec); };
    inst.graph = dawn::make_cycle(random_labels(rng, 8, spec.num_labels));
    inst.family = "standin-fuzz-" + spec.cls.name() + "/cycle8";
    out.push_back(std::move(inst));
  }
  // Compiled: threshold:1:2 on a 6-cycle and majority-pp on a 31-clique.
  {
    ExploreInstance inst;
    inst.compiled = true;
    inst.graph = dawn::make_cycle(random_labels(rng, 6, 2));
    inst.build = [] { return dawn::make_threshold_daf(2, 1, 2); };
    inst.expected = dawn::pred_threshold(1, 2, 2)(inst.graph.label_count(2)) ? 1 : 0;
    inst.family = "standin-threshold:1:2/cycle6";
    out.push_back(std::move(inst));
  }
  {
    ExploreInstance inst;
    inst.compiled = true;
    inst.graph = dawn::make_clique(random_labels(rng, 31, 2));
    inst.build = [] { return dawn::make_majority_daf(0, 1, 2); };
    inst.expected = dawn::pred_majority_gt(0, 1, 2)(inst.graph.label_count(2)) ? 1 : 0;
    inst.family = "standin-majority-pp/clique31";
    out.push_back(std::move(inst));
  }
  return out;
}

int selftest_explore() {
  int bad = 0;
  const auto expect = [&bad](bool ok, const char* what) {
    std::fprintf(stderr, "selftest %s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++bad;
  };
  const std::vector<ExploreInstance> standins = explore_standins(1);
  for (const ExploreInstance& inst : {standins[1], standins[2]}) {
    const auto machine = inst.build();
    const dawn::DecisionReport r = dawn::decide(*machine, inst.graph);
    RunResult right;
    expect(check_report(inst, r, right) && right.correct,
           "the predicate's verdict passes");
    ExploreInstance flipped = inst;
    flipped.expected = 1 - inst.expected;
    RunResult wrong;
    expect(!check_report(flipped, r, wrong) && !wrong.correct,
           "a verdict against the predicate fails");
    dawn::DecisionReport unknown = r;
    unknown.decision = Decision::Unknown;
    unknown.unknown_reason = dawn::UnknownReason::ConfigCap;
    RunResult capped;
    expect(!check_report(inst, unknown, capped), "an unknown report fails");
    const auto fresh = inst.build();
    const ReplayResult rep = r.method == dawn::DecideMethod::CountedClique
                                 ? replay_counted(*fresh, inst.graph)
                                 : replay_explicit(*fresh, inst.graph);
    expect(replay_matches(rep, r), "the replay reproduces the report");
    dawn::DecisionReport w = r;
    w.num_bottom_sccs += 1;
    expect(!replay_matches(rep, w), "a wrong bottom-SCC count fails");
    w = r;
    w.configs_explored -= 1;
    expect(!replay_matches(rep, w), "a wrong config count fails");
    w = r;
    w.decision = r.decision == Decision::Accept ? Decision::Reject : Decision::Accept;
    expect(!replay_matches(rep, w), "a wrong decision fails");
  }
  return bad;
}

RunResult run_explore(const Args& args, bool compiled) {
  RunResult result;
  SpanLog log;
  SpanLog* spans = args.trace ? &log : nullptr;

  // Set-up: inputs (with the screen), fresh machines and one warm-up op.
  double setup_s = 0.0;
  const std::function<std::vector<ExploreInstance>()> setup = [&] {
    std::vector<ExploreInstance> set =
        compiled ? compiled_instances(args.seed, 1000)
                 : table_instances(args.seed, kTableInstances);
    const auto warm = set.front().build();
    (void)dawn::decide(*warm, set.front().graph);
    return set;
  };
  const std::vector<ExploreInstance> instances =
      timed_setup(setup, &setup_s);

  // Timed loop: every instance after the warm-up one, at most once.
  std::vector<double> walls;
  std::size_t configs = 0;
  double wall_sum = 0.0;
  const auto start = Clock::now();
  for (std::size_t i = 1; i < instances.size(); ++i) {
    if (seconds_since(start) >= args.seconds) break;
    const ExploreInstance& inst = instances[i];
    const SpanScope span(spans, "decide " + inst.family);
    const auto machine = inst.build();
    const auto t0 = Clock::now();
    const dawn::DecisionReport r = dawn::decide(*machine, inst.graph);
    const double wall = seconds_since(t0);
    ++result.attempted;
    if (!check_report(inst, r, result)) continue;
    walls.push_back(wall);
    wall_sum += wall;
    configs += r.configs_explored;
    result.records["ops"].push_back(op_record(r));
  }
  if (result.attempted + 1 >= instances.size()) {
    std::fprintf(stderr, "perfbench: all %zu instances ran before the clock\n",
                 instances.size());
  }

  const double rate = wall_sum > 0 ? static_cast<double>(configs) / wall_sum : 0.0;
  const double p50_ms = median(walls) * 1e3;
  Json& s = result.summary;
  s.set("configs_per_s", Json(rate));
  s.set("decide_ms_p50", Json(p50_ms));
  s.set("decides", Json(static_cast<std::uint64_t>(walls.size())));
  s.set("configs", Json(static_cast<std::uint64_t>(configs)));
  // With tens of decides a run, the median is the highest percentile with
  // ten samples beyond it.
  set_end_to_end(result, setup_s, rate, p50_ms, p50_ms);

  if (args.trace) {
    result.summary.set("end_to_end", metrics_json(result.metrics));
    const SpanScope root(spans, "layer probes");
    const std::size_t probes = compiled ? kCompiledProbes : kTableProbes;
    const std::vector<ExploreInstance> subset(
        instances.begin() + 1,
        instances.begin() + static_cast<std::ptrdiff_t>(
                                std::min(instances.size(), probes + 1)));
    Metrics layers = probe_explore(subset, result, spans, root.id());
    fill_with_standins(args.seed, layers, result, spans, root.id());
    result.metrics = layers;
  }
  if (spans != nullptr && !args.spans_path.empty()) {
    log.write_chrome(args.spans_path);
  }
  return result;
}

}  // namespace perfbench
