// The trials workload: run_trials with the TrialOptions defaults on a
// seeded n=1000 degree-<=3 graph. Two batteries take the batched SoA path
// (the gossip machine under random-exclusive and under round-robin) and one
// the scalar path (majority:3, a compiled Section 6.1 machine, under
// random-exclusive). Every trial runs its full step budget, so the work per
// battery is fixed and the measurement is stepping throughput.
#include <cstdio>

#include "dawn/graph/generators.hpp"
#include "dawn/protocols/majority_bounded.hpp"
#include "dawn/sched/scheduler.hpp"
#include "dawn/semantics/batched_trials.hpp"
#include "dawn/semantics/trials.hpp"
#include "dawn/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dawn::MachineFactory;
using dawn::SchedulerFactory;
using dawn::TrialBatch;
using dawn::TrialOptions;

// Mostly-silent transitions with a verdict on every state (as in
// bench_batched_trials), so trials never settle early.
MachineFactory gossip_factory() {
  return [] {
    dawn::FunctionMachine::Spec spec;
    spec.beta = 3;
    spec.num_labels = 2;
    spec.num_states = 4;
    spec.init = [](dawn::Label l) { return static_cast<dawn::State>(l); };
    spec.step = [](dawn::State s, const dawn::Neighbourhood& n) {
      const int ones = n.sum([](dawn::State q) { return q % 2 == 1; });
      if (ones > n.beta() / 2 && s % 2 == 0) return static_cast<dawn::State>(s + 1);
      if (ones == 0 && s % 2 == 1) return static_cast<dawn::State>(s - 1);
      return s;
    };
    spec.verdict = [](dawn::State s) {
      return s % 2 == 1 ? dawn::Verdict::Accept : dawn::Verdict::Reject;
    };
    return std::make_shared<dawn::FunctionMachine>(spec);
  };
}

MachineFactory majority3_factory() {
  return [] { return dawn::make_majority_bounded(3).machine; };
}

SchedulerFactory exclusive() {
  return [](std::uint64_t seed) {
    return std::make_unique<dawn::RandomExclusiveScheduler>(seed);
  };
}

SchedulerFactory round_robin() {
  return [](std::uint64_t) { return std::make_unique<dawn::RoundRobinScheduler>(); };
}

struct Battery {
  std::string name;
  MachineFactory machine;
  SchedulerFactory scheduler;
  int trials = 0;
  std::uint64_t steps = 0;  // per trial
};

struct TrialsInputs {
  dawn::Graph graph;
  std::vector<Battery> rotation;
};

// The batched batteries together and the scalar one each take about half
// of a pass on a 4-core AVX2 host.
TrialsInputs make_inputs(std::uint64_t seed, int n, double scale) {
  dawn::Rng rng(seed * 0xd1342543de82ef95ULL + 5);
  std::vector<dawn::Label> labels(static_cast<std::size_t>(n));
  for (auto& l : labels) l = rng.chance(0.5) ? 1 : 0;
  TrialsInputs in;
  in.graph = dawn::make_random_bounded_degree(labels, 3, n / 2, rng);
  const auto steps = [scale](double s) {
    return static_cast<std::uint64_t>(s * scale);
  };
  in.rotation = {
      {"gossip/random-exclusive", gossip_factory(), exclusive(), 256, steps(60'000)},
      {"gossip/round-robin", gossip_factory(), round_robin(), 256, steps(120'000)},
      {"majority:3/random-exclusive", majority3_factory(), exclusive(), 32, steps(16'000)},
  };
  return in;
}

TrialOptions options_for(const Battery& b, std::uint64_t base_seed) {
  TrialOptions opts;
  opts.num_trials = b.trials;
  opts.base_seed = base_seed;
  opts.sim.max_steps = b.steps;
  opts.sim.stable_window = b.steps + 1;  // never reached: full budget
  return opts;
}

std::uint64_t total_steps(const std::vector<dawn::TrialOutcome>& outcomes) {
  std::uint64_t steps = 0;
  for (const auto& o : outcomes) steps += o.result.total_steps;
  return steps;
}

// Every trial must run its whole budget without settling.
bool check_battery(const Battery& b, const std::vector<dawn::TrialOutcome>& out,
                   RunResult& result) {
  if (out.size() != static_cast<std::size_t>(b.trials)) {
    result.fail(b.name + ": " + std::to_string(out.size()) + " outcomes for " +
                std::to_string(b.trials) + " trials");
    return false;
  }
  for (const auto& o : out) {
    if (o.result.total_steps != b.steps || o.result.converged) {
      result.fail(b.name + ": trial " + std::to_string(o.trial) + " ran " +
                  std::to_string(o.result.total_steps) + " of " +
                  std::to_string(b.steps) + " steps");
      return false;
    }
  }
  return true;
}

bool same_outcomes(const std::vector<dawn::TrialOutcome>& a,
                   const std::vector<dawn::TrialOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].trial != b[i].trial || a[i].seed != b[i].seed ||
        !(a[i].result == b[i].result)) {
      return false;
    }
  }
  const dawn::TrialSummary sa = dawn::summarize(a);
  const dawn::TrialSummary sb = dawn::summarize(b);
  return sa.num_trials == sb.num_trials && sa.converged == sb.converged &&
         sa.accepted == sb.accepted && sa.rejected == sb.rejected &&
         sa.mean_convergence_step == sb.mean_convergence_step &&
         sa.max_total_steps == sb.max_total_steps;
}

std::string outcome_record(const std::vector<dawn::TrialOutcome>& out) {
  const dawn::TrialSummary s = dawn::summarize(out);
  return std::to_string(total_steps(out)) + "," + std::to_string(s.converged) +
         "," + std::to_string(s.accepted) + "," + std::to_string(s.rejected);
}

double ns_per(double seconds, std::uint64_t count) {
  return seconds * 1e9 / static_cast<double>(count);
}

// Layer probes on the workload's graph and its gossip battery: the batched
// and scalar engines on one sub-battery (whose outcomes must agree), the
// scheduler's select_into and the RNG's draw + Lemire reduction.
Metrics probe_trials(const TrialsInputs& in, std::uint64_t seed,
                     RunResult& result, SpanLog* spans, int parent) {
  Metrics m;
  const dawn::Graph& g = in.graph;
  {
    const SpanScope span(spans, "probe batched vs scalar", parent);
    Battery sub = in.rotation.front();
    sub.trials = 64;
    sub.steps = 20'000;
    TrialOptions opts = options_for(sub, seed);
    opts.batch = TrialBatch::Force;
    auto t0 = Clock::now();
    const auto batched = dawn::run_trials(sub.machine, g, sub.scheduler, opts);
    const double batched_s = seconds_since(t0);
    opts.batch = TrialBatch::Off;
    t0 = Clock::now();
    const auto scalar = dawn::run_trials(sub.machine, g, sub.scheduler, opts);
    const double scalar_s = seconds_since(t0);
    if (!same_outcomes(batched, scalar)) {
      result.fail("trials: batched and scalar outcomes differ on " + sub.name);
    }
    m["semantics.batched_lane_step_ns"] = {ns_per(batched_s, total_steps(batched)), "ns"};
    m["semantics.scalar_step_ns"] = {ns_per(scalar_s, total_steps(scalar)), "ns"};
    result.counts.set("probe_lane_steps", Json(total_steps(batched)));
    result.records["probe"].push_back(outcome_record(batched));
  }
  {
    std::uint64_t batched_trials = 0;
    std::uint64_t trials = 0;
    for (const Battery& b : in.rotation) {
      const TrialOptions opts = options_for(b, seed);
      if (dawn::batched_trials_disqualifier(b.machine, g, b.scheduler, opts).empty()) {
        batched_trials += static_cast<std::uint64_t>(b.trials);
      }
      trials += static_cast<std::uint64_t>(b.trials);
    }
    m["semantics.batched_trial_frac"] = {
        static_cast<double>(batched_trials) / static_cast<double>(trials), "ratio"};
  }
  {
    const SpanScope span(spans, "probe select_into", parent);
    const auto machine = in.rotation.front().machine();
    dawn::RandomExclusiveScheduler sched(seed);
    const dawn::Config config = dawn::initial_config(*machine, g);
    dawn::Selection sel;
    constexpr std::uint64_t kCalls = 2'000'000;
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      sched.select_into(g, *machine, config, i, sel);
      sink += static_cast<std::uint64_t>(sel.front());
    }
    m["sched.select_ns"] = {ns_per(seconds_since(t0), kCalls), "ns"};
    result.records["probe"].push_back("select:" + std::to_string(sink));
  }
  {
    const SpanScope span(spans, "probe rng", parent);
    dawn::Rng rng(seed);
    constexpr std::size_t kBatch = 4096;
    constexpr int kRounds = 512;
    std::vector<std::uint64_t> raw(kBatch);
    std::vector<std::uint32_t> idx(kBatch);
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
      for (auto& r : raw) r = rng.next_raw();
      dawn::Rng::index_batch(raw.data(), kBatch,
                             static_cast<std::size_t>(g.n()), idx.data());
      sink += idx[static_cast<std::size_t>(round) % kBatch];
    }
    m["util.rng_draw_ns"] = {ns_per(seconds_since(t0), kBatch * kRounds), "ns"};
    result.records["probe"].push_back("rng:" + std::to_string(sink));
  }
  return m;
}

}  // namespace

Metrics probe_trials_standin(std::uint64_t seed, RunResult& result,
                             SpanLog* spans, int parent) {
  return probe_trials(make_inputs(seed, 200, 0.1), seed, result, spans, parent);
}

int selftest_trials() {
  int bad = 0;
  const auto expect = [&bad](bool ok, const char* what) {
    std::fprintf(stderr, "selftest %s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++bad;
  };
  const TrialsInputs in = make_inputs(1, 100, 0.01);
  Battery b = in.rotation.front();
  b.trials = 16;
  b.steps = 1'000;
  TrialOptions opts = options_for(b, 1);
  opts.batch = TrialBatch::Force;
  const auto batched = dawn::run_trials(b.machine, in.graph, b.scheduler, opts);
  opts.batch = TrialBatch::Off;
  const auto scalar = dawn::run_trials(b.machine, in.graph, b.scheduler, opts);
  expect(same_outcomes(batched, scalar), "batched and scalar outcomes agree");
  auto skewed = scalar;
  skewed.back().result.total_steps -= 1;
  expect(!same_outcomes(batched, skewed), "a differing trial is caught");
  skewed = scalar;
  skewed.front().result.verdict = dawn::Verdict::Accept;
  skewed.front().result.converged = !skewed.front().result.converged;
  expect(!same_outcomes(batched, skewed), "a differing verdict is caught");
  RunResult right;
  expect(check_battery(b, batched, right), "a full-budget battery passes");
  Battery longer = b;
  longer.steps += 1;
  RunResult wrong;
  expect(!check_battery(longer, batched, wrong) && !wrong.correct,
         "a battery short of its budget fails");
  return bad;
}

RunResult run_trials(const Args& args) {
  RunResult result;
  SpanLog log;
  SpanLog* spans = args.trace ? &log : nullptr;

  double setup_s = 0.0;
  const std::function<TrialsInputs()> setup = [&] {
    TrialsInputs in = make_inputs(args.seed, 1000, 1.0);
    const Battery& warm = in.rotation.front();
    (void)dawn::run_trials(warm.machine, in.graph, warm.scheduler,
                           options_for(warm, args.seed));
    return in;
  };
  const TrialsInputs in = timed_setup(setup, &setup_s);

  std::vector<double> walls;
  std::uint64_t steps = 0;
  double wall_sum = 0.0;
  const auto start = Clock::now();
  for (std::uint64_t op = 0; seconds_since(start) < args.seconds; ++op) {
    const Battery& b = in.rotation[op % in.rotation.size()];
    const SpanScope span(spans, "battery " + b.name);
    const TrialOptions opts = options_for(b, args.seed * 1'000'003 + op);
    const auto t0 = Clock::now();
    const auto out = dawn::run_trials(b.machine, in.graph, b.scheduler, opts);
    const double wall = seconds_since(t0);
    ++result.attempted;
    if (!check_battery(b, out, result)) continue;
    walls.push_back(wall);
    wall_sum += wall;
    steps += total_steps(out);
    result.records["ops"].push_back(outcome_record(out));
  }

  const double rate = wall_sum > 0 ? static_cast<double>(steps) / wall_sum : 0.0;
  const double p50_ms = median(walls) * 1e3;
  Json& s = result.summary;
  s.set("trial_steps_per_s", Json(rate));
  s.set("battery_ms_p50", Json(p50_ms));
  s.set("batteries", Json(static_cast<std::uint64_t>(walls.size())));
  s.set("lane_steps", Json(steps));
  // About 200 batteries a run: p90 has ten samples beyond it.
  set_end_to_end(result, setup_s, rate, p50_ms, quantile(walls, 0.9) * 1e3);

  if (args.trace) {
    result.summary.set("end_to_end", metrics_json(result.metrics));
    const SpanScope root(spans, "layer probes");
    Metrics layers = probe_trials(in, args.seed, result, spans, root.id());
    fill_with_standins(args.seed, layers, result, spans, root.id());
    result.metrics = layers;
  }
  if (spans != nullptr && !args.spans_path.empty()) {
    log.write_chrome(args.spans_path);
  }
  return result;
}

}  // namespace perfbench
