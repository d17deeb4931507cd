// E2 — Figure 1 (right): decision power on bounded-degree graphs.
//
// The shape to reproduce: on degree-<=k graphs the class DAf jumps from
// Cutoff(1) to (at least) all homogeneous threshold predicates — in
// particular majority under *adversarial* scheduling — while dAf stays at
// Cutoff(1) (Proposition D.1's argument is executed concretely: a dAf
// automaton cannot tell a line from the line with one end-label duplicated).
#include <cstdio>
#include <string>

#include "dawn/graph/generators.hpp"
#include "dawn/obs/export.hpp"
#include "dawn/props/classes.hpp"
#include "dawn/props/predicates.hpp"
#include "dawn/protocols/exists_label.hpp"
#include "dawn/protocols/majority_bounded.hpp"
#include "dawn/sched/scheduler.hpp"
#include "dawn/semantics/simulate.hpp"
#include "dawn/semantics/sync_run.hpp"
#include "dawn/semantics/trials.hpp"
#include "dawn/util/table.hpp"

int main(int argc, char** argv) {
  using namespace dawn;
  const bool smoke = obs::smoke_mode(argc, argv);
  std::printf(
      "E2 / Figure 1 (bounded degree): DAf decides majority adversarially\n"
      "===================================================================\n\n");
  const std::uint64_t max_steps = smoke ? 2'000'000 : 30'000'000;
  const std::uint64_t stable_window = smoke ? 50'000 : 300'000;

  // --- DAf majority (Section 6.1) across degree-bounded inputs and the
  // --- full adversary battery. Every cell must match #a >= #b.
  const auto pred = pred_majority_ge(0, 1, 2);
  struct Input {
    std::string name;
    Graph graph;
    int k;
  };
  Rng rng(5);
  std::vector<Input> inputs;
  inputs.push_back({"cycle 2v1", make_cycle({0, 0, 1}), 2});
  inputs.push_back({"cycle 2v3", make_cycle({0, 1, 1, 0, 1}), 2});
  inputs.push_back({"cycle tie 3v3", make_cycle({0, 1, 0, 1, 0, 1}), 2});
  inputs.push_back({"line 3v2", make_line({0, 0, 1, 1, 0}), 2});
  inputs.push_back({"grid 5v4", make_grid(3, 3, {0, 1, 0, 1, 0, 1, 0, 1, 0}), 4});
  inputs.push_back(
      {"random-deg3 4v4",
       make_random_bounded_degree({0, 0, 0, 0, 1, 1, 1, 1}, 3, 4, rng), 3});

  // Every (input × scheduler) cell is an independent long simulation; fan
  // them across the trial runner's thread pool. Each job owns its machine
  // (so its interner metrics are its own) and its scheduler; results come
  // back in cell order.
  const std::size_t num_scheds = make_adversary_battery(17).size();
  std::vector<std::function<SimulateResult()>> jobs;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (std::size_t s = 0; s < num_scheds; ++s) {
      jobs.push_back([&inputs, i, s, max_steps, stable_window] {
        const auto& input = inputs[i];
        const auto aut = make_majority_bounded(input.k);
        auto sched = std::move(make_adversary_battery(17)[s]);
        SimulateOptions opts;
        opts.max_steps = max_steps;
        opts.stable_window = stable_window;
        opts.collect_metrics = true;
        return simulate(*aut.machine, input.graph, *sched, opts);
      });
    }
  }
  const auto results = run_jobs(std::move(jobs));

  Table t({"input", "expected", "synchronous", "round-robin", "starvation",
           "greedy", "permutation", "random"});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& input = inputs[i];
    const bool expected = pred(input.graph.label_count(2));
    std::vector<std::string> row{input.name, expected ? "accept" : "reject"};
    for (std::size_t s = 0; s < num_scheds; ++s) {
      const auto& r = results[i * num_scheds + s];
      std::string cell = r.verdict == Verdict::Accept ? "accept" : "reject";
      if (!r.converged) cell += "!?";
      if ((r.verdict == Verdict::Accept) != expected) cell += " WRONG";
      row.push_back(cell + " @" + std::to_string(r.convergence_step));
    }
    t.add_row(row);
  }
  t.print();

  // --- dAf stays Cutoff(1): Proposition D.1's concrete argument. A dAf
  // --- automaton runs identically (through the synchronous run) on a line
  // --- labelled L·x and on the line with the end label duplicated.
  std::printf(
      "\ndAf stays Cutoff(1) (Prop. D.1): duplicating an end label of a line"
      "\nis invisible to a non-counting automaton's synchronous run:\n");
  const auto exists = make_exists_label(1, 2);
  Table t2({"line labels", "verdict", "line + duplicated end", "verdict",
            "equal"});
  const std::vector<std::vector<Label>> lines = {
      {1, 0, 0}, {0, 0, 0}, {1, 1, 0, 0}, {0, 1, 0}};
  for (const auto& labels : lines) {
    std::vector<Label> extended = labels;
    extended.insert(extended.begin(), labels.front());
    const auto a = decide_synchronous(*exists, make_line(labels)).decision;
    const auto b = decide_synchronous(*exists, make_line(extended)).decision;
    std::string l1, l2;
    for (Label l : labels) l1 += std::to_string(l);
    for (Label l : extended) l2 += std::to_string(l);
    t2.add_row({l1, to_string(a), l2, to_string(b),
                a == b ? "yes" : "NO (?!)"});
  }
  t2.print();
  std::printf(
      "\nshape check vs paper: majority decided by DAf under every adversary"
      "\non bounded degree; impossible for it on arbitrary graphs (E1).\n");

  obs::BenchReport report("fig1_bounded", smoke);
  report.meta("max_steps", obs::JsonValue(max_steps));
  report.meta("stable_window", obs::JsonValue(stable_window));
  const auto battery = make_adversary_battery(17);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const bool expected = pred(inputs[i].graph.label_count(2));
    for (std::size_t s = 0; s < num_scheds; ++s) {
      const auto& r = results[i * num_scheds + s];
      obs::JsonValue& row = report.add_row();
      row.set("input", obs::JsonValue(inputs[i].name));
      row.set("scheduler", obs::JsonValue(battery[s]->name()));
      row.set("expected", obs::JsonValue(expected));
      row.set("accepted", obs::JsonValue(r.verdict == Verdict::Accept));
      row.set("converged", obs::JsonValue(r.converged));
      row.set("convergence_step", obs::JsonValue(r.convergence_step));
      report.add_metrics(row, r.metrics);
    }
  }
  const std::string path = report.write();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  return 0;
}
