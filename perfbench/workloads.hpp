// What the workload files share with each other and with main.cpp: the
// layer probes each workload runs on its own inputs, and the stand-in
// inputs that cover the layers a workload does not exercise.
//
// Every traced run prints every per-layer metric. A metric whose layer the
// workload does not exercise is measured on a small stand-in input built
// from the same seed, so its value is a control that the workload's own
// changes should leave flat.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "dawn/automata/machine.hpp"
#include "dawn/graph/graph.hpp"

namespace perfbench {

// One decide() input. Each op builds a fresh machine, as the CLI and dawnd
// do for every decision.
struct ExploreInstance {
  std::string family;
  std::function<std::shared_ptr<const dawn::Machine>()> build;
  dawn::Graph graph;
  int expected = -1;  // the predicate's answer (1 accept, 0 reject); -1 none
  bool compiled = false;
};

// Replays each instance through the layer functions and checks the replay
// against decide(). Metrics a list does not cover are left out.
Metrics probe_explore(const std::vector<ExploreInstance>& instances,
                      RunResult& result, SpanLog* spans, int parent);

// Small seeded inputs for every layer: explicit table and compiled
// instances, a counted clique, a trials battery and a dawnd exchange.
std::vector<ExploreInstance> explore_standins(std::uint64_t seed);
Metrics probe_trials_standin(std::uint64_t seed, RunResult& result,
                             SpanLog* spans, int parent);
Metrics probe_net_standin(std::uint64_t seed, RunResult& result,
                          SpanLog* spans, int parent);

// Self-tests of the reference checks: each feeds a check a right answer
// (which must pass) and deliberately wrong ones (which must fail). Each
// returns the number of checks that misbehaved.
int selftest_explore();
int selftest_trials();
int selftest_service();

// Adds every metric of `extra` whose name `into` does not have yet.
void fill_missing(Metrics& into, const Metrics& extra);

// The stand-in probes for the layers `have` does not cover yet.
void fill_with_standins(std::uint64_t seed, Metrics& have, RunResult& result,
                        SpanLog* spans, int parent);

}  // namespace perfbench
