// The distributed machine model of Section 2.1.
//
// A machine M = (Q, δ0, δ, Y, N) with counting bound β runs on a labelled
// graph: each node starts in δ0(label) and, when selected, moves to
// δ(state, neighbourhood), where the neighbourhood reports the number of
// neighbours in each state *capped at β*. Y and N are realised as a verdict
// function (accepting / rejecting / neutral).
//
// States are dense int32 ids local to a machine. Compiled machines (the
// Section 4 simulations) intern structured states lazily, so `step` may
// create new ids; state ids are stable once created, but which id a state
// gets may depend on the order in which threads first reach it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dawn/automata/neighbourhood.hpp"
#include "dawn/graph/graph.hpp"

namespace dawn {

using State = std::int32_t;

enum class Verdict : std::uint8_t { Accept, Reject, Neutral };

// Footprint of one lazily-interning compilation layer: how many structured
// states the layer has materialised so far. Compiled machines report one
// entry per layer (inner layers first), so a deep stack like the Section 6.1
// automaton exposes the growth of every level to the observability layer
// (trace/census.hpp, obs/metrics.hpp).
struct LayerFootprint {
  std::string layer;
  std::size_t interned_states = 0;
};

class Machine {
 public:
  virtual ~Machine() = default;

  // Counting bound β >= 1. β = 1 is the non-counting ("d") case: a node only
  // detects presence/absence of each state among its neighbours.
  virtual int beta() const = 0;

  // Size of the input alphabet Λ; labels are [0, num_labels).
  virtual int num_labels() const = 0;

  // δ0: initial state for a node with the given label.
  virtual State init(Label label) const = 0;

  // δ: neighbourhood transition. The engine guarantees that `n` was built
  // with this machine's β. Must be deterministic.
  virtual State step(State state, const Neighbourhood& n) const = 0;

  // Y/N membership. Acceptance is by stable consensus: a run accepts if from
  // some point on every node's verdict is Accept (Section 2.1).
  virtual Verdict verdict(State state) const = 0;

  // The committed (non-intermediate) state this state represents. Identity
  // for plain machines; compiled simulations map their intermediate states
  // to the simulated machine's state (the `last` mapping of Section 6.1 /
  // Lemma 4.4). Note: the returned id belongs to THIS machine's id space.
  virtual State committed(State state) const { return state; }

  virtual bool is_intermediate(State state) const {
    return committed(state) != state;
  }

  // Total number of states if the machine is explicitly enumerable (needed
  // by the symbolic engine); nullopt for lazily-interned machines.
  virtual std::optional<int> num_states() const { return std::nullopt; }

  // Whether step()/verdict()/committed() may be called concurrently from
  // several threads on this one instance. The parallel exploration engines
  // clamp machines that say no to one worker, and the default is false.
  // Pure machines (FunctionMachine with side-effect-free callables) and
  // the compiled layers say yes: their lazy interning goes through the
  // concurrent util/interner.hpp, and a wrapper is safe when every machine
  // it wraps is. Concurrent steps may then hand out state ids in any
  // order. MemoizedMachine's unsynchronised caches keep it at false.
  virtual bool parallel_step_safe() const { return false; }

  // Debug name of a state.
  virtual std::string state_name(State state) const;

  // Appends one LayerFootprint per lazily-interning compilation layer, inner
  // layers first. Plain machines append nothing; wrappers delegate to their
  // inner machine and then report their own interner.
  virtual void footprint(std::vector<LayerFootprint>& out) const {
    (void)out;
  }
};

// A machine assembled from callables; the workhorse for hand-written
// automata (P_cancel, the flooding automaton, test fixtures). The callables
// must be pure (no shared mutable state): FunctionMachine advertises
// parallel_step_safe(), so the parallel deciders will call them from many
// threads at once.
class FunctionMachine : public Machine {
 public:
  struct Spec {
    int beta = 1;
    int num_labels = 1;
    // If >= 0, the machine is enumerable with states [0, num_states).
    int num_states = -1;
    std::function<State(Label)> init;
    std::function<State(State, const Neighbourhood&)> step;
    std::function<Verdict(State)> verdict;
    std::function<std::string(State)> name;  // optional
  };

  explicit FunctionMachine(Spec spec);

  int beta() const override { return spec_.beta; }
  int num_labels() const override { return spec_.num_labels; }
  State init(Label label) const override;
  State step(State state, const Neighbourhood& n) const override;
  Verdict verdict(State state) const override { return spec_.verdict(state); }
  std::optional<int> num_states() const override;
  std::string state_name(State state) const override;
  bool parallel_step_safe() const override { return true; }

 private:
  Spec spec_;
};

}  // namespace dawn
