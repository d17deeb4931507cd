// Weak broadcasts (Section 4.1) and the three-phase compiler of Lemma 4.7.
//
// A machine with weak broadcasts extends a distributed machine with
// broadcast transitions q ↦ q', f: an *initiator* in state q moves to q' and
// sends a signal; every other agent receives exactly one signal from some
// initiator of the same broadcast round and applies its response function f.
//
// `BroadcastOverlay` is the abstraction: an inner machine (the neighbourhood
// part — possibly itself a compiled simulation, which is how the Section 6.1
// stack layers broadcasts over an absence-detection simulation) plus
// initiate/respond callbacks. Response functions are identified by dense ids
// so the compiler can store "which broadcast am I relaying" in a state.
//
// `compile_weak_broadcast` produces a plain machine implementing the
// construction in the proof of Lemma 4.7: three phases 0/1/2; an agent moves
// to the next phase (mod 3) only when no neighbour is in its previous phase;
// phase-1 states carry the response id so neighbours can join the same
// broadcast (the α-synchroniser-style wave). The compiled machine has the
// same counting bound as the inner machine, so a dAF overlay compiles to a
// dAF automaton and a DAF overlay to a DAF automaton ("of the same class").
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dawn/automata/machine.hpp"
#include "dawn/util/hash.hpp"
#include "dawn/util/interner.hpp"

namespace dawn {

class BroadcastOverlay {
 public:
  virtual ~BroadcastOverlay() = default;

  // The neighbourhood-transition part (states, δ, β).
  virtual const Machine& inner() const = 0;

  virtual int num_labels() const = 0;

  // δ0 of the overlay (may differ from the inner machine's init).
  virtual State init(Label label) const = 0;

  virtual int num_responses() const = 0;

  // If `state` is broadcast-initiating, the (successor state, response id)
  // of its broadcast; nullopt otherwise. Must be consistent: initiating
  // states never take neighbourhood transitions (Definition 4.5).
  virtual std::optional<std::pair<State, int>> initiate(State state) const = 0;

  // The response function of broadcast `response`, applied to a receiver in
  // `state`. Receivers are always committed (phase-0) states of the inner
  // machine.
  virtual State respond(int response, State state) const = 0;

  // Y/N of the overlay, evaluated on inner states.
  virtual Verdict verdict(State state) const = 0;

  virtual std::string response_name(int response) const;
};

// An overlay given by an explicit broadcast table over a plain machine.
class SimpleBroadcastOverlay : public BroadcastOverlay {
 public:
  struct Broadcast {
    State from = 0;
    State to = 0;
    std::function<State(State)> respond;
    std::string name;
  };

  struct Spec {
    std::shared_ptr<const Machine> machine;
    int num_labels = 1;
    std::function<State(Label)> init;          // defaults to machine->init
    std::vector<Broadcast> broadcasts;         // at most one per `from` state
    std::function<Verdict(State)> verdict;     // defaults to machine->verdict
  };

  explicit SimpleBroadcastOverlay(Spec spec);

  const Machine& inner() const override { return *spec_.machine; }
  int num_labels() const override { return spec_.num_labels; }
  State init(Label label) const override;
  int num_responses() const override {
    return static_cast<int>(spec_.broadcasts.size());
  }
  std::optional<std::pair<State, int>> initiate(State state) const override;
  State respond(int response, State state) const override;
  Verdict verdict(State state) const override;
  std::string response_name(int response) const override;

 private:
  Spec spec_;
};

// The Lemma 4.7 compilation. The returned machine exposes phase inspection
// so the simulation-relation tests can project runs back onto the overlay.
class CompiledBroadcastMachine : public Machine {
 public:
  explicit CompiledBroadcastMachine(
      std::shared_ptr<const BroadcastOverlay> overlay);

  int beta() const override;
  int num_labels() const override { return overlay_->num_labels(); }
  State init(Label label) const override;
  State step(State state, const Neighbourhood& n) const override;
  Verdict verdict(State state) const override;
  State committed(State state) const override;
  std::string state_name(State state) const override;

  // Phase 0/1/2 of a compiled state.
  int phase_of(State state) const;
  // The carried inner state (for phase 1/2 this is the post-update state the
  // agent will commit when it returns to phase 0).
  State inner_of(State state) const;
  // The response id a phase-1/2 state is relaying (-1 for phase 0).
  int response_of(State state) const;
  // The committed (phase-0) compiled state embedding an inner state.
  State embed(State inner_state) const;

  const BroadcastOverlay& overlay() const { return *overlay_; }

  bool parallel_step_safe() const override {
    return overlay_->inner().parallel_step_safe();
  }

  void footprint(std::vector<LayerFootprint>& out) const override {
    overlay_->inner().footprint(out);
    out.push_back({"broadcast(L4.7)", states_.size()});
  }

 private:
  struct Packed {
    State inner;
    std::int8_t phase;
    std::int32_t response;
    bool operator==(const Packed&) const = default;
  };
  struct PackedHash {
    std::size_t operator()(const Packed& p) const {
      std::size_t seed = static_cast<std::size_t>(p.phase) + 0x9;
      hash_combine(seed, static_cast<std::uint64_t>(p.inner));
      hash_combine(seed, static_cast<std::uint64_t>(p.response));
      return seed;
    }
  };

  State pack(State inner, int phase, int response) const;

  std::shared_ptr<const BroadcastOverlay> overlay_;
  mutable Interner<Packed, PackedHash> states_;
};

std::shared_ptr<CompiledBroadcastMachine> compile_weak_broadcast(
    std::shared_ptr<const BroadcastOverlay> overlay);

}  // namespace dawn
