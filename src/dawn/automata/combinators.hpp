// Machine combinators used by the paper's constructions.
//
//  * TaggedMachine — the paper's "P × Q'" notation (Section 5): a product
//    whose second component is never touched by transitions. Used to give
//    agents a read-only memory (the original contribution q0 for resets, the
//    protocol state for the token construction).
//  * RememberLastMachine — the P'' of Lemma 4.4 and the `last` mapping of
//    Section 6.1: agents additionally remember the last committed
//    (non-intermediate) state; verdicts are taken from it.
//  * VerdictOverrideMachine — replaces the verdict function (used to define
//    Y/N sets on top of a compiled simulation, and for boolean negation).
//
// All combinators operate on lazily interned pair states; neighbourhood
// projection merges capped counts (sound and exact, see the saturation
// argument in neighbourhood.hpp).
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "dawn/automata/machine.hpp"
#include "dawn/util/hash.hpp"
#include "dawn/util/interner.hpp"

namespace dawn {

// Projects a neighbourhood through a state mapping, merging capped counts.
Neighbourhood project_neighbourhood(const Neighbourhood& n,
                                    const std::function<State(State)>& f);

class TaggedMachine : public Machine {
 public:
  struct Spec {
    std::shared_ptr<const Machine> inner;
    int num_labels = 1;
    // Initial (inner state, tag) per label.
    std::function<std::pair<State, State>(Label)> init;
    // Optional verdict override; default is the inner verdict.
    std::function<Verdict(State inner, State tag)> verdict;
    // Optional tag name for debugging.
    std::function<std::string(State tag)> tag_name;
  };

  explicit TaggedMachine(Spec spec);

  int beta() const override { return spec_.inner->beta(); }
  int num_labels() const override { return spec_.num_labels; }
  State init(Label label) const override;
  State step(State state, const Neighbourhood& n) const override;
  Verdict verdict(State state) const override;
  State committed(State state) const override;
  std::string state_name(State state) const override;

  // Pair packing (exposed so broadcast overlays can build response states).
  State pack(State inner, State tag) const;
  std::pair<State, State> unpack(State state) const;

  bool parallel_step_safe() const override {
    return spec_.inner->parallel_step_safe();
  }

  void footprint(std::vector<LayerFootprint>& out) const override {
    spec_.inner->footprint(out);
    out.push_back({"tagged", states_.size()});
  }

 private:
  Spec spec_;
  mutable Interner<std::pair<State, State>, PairHash<State, State>> states_;
};

class RememberLastMachine : public Machine {
 public:
  explicit RememberLastMachine(std::shared_ptr<const Machine> inner);

  int beta() const override { return inner_->beta(); }
  int num_labels() const override { return inner_->num_labels(); }
  State init(Label label) const override;
  State step(State state, const Neighbourhood& n) const override;
  // Verdict of the last committed inner state.
  Verdict verdict(State state) const override;
  // Maps to the packed (committed, committed) state.
  State committed(State state) const override;
  std::string state_name(State state) const override;

  State current_of(State state) const;  // inner current state
  State last_of(State state) const;     // inner last committed state

  bool parallel_step_safe() const override {
    return inner_->parallel_step_safe();
  }

  void footprint(std::vector<LayerFootprint>& out) const override {
    inner_->footprint(out);
    out.push_back({"remember-last(L4.4)", states_.size()});
  }

 private:
  State pack(State cur, State last) const;
  std::shared_ptr<const Machine> inner_;
  mutable Interner<std::pair<State, State>, PairHash<State, State>> states_;
};

class VerdictOverrideMachine : public Machine {
 public:
  VerdictOverrideMachine(std::shared_ptr<const Machine> inner,
                         std::function<Verdict(const Machine&, State)> verdict);

  int beta() const override { return inner_->beta(); }
  int num_labels() const override { return inner_->num_labels(); }
  State init(Label label) const override { return inner_->init(label); }
  State step(State state, const Neighbourhood& n) const override {
    return inner_->step(state, n);
  }
  Verdict verdict(State state) const override {
    return verdict_(*inner_, state);
  }
  State committed(State state) const override {
    return inner_->committed(state);
  }
  std::optional<int> num_states() const override {
    return inner_->num_states();
  }
  std::string state_name(State state) const override {
    return inner_->state_name(state);
  }
  bool parallel_step_safe() const override {
    return inner_->parallel_step_safe();
  }
  void footprint(std::vector<LayerFootprint>& out) const override {
    inner_->footprint(out);
  }

 private:
  std::shared_ptr<const Machine> inner_;
  std::function<Verdict(const Machine&, State)> verdict_;
};

// Negation: swaps Accept and Reject (decides ¬φ; Remark after Prop. C.4 —
// decidable properties are closed under boolean combinations).
std::shared_ptr<Machine> negate(std::shared_ptr<const Machine> inner);

}  // namespace dawn
