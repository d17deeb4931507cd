// Products of machines with a boolean verdict formula — the executable form
// of "the decidable properties are closed under boolean combinations"
// (Propositions C.4/C.6).
//
// A FormulaMachine runs N component machines in lockstep (each component
// steps on the projection of the neighbourhood, as in the binary product of
// protocols/boolean.hpp) and derives its verdict from the component
// verdicts through an arbitrary boolean function. Component verdicts must
// be total (Accept/Reject; a Neutral component makes the formula verdict
// Neutral, deferring consensus).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dawn/automata/machine.hpp"
#include "dawn/util/hash.hpp"
#include "dawn/util/interner.hpp"

namespace dawn {

class FormulaMachine : public Machine {
 public:
  // `formula` receives one bool per component (true = Accept).
  FormulaMachine(std::vector<std::shared_ptr<const Machine>> components,
                 std::function<bool(const std::vector<bool>&)> formula);

  int beta() const override { return beta_; }
  int num_labels() const override;
  State init(Label label) const override;
  State step(State state, const Neighbourhood& n) const override;
  Verdict verdict(State state) const override;
  State committed(State state) const override;
  std::string state_name(State state) const override;
  bool parallel_step_safe() const override;

  std::size_t num_components() const { return components_.size(); }
  State component_of(State state, std::size_t i) const;

 private:
  State pack(std::vector<State> tuple) const;

  std::vector<std::shared_ptr<const Machine>> components_;
  std::function<bool(const std::vector<bool>&)> formula_;
  int beta_ = 1;
  mutable Interner<std::vector<State>, VectorHash<State>> states_;
};

}  // namespace dawn
