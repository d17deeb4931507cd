#include "dawn/automata/machine.hpp"

#include "dawn/util/check.hpp"

namespace dawn {

std::string Machine::state_name(State state) const {
  std::string name = "q";
  name.append(std::to_string(state));
  return name;
}

FunctionMachine::FunctionMachine(Spec spec) : spec_(std::move(spec)) {
  DAWN_CHECK(spec_.beta >= 1);
  DAWN_CHECK(spec_.num_labels >= 1);
  DAWN_CHECK(static_cast<bool>(spec_.init));
  DAWN_CHECK(static_cast<bool>(spec_.step));
  DAWN_CHECK(static_cast<bool>(spec_.verdict));
}

State FunctionMachine::init(Label label) const {
  DAWN_CHECK(label >= 0 && label < spec_.num_labels);
  return spec_.init(label);
}

State FunctionMachine::step(State state, const Neighbourhood& n) const {
  return spec_.step(state, n);
}

std::optional<int> FunctionMachine::num_states() const {
  if (spec_.num_states < 0) return std::nullopt;
  return spec_.num_states;
}

std::string FunctionMachine::state_name(State state) const {
  if (spec_.name) return spec_.name(state);
  return Machine::state_name(state);
}

}  // namespace dawn
