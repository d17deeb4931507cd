#include "dawn/protocols/formula.hpp"

#include <algorithm>
#include <map>

#include "dawn/util/check.hpp"

namespace dawn {

FormulaMachine::FormulaMachine(
    std::vector<std::shared_ptr<const Machine>> components,
    std::function<bool(const std::vector<bool>&)> formula)
    : components_(std::move(components)), formula_(std::move(formula)) {
  DAWN_CHECK(!components_.empty());
  DAWN_CHECK(static_cast<bool>(formula_));
  for (const auto& c : components_) {
    DAWN_CHECK(c != nullptr);
    DAWN_CHECK(c->num_labels() == components_.front()->num_labels());
    beta_ = std::max(beta_, c->beta());
  }
}

int FormulaMachine::num_labels() const {
  return components_.front()->num_labels();
}

bool FormulaMachine::parallel_step_safe() const {
  return std::all_of(components_.begin(), components_.end(),
                     [](const auto& c) { return c->parallel_step_safe(); });
}

State FormulaMachine::pack(std::vector<State> tuple) const {
  return states_.id(tuple);
}

State FormulaMachine::component_of(State state, std::size_t i) const {
  return states_.value(state)[i];
}

State FormulaMachine::init(Label label) const {
  std::vector<State> tuple(components_.size());
  for (std::size_t i = 0; i < components_.size(); ++i) {
    tuple[i] = components_[i]->init(label);
  }
  return pack(std::move(tuple));
}

State FormulaMachine::step(State state, const Neighbourhood& n) const {
  const std::vector<State> me = states_.value(state);
  std::vector<State> next(me.size());
  for (std::size_t i = 0; i < components_.size(); ++i) {
    // Project the tuple neighbourhood onto component i, re-capping at the
    // component's β (exact, see protocols/boolean.cpp).
    std::map<State, int> merged;
    for (auto [s, c] : n.entries()) merged[states_.value(s)[i]] += c;
    std::vector<std::pair<State, int>> counts(merged.begin(), merged.end());
    const auto view = Neighbourhood::from_counts(counts, components_[i]->beta());
    next[i] = components_[i]->step(me[i], view);
  }
  return pack(std::move(next));
}

Verdict FormulaMachine::verdict(State state) const {
  const std::vector<State>& tuple = states_.value(state);
  std::vector<bool> bits(tuple.size());
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    switch (components_[i]->verdict(tuple[i])) {
      case Verdict::Accept:
        bits[i] = true;
        break;
      case Verdict::Reject:
        bits[i] = false;
        break;
      case Verdict::Neutral:
        return Verdict::Neutral;
    }
  }
  return formula_(bits) ? Verdict::Accept : Verdict::Reject;
}

State FormulaMachine::committed(State state) const {
  std::vector<State> tuple = states_.value(state);
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    tuple[i] = components_[i]->committed(tuple[i]);
  }
  return pack(std::move(tuple));
}

std::string FormulaMachine::state_name(State state) const {
  const std::vector<State>& tuple = states_.value(state);
  std::string out = "<";
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (i) out += " x ";
    out += components_[i]->state_name(tuple[i]);
  }
  return out + ">";
}

}  // namespace dawn
