#include "dawn/automata/combinators.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "dawn/util/check.hpp"

namespace dawn {

Neighbourhood project_neighbourhood(const Neighbourhood& n,
                                    const std::function<State(State)>& f) {
  // Merge capped counts of states with the same image. A capped count is
  // exact when < β and a lower bound ("at least β") when == β; the sum of
  // lower bounds capped at β is again exact-or-saturated, so the projection
  // is faithful to the capped semantics.
  std::map<State, int> merged;
  for (auto [q, c] : n.entries()) merged[f(q)] += c;
  std::vector<std::pair<State, int>> counts(merged.begin(), merged.end());
  return Neighbourhood::from_counts(counts, n.beta());
}

TaggedMachine::TaggedMachine(Spec spec) : spec_(std::move(spec)) {
  DAWN_CHECK(spec_.inner != nullptr);
  DAWN_CHECK(static_cast<bool>(spec_.init));
  DAWN_CHECK(spec_.num_labels >= 1);
}

State TaggedMachine::pack(State inner, State tag) const {
  return states_.id({inner, tag});
}

std::pair<State, State> TaggedMachine::unpack(State state) const {
  return states_.value(state);
}

State TaggedMachine::init(Label label) const {
  auto [inner, tag] = spec_.init(label);
  return pack(inner, tag);
}

State TaggedMachine::step(State state, const Neighbourhood& n) const {
  auto [inner, tag] = unpack(state);
  const Neighbourhood projected = project_neighbourhood(
      n, [this](State s) { return unpack(s).first; });
  const State next = spec_.inner->step(inner, projected);
  return pack(next, tag);
}

Verdict TaggedMachine::verdict(State state) const {
  auto [inner, tag] = unpack(state);
  if (spec_.verdict) return spec_.verdict(inner, tag);
  return spec_.inner->verdict(inner);
}

State TaggedMachine::committed(State state) const {
  auto [inner, tag] = unpack(state);
  return pack(spec_.inner->committed(inner), tag);
}

std::string TaggedMachine::state_name(State state) const {
  auto [inner, tag] = unpack(state);
  std::string tag_str =
      spec_.tag_name ? spec_.tag_name(tag) : std::to_string(tag);
  std::string name = "(";
  name.append(spec_.inner->state_name(inner)).append(", ").append(tag_str);
  name += ')';
  return name;
}

RememberLastMachine::RememberLastMachine(std::shared_ptr<const Machine> inner)
    : inner_(std::move(inner)) {
  DAWN_CHECK(inner_ != nullptr);
}

State RememberLastMachine::pack(State cur, State last) const {
  return states_.id({cur, last});
}

State RememberLastMachine::init(Label label) const {
  const State s0 = inner_->init(label);
  DAWN_CHECK_MSG(!inner_->is_intermediate(s0),
                 "initial states must be committed");
  return pack(s0, s0);
}

State RememberLastMachine::step(State state, const Neighbourhood& n) const {
  auto [cur, last] = states_.value(state);
  const Neighbourhood projected = project_neighbourhood(
      n, [this](State s) { return states_.value(s).first; });
  const State next = inner_->step(cur, projected);
  const State next_last = inner_->is_intermediate(next) ? last : next;
  return pack(next, next_last);
}

Verdict RememberLastMachine::verdict(State state) const {
  return inner_->verdict(states_.value(state).second);
}

State RememberLastMachine::committed(State state) const {
  const State last = states_.value(state).second;
  return pack(last, last);
}

std::string RememberLastMachine::state_name(State state) const {
  auto [cur, last] = states_.value(state);
  std::string name = "[";
  name.append(inner_->state_name(cur))
      .append(" / last ")
      .append(inner_->state_name(last));
  name += ']';
  return name;
}

State RememberLastMachine::current_of(State state) const {
  return states_.value(state).first;
}

State RememberLastMachine::last_of(State state) const {
  return states_.value(state).second;
}

VerdictOverrideMachine::VerdictOverrideMachine(
    std::shared_ptr<const Machine> inner,
    std::function<Verdict(const Machine&, State)> verdict)
    : inner_(std::move(inner)), verdict_(std::move(verdict)) {
  DAWN_CHECK(inner_ != nullptr);
  DAWN_CHECK(static_cast<bool>(verdict_));
}

std::shared_ptr<Machine> negate(std::shared_ptr<const Machine> inner) {
  return std::make_shared<VerdictOverrideMachine>(
      inner, [](const Machine& m, State s) {
        switch (m.verdict(s)) {
          case Verdict::Accept:
            return Verdict::Reject;
          case Verdict::Reject:
            return Verdict::Accept;
          case Verdict::Neutral:
            return Verdict::Neutral;
        }
        return Verdict::Neutral;
      });
}

}  // namespace dawn
