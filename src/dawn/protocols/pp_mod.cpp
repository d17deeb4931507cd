#include "dawn/protocols/pp_mod.hpp"

#include "dawn/util/check.hpp"

namespace dawn {

GraphPopulationProtocol make_mod_population_protocol(int m, int r,
                                                     Label counted,
                                                     int num_labels) {
  DAWN_CHECK(m >= 2);
  DAWN_CHECK(r >= 0 && r < m);
  DAWN_CHECK(counted >= 0 && counted < num_labels);
  GraphPopulationProtocol p;
  p.num_states = 2 * m;
  p.num_labels = num_labels;
  p.init = [m, counted](Label l) {
    (void)m;
    return static_cast<State>(l == counted ? 1 : 0);  // leader with 1 / 0
  };
  p.delta = [m](State a, State b) -> std::pair<State, State> {
    const bool leader_a = a < m;
    const bool leader_b = b < m;
    if (leader_a && leader_b) {
      // Fusion: the initiator keeps the sum, the responder follows it.
      const State sum = static_cast<State>((a + b) % m);
      return {sum, static_cast<State>(m + sum)};
    }
    if (leader_a && !leader_b) {
      // Stamp the follower with the leader's current value.
      return {a, static_cast<State>(m + a)};
    }
    if (!leader_a && leader_b) {
      return {static_cast<State>(m + b), b};
    }
    return {a, b};  // two followers: nothing to exchange
  };
  p.verdict = [m, r](State s) {
    return s % m == r ? Verdict::Accept : Verdict::Reject;
  };
  p.name = [m](State s) {
    std::string name = s < m ? "L" : "f";
    name.append(std::to_string(s % m));
    return name;
  };
  return p;
}

std::shared_ptr<Machine> make_mod_population_daf(int m, int r, Label counted,
                                                 int num_labels) {
  return compile_population(
      make_mod_population_protocol(m, r, counted, num_labels));
}

}  // namespace dawn
