// Graph population protocols (Definition B.19) and their simulation by
// DAF-automata (Lemma 4.10, Figure 4).
//
// A graph population protocol interacts by rendez-vous: an ordered pair of
// adjacent nodes (u, v) in states (p, q) moves to δ(p, q) = (p', q'). The
// compiled machine simulates a rendez-vous with the search / answer /
// confirm handshake of Figure 4 using only neighbourhood transitions with
// counting bound β = 2:
//
//   waiting q  --all nbrs waiting-->                     searching q
//   waiting q  --exactly one nbr searching q'-->         answering q
//   searching q --exactly one nbr answering q'-->        confirming (q, δ1(q,q'))
//   answering q --exactly one nbr confirming (q',q'')--> waiting δ2(q', q)
//   confirming (q,q') --all nbrs waiting-->              waiting q'
//   anything else --> back to waiting (cancel)
//
// The resulting machine is a DAF-automaton: correctness requires
// pseudo-stochastic fairness (an adversary could cancel handshakes forever).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "dawn/automata/machine.hpp"
#include "dawn/util/hash.hpp"
#include "dawn/util/interner.hpp"

namespace dawn {

struct GraphPopulationProtocol {
  int num_states = 0;
  int num_labels = 1;
  std::function<State(Label)> init;
  // δ: ordered interaction (initiator, responder) -> successor states.
  std::function<std::pair<State, State>(State, State)> delta;
  std::function<Verdict(State)> verdict;
  std::function<std::string(State)> name;  // optional

  std::string state_name(State s) const {
    if (name) return name(s);
    std::string fallback = "p";
    fallback.append(std::to_string(s));
    return fallback;
  }
};

class CompiledPopulationMachine : public Machine {
 public:
  explicit CompiledPopulationMachine(GraphPopulationProtocol protocol);

  int beta() const override { return 2; }
  int num_labels() const override { return protocol_.num_labels; }
  State init(Label label) const override;
  State step(State state, const Neighbourhood& n) const override;
  Verdict verdict(State state) const override;
  State committed(State state) const override;
  std::string state_name(State state) const override;

  // Status of a compiled state.
  enum class Status : std::int8_t { Waiting, Searching, Answering, Confirming };
  Status status_of(State state) const;
  // The protocol state this node last committed (the first component).
  State protocol_state_of(State state) const;
  // The committed (waiting) compiled state embedding a protocol state.
  State embed(State protocol_state) const;

  const GraphPopulationProtocol& protocol() const { return protocol_; }

  // The protocol callables must be pure, as for FunctionMachine.
  bool parallel_step_safe() const override { return true; }

  void footprint(std::vector<LayerFootprint>& out) const override {
    out.push_back({"population(L4.10)", states_.size()});
  }

 private:
  struct Packed {
    State q;            // protocol state (pre-commit)
    Status status;
    State pending;      // for Confirming: the post-rendezvous state
    bool operator==(const Packed&) const = default;
  };
  struct PackedHash {
    std::size_t operator()(const Packed& p) const {
      std::size_t seed = static_cast<std::size_t>(p.status) + 0x55;
      hash_combine(seed, static_cast<std::uint64_t>(p.q));
      hash_combine(seed, static_cast<std::uint64_t>(p.pending));
      return seed;
    }
  };

  State pack(State q, Status status, State pending) const;

  GraphPopulationProtocol protocol_;
  mutable Interner<Packed, PackedHash> states_;
};

std::shared_ptr<CompiledPopulationMachine> compile_population(
    GraphPopulationProtocol protocol);

}  // namespace dawn
