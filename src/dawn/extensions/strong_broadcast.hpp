// Strong broadcast protocols and the Lemma 5.1 pipeline compiling them into
// DAF-automata.
//
// A strong broadcast protocol (the broadcast consensus protocols of Blondin,
// Esparza & Jaax [11]; these decide exactly NL) lets one agent at a time
// broadcast atomically to all agents. The paper's DAF = NL lower bound
// simulates them with weak primitives in three layers:
//
//   1. P_token — a graph population protocol with states {0, L, L', ⊥}:
//      (L,L) ↦ (0,⊥)  two tokens collide, an agent enters the error state;
//      (0,L) ↦ (L,0)  the token moves;
//      (L,0) ↦ (L',0) the token holder arms a broadcast.
//      Compiled to a DAF machine by Lemma 4.10.
//   2. P_step = P'_token × Q + ⟨step⟩ — agents carry a protocol state q; an
//      armed holder (L', q) fires the weak broadcast ⟨step⟩, executing the
//      protocol's broadcast q ↦ q', f on everyone (with a single token the
//      weak broadcast is received by all, i.e. is strong). Compiled by
//      Lemma 4.7.
//   3. P_reset = P'_step × Q + ⟨reset⟩ — every agent remembers its input
//      state q0; an agent that committed the error state ⊥ broadcasts a
//      restart: it becomes the (tentatively unique) new token holder and all
//      others restore q0 with no token. Each reset strictly decreases the
//      number of tokens (Lemma D.5-style argument in Appendix C), so
//      eventually exactly one token remains and the simulation is faithful.
//
// Initialisation gives every agent a token, matching I_reset.
//
// Deviation from the paper, documented in DESIGN.md/EXPERIMENTS.md: the
// paper's accepting set O_reset requires the token component to be in
// {0, L}, but the token protocol re-arms (L,0) ↦ (L',0) infinitely often, so
// taken literally no run would stabilise; we let the verdict depend only on
// the protocol component (with ⊥ neutral), which is the evident intent.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "dawn/automata/combinators.hpp"
#include "dawn/extensions/broadcast.hpp"
#include "dawn/extensions/population.hpp"

namespace dawn {

struct StrongBroadcastProtocol {
  int num_states = 0;
  int num_labels = 1;
  std::function<State(Label)> init;
  struct Broadcast {
    State to = 0;
    std::function<State(State)> respond;  // the response function f
  };
  // The broadcast of each state (may be "silent": to == q, respond == id;
  // the token is still consumed and re-armed).
  std::function<Broadcast(State)> broadcast;
  std::function<Verdict(State)> verdict;
  std::function<std::string(State)> name;  // optional

  std::string state_name(State s) const {
    if (name) return name(s);
    std::string fallback = "s";
    fallback.append(std::to_string(s));
    return fallback;
  }
};

// A broadcast overlay with the exact semantics of the strong protocol
// (every state initiates its broadcast; no neighbourhood transitions), for
// use with the strong deciders in broadcast_engine.hpp as ground truth.
std::shared_ptr<BroadcastOverlay> strong_protocol_as_overlay(
    std::shared_ptr<const StrongBroadcastProtocol> p);

// The full Lemma 5.1 pipeline. `machine` is the final DAF automaton; the
// intermediate layers are exposed for white-box tests and the bench that
// counts token collisions/resets.
struct StrongToDaf {
  std::shared_ptr<const StrongBroadcastProtocol> protocol;
  std::shared_ptr<CompiledPopulationMachine> token;       // P'_token
  std::shared_ptr<TaggedMachine> step_tagged;             // P'_token × Q
  std::shared_ptr<CompiledBroadcastMachine> step_machine; // P'_step
  std::shared_ptr<TaggedMachine> reset_tagged;            // P'_step × Q
  std::shared_ptr<CompiledBroadcastMachine> machine;      // the DAF automaton

  // Token protocol states.
  static constexpr State kTokNone = 0;
  static constexpr State kTokL = 1;
  static constexpr State kTokArmed = 2;  // L'
  static constexpr State kTokError = 3;  // ⊥

  // Diagnostics for a final-machine state: the committed token state and the
  // committed protocol state it represents.
  State committed_token_of(State final_state) const;
  State committed_protocol_of(State final_state) const;
};

StrongToDaf strong_to_daf(std::shared_ptr<const StrongBroadcastProtocol> p);

}  // namespace dawn
