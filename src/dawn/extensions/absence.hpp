// Weak absence detection (Section 4.2) and the Lemma 4.9 compiler for
// bounded-degree graphs.
//
// A DA$-automaton with weak absence detection runs synchronously: each
// super-step, (i) every agent executes a neighbourhood transition
// simultaneously (C -> C'), then (ii) the initiators S = C'^{-1}(Q_A) each
// observe the support (set of occupied states) of a subset S_v ∋ v, with
// ∪ S_v = V, and move to A(q, C'(S_v)). If there is no initiator the
// computation hangs (C'' = C).
//
// The compiler realises one super-step as a three-phase wave with a distance
// labelling D = Z_{2k+1} ∪ {root} (k = degree bound):
//
//   phase 0 -> 1: execute δ on the reconstructed synchronous neighbourhood
//     old(N); initiators take label root, others a child label of a
//     neighbour chosen so that no neighbour holds its child label
//     (Lemma B.14 — possible because degree <= k < |D|/2; this embeds a
//     forest rooted at the initiators, Lemma B.15: no label cycles),
//   phase 1 -> 2: once every child has reported, record the union of the
//     children's supports plus the own state,
//   phase 2 -> 0: initiators execute A(q, S); everyone else commits q.
//
// The `last` mapping required by the Section 6.1 construction maps every
// in-wave state to its post-δ component q — the value the wave's initiators
// observe — so that broadcast responses composed with `last` act on exactly
// the configuration the initiating leader detected (see last_of()).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dawn/automata/machine.hpp"
#include "dawn/util/hash.hpp"
#include "dawn/util/interner.hpp"

namespace dawn {

// A set of states (a support), sorted and deduplicated.
using Support = std::vector<State>;

class AbsenceMachine {
 public:
  struct Spec {
    std::shared_ptr<const Machine> inner;  // (Q, δ0, δ): the synchronous part
    int num_labels = 1;
    std::function<State(Label)> init;      // defaults to inner->init
    std::function<bool(State)> is_initiator;                    // Q_A
    std::function<State(State, const Support&)> detect;         // A(q, S)
    std::function<Verdict(State)> verdict;  // defaults to inner->verdict
  };

  explicit AbsenceMachine(Spec spec);

  const Machine& inner() const { return *spec_.inner; }
  int num_labels() const { return spec_.num_labels; }
  State init(Label label) const;
  bool is_initiator(State s) const { return spec_.is_initiator(s); }
  State detect(State s, const Support& support) const;
  Verdict verdict(State s) const;

 private:
  Spec spec_;
};

class CompiledAbsenceMachine : public Machine {
 public:
  // `k` is the degree bound of the input graphs; running on a graph with a
  // larger degree is a checked error (the distance labelling needs
  // |D| = 2k+2 labels).
  CompiledAbsenceMachine(std::shared_ptr<const AbsenceMachine> machine, int k);

  int beta() const override;
  int num_labels() const override { return machine_->num_labels(); }
  State init(Label label) const override;
  State step(State state, const Neighbourhood& n) const override;
  Verdict verdict(State state) const override;
  State committed(State state) const override;
  std::string state_name(State state) const override;

  int phase_of(State state) const;
  // The committed (phase-0) compiled state embedding an inner state.
  State embed(State inner_state) const;
  // The `last` mapping of Section 6.1: the inner state a compiled state
  // represents — the post-δ component q, for every phase (see the comment
  // in the implementation for why the pre-step state would be wrong).
  State last_of(State state) const;

  int degree_bound() const { return k_; }
  const AbsenceMachine& absence_machine() const { return *machine_; }

  bool parallel_step_safe() const override {
    return machine_->inner().parallel_step_safe();
  }

  void footprint(std::vector<LayerFootprint>& out) const override {
    machine_->inner().footprint(out);
    out.push_back({"absence(L4.9)", states_.size()});
    out.push_back({"absence.supports", supports_.size()});
  }

 private:
  // Distance labels: 0..2k are Z_{2k+1}; 2k+1 is `root`. root+1 = 1.
  int increment_label(int d) const;

  struct Packed {
    State q;        // current (post-δ) inner state
    State r;        // pre-step inner state (phases 1,2); -1 in phase 0
    std::int8_t phase;
    std::int16_t dist;     // distance label (phase 1); -1 otherwise
    std::int32_t support;  // support id (phase 2); -1 otherwise
    bool operator==(const Packed&) const = default;
  };
  struct PackedHash {
    std::size_t operator()(const Packed& p) const {
      std::size_t seed = static_cast<std::size_t>(p.phase) + 0xab;
      hash_combine(seed, static_cast<std::uint64_t>(p.q));
      hash_combine(seed, static_cast<std::uint64_t>(p.r));
      hash_combine(seed, static_cast<std::uint64_t>(p.dist));
      hash_combine(seed, static_cast<std::uint64_t>(p.support));
      return seed;
    }
  };

  State pack(const Packed& p) const;

  std::shared_ptr<const AbsenceMachine> machine_;
  int k_;
  mutable Interner<Packed, PackedHash> states_;
  mutable Interner<Support, VectorHash<State>> supports_;
};

std::shared_ptr<CompiledAbsenceMachine> compile_absence(
    std::shared_ptr<const AbsenceMachine> machine, int degree_bound);

}  // namespace dawn
