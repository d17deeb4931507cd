#include "dawn/protocols/majority_bounded.hpp"

#include <algorithm>
#include <cstdlib>

#include "dawn/util/check.hpp"

namespace dawn {

State CancelEncoding::pair_id(int x, int role) const {
  DAWN_CHECK(x >= -E && x <= E);
  DAWN_CHECK(role >= 0 && role < 4);
  return static_cast<State>((x + E) * 4 + role);
}

bool CancelEncoding::is_pair(State s) const {
  return s >= 0 && s < (2 * E + 1) * 4;
}

int CancelEncoding::x_of(State s) const {
  DAWN_CHECK(is_pair(s));
  return s / 4 - E;
}

int CancelEncoding::role_of(State s) const {
  DAWN_CHECK(is_pair(s));
  return s % 4;
}

State CancelEncoding::error_id() const {
  return static_cast<State>((2 * E + 1) * 4);
}

State CancelEncoding::reject_id() const { return error_id() + 1; }

int CancelEncoding::num_states() const { return (2 * E + 1) * 4 + 2; }

std::string CancelEncoding::name(State s) const {
  if (s == error_id()) return "bot";
  if (s == reject_id()) return "REJ";
  const int x = x_of(s);
  const char* role_names[] = {"", ",L", ",Ldbl", ",Lrej"};
  std::string name = "(";
  name.append(std::to_string(x)).append(role_names[role_of(s)]);
  name += ')';
  return name;
}

namespace {

class BcOverlay : public BroadcastOverlay {
 public:
  BcOverlay(std::shared_ptr<CompiledAbsenceMachine> detect_machine,
            CancelEncoding enc, int k, int num_labels)
      : detect_machine_(std::move(detect_machine)),
        enc_(enc),
        k_(k),
        num_labels_(num_labels) {}

  static constexpr int kRespDouble = 0;
  static constexpr int kRespReject = 1;

  const Machine& inner() const override { return *detect_machine_; }
  int num_labels() const override { return num_labels_; }
  State init(Label label) const override {
    return detect_machine_->init(label);
  }
  int num_responses() const override { return 2; }

  std::optional<std::pair<State, int>> initiate(State state) const override {
    // Initiators are agents whose P'_detect state is committed and armed.
    if (detect_machine_->committed(state) != state) return std::nullopt;
    const State q = detect_machine_->last_of(state);
    if (!enc_.is_pair(q)) return std::nullopt;
    const int role = enc_.role_of(q);
    const int x = enc_.x_of(q);
    if (role == CancelEncoding::kArmDouble) {
      // ⟨double⟩: (x, L_double) ↦ (2x, L). At firing time |x| <= k, so 2x
      // stays within [-E, E] (E >= 2k); clamp defensively anyway.
      const int doubled = std::clamp(2 * x, -enc_.E, enc_.E);
      return std::make_pair(
          detect_machine_->embed(
              enc_.pair_id(doubled, CancelEncoding::kLeader)),
          kRespDouble);
    }
    if (role == CancelEncoding::kArmReject) {
      // ⟨reject⟩: (x, L_□) ↦ □.
      return std::make_pair(detect_machine_->embed(enc_.reject_id()),
                            kRespReject);
    }
    return std::nullopt;
  }

  State respond(int response, State state) const override {
    // Response functions compose with `last`: agents caught mid-wave are
    // first moved back to their last committed P_detect state.
    const State q = detect_machine_->last_of(state);
    return detect_machine_->embed(respond_detect(response, q));
  }

  Verdict verdict(State state) const override {
    // Only □ rejects; everything else (including the transient ⊥) accepts.
    return detect_machine_->last_of(state) == enc_.reject_id()
               ? Verdict::Reject
               : Verdict::Accept;
  }

  std::string response_name(int response) const override {
    return response == kRespDouble ? "double" : "reject";
  }

 private:
  State respond_detect(int response, State q) const {
    if (q == enc_.error_id() || q == enc_.reject_id()) return q;
    const int x = enc_.x_of(q);
    const int role = enc_.role_of(q);
    if (role != CancelEncoding::kFollower) {
      // Another leader received the broadcast: it disagrees with the
      // initiator's view and moves to the error state, triggering a reset
      // with strictly fewer leaders.
      return enc_.error_id();
    }
    if (response == kRespDouble) {
      if (std::abs(x) <= k_) {
        return enc_.pair_id(2 * x, CancelEncoding::kFollower);
      }
      return q;  // unreachable at firing time; keep totality
    }
    // ⟨reject⟩.
    if (x < 0) return enc_.reject_id();
    return q;  // unreachable at firing time; keep totality
  }

  std::shared_ptr<CompiledAbsenceMachine> detect_machine_;
  CancelEncoding enc_;
  int k_;
  int num_labels_;
};

class ResetOverlay : public BroadcastOverlay {
 public:
  ResetOverlay(std::shared_ptr<CompiledBroadcastMachine> bc_machine,
               std::shared_ptr<CompiledAbsenceMachine> detect_machine,
               std::shared_ptr<TaggedMachine> tagged, CancelEncoding enc,
               int num_labels)
      : bc_machine_(std::move(bc_machine)),
        detect_machine_(std::move(detect_machine)),
        tagged_(std::move(tagged)),
        enc_(enc),
        num_labels_(num_labels) {}

  const Machine& inner() const override { return *tagged_; }
  int num_labels() const override { return num_labels_; }
  State init(Label label) const override { return tagged_->init(label); }
  int num_responses() const override { return 1; }

  std::optional<std::pair<State, int>> initiate(State state) const override {
    const auto [m, tag] = tagged_->unpack(state);
    // Initiators: committed at the broadcast layer AND committed at the
    // absence layer AND in the error state ⊥. Such agents are frozen until
    // ⟨reset⟩ fires.
    if (bc_machine_->committed(m) != m) return std::nullopt;
    const State s = bc_machine_->inner_of(m);
    if (detect_machine_->committed(s) != s) return std::nullopt;
    if (detect_machine_->last_of(s) != enc_.error_id()) return std::nullopt;
    // (⊥, x0) ↦ ((x0, L), x0): the initiator becomes the new leader with its
    // remembered input contribution.
    const int x0 = tag - enc_.E;
    return std::make_pair(
        tagged_->pack(embed_pair(x0, CancelEncoding::kLeader), tag), 0);
  }

  State respond(int, State state) const override {
    const auto [m, tag] = tagged_->unpack(state);
    (void)m;
    // (r, x0) ↦ ((x0, 0), x0): everyone restarts as a follower from its
    // remembered input. Total on all states — no `last` needed.
    const int x0 = tag - enc_.E;
    return tagged_->pack(embed_pair(x0, CancelEncoding::kFollower), tag);
  }

  Verdict verdict(State state) const override {
    const auto [m, tag] = tagged_->unpack(state);
    (void)tag;
    const State s = bc_machine_->inner_of(bc_machine_->committed(m));
    return detect_machine_->last_of(s) == enc_.reject_id() ? Verdict::Reject
                                                           : Verdict::Accept;
  }

  std::string response_name(int) const override { return "reset"; }

 private:
  State embed_pair(int x, int role) const {
    return bc_machine_->embed(
        detect_machine_->embed(enc_.pair_id(x, role)));
  }

  std::shared_ptr<CompiledBroadcastMachine> bc_machine_;
  std::shared_ptr<CompiledAbsenceMachine> detect_machine_;
  std::shared_ptr<TaggedMachine> tagged_;
  CancelEncoding enc_;
  int num_labels_;
};

}  // namespace

State BoundedThresholdAutomaton::committed_detect_of(State final_state) const {
  const State r = machine->inner_of(machine->committed(final_state));
  const auto [m, tag] = reset_tagged->unpack(r);
  (void)tag;
  const State s = bc_machine->inner_of(bc_machine->committed(m));
  return detect_machine->last_of(s);
}

BoundedThresholdAutomaton make_homogeneous_threshold_daf(
    std::vector<int> coeffs, int k) {
  DAWN_CHECK(!coeffs.empty());
  DAWN_CHECK_MSG(k >= 2, "degree bound must be >= 2 (connected non-clique)");
  int max_coeff = 0;
  for (int a : coeffs) max_coeff = std::max(max_coeff, std::abs(a));
  DAWN_CHECK_MSG(max_coeff > 0, "at least one coefficient must be nonzero");

  BoundedThresholdAutomaton out;
  out.coeffs = coeffs;
  out.k = k;
  out.enc.E = std::max(max_coeff, 2 * k);
  const CancelEncoding enc = out.enc;
  const int num_labels = static_cast<int>(coeffs.size());

  // --- Layer 1: ⟨cancel⟩ on (x, role) pairs; ⊥ and □ are inert. ---
  {
    FunctionMachine::Spec spec;
    spec.beta = k;
    spec.num_labels = num_labels;
    spec.num_states = enc.num_states();
    spec.init = [enc, coeffs](Label l) {
      return enc.pair_id(coeffs[static_cast<std::size_t>(l)],
                         CancelEncoding::kLeader);
    };
    spec.step = [enc, k](State s, const Neighbourhood& n) {
      if (!enc.is_pair(s)) return s;  // ⊥, □: inert
      const int x = enc.x_of(s);
      const int role = enc.role_of(s);
      // N[a,b]: number of neighbours with contribution in [a, b]. Degree is
      // bounded by k = β, so capped counts are exact. The templated sum
      // inlines the predicate (no per-activation std::function dispatch).
      auto range_count = [&](int lo, int hi) {
        return n.sum([&](State q) {
          if (!enc.is_pair(q)) return false;
          const int y = enc.x_of(q);
          return y >= lo && y <= hi;
        });
      };
      int next = x;
      if (x > k) {
        next = x - range_count(-enc.E, k);
      } else if (x < -k) {
        next = x + range_count(-k, enc.E);
      } else {
        next = x - range_count(-enc.E, -k - 1) + range_count(k + 1, enc.E);
      }
      DAWN_CHECK(next >= -enc.E && next <= enc.E);
      return enc.pair_id(next, role);
    };
    spec.verdict = [enc](State s) {
      return s == enc.reject_id() ? Verdict::Reject : Verdict::Accept;
    };
    spec.name = [enc](State s) { return enc.name(s); };
    out.detect_inner = std::make_shared<FunctionMachine>(spec);
  }

  // --- Layer 2: P_detect — absence detection for leaders. ---
  {
    AbsenceMachine::Spec spec;
    spec.inner = out.detect_inner;
    spec.num_labels = num_labels;
    spec.is_initiator = [enc](State s) {
      return enc.is_pair(s) && enc.role_of(s) == CancelEncoding::kLeader;
    };
    spec.detect = [enc, k](State s, const Support& support) -> State {
      const int x = enc.x_of(s);
      bool has_reject = false, has_error = false;
      bool all_small = true, all_negative = true;
      for (State q : support) {
        if (q == enc.reject_id()) {
          has_reject = true;
          continue;
        }
        if (q == enc.error_id()) {
          has_error = true;
          continue;
        }
        const int y = enc.x_of(q);
        const int role = enc.role_of(q);
        // Armed leaders in the support block both detections (the paper's
        // s ⊆ ...×{0} conditions, read to include L itself — see header).
        if (role == CancelEncoding::kArmDouble ||
            role == CancelEncoding::kArmReject) {
          all_small = all_negative = false;
        }
        if (std::abs(y) > k) all_small = false;
        if (y >= 0) all_negative = false;
      }
      if (has_reject) return enc.error_id();
      if (has_error) return enc.pair_id(x, CancelEncoding::kFollower);
      if (all_small) return enc.pair_id(x, CancelEncoding::kArmDouble);
      if (all_negative) return enc.pair_id(x, CancelEncoding::kArmReject);
      return s;  // not converged yet: remain a plain leader
    };
    out.detect = std::make_shared<AbsenceMachine>(std::move(spec));
  }

  // --- Layer 3: Lemma 4.9 — compile the absence detection (DAf). ---
  out.detect_machine = compile_absence(out.detect, k);

  // --- Layer 4+5: ⟨double⟩ / ⟨reject⟩ broadcasts, Lemma 4.7. ---
  out.bc_machine = compile_weak_broadcast(std::make_shared<BcOverlay>(
      out.detect_machine, enc, k, num_labels));

  // --- Layer 6: × Q_cancel input memory. ---
  {
    TaggedMachine::Spec spec;
    spec.inner = out.bc_machine;
    spec.num_labels = num_labels;
    auto bc = out.bc_machine;
    auto detect_m = out.detect_machine;
    spec.init = [bc, detect_m, enc, coeffs](Label l) {
      const int x0 = coeffs[static_cast<std::size_t>(l)];
      return std::make_pair(
          bc->embed(detect_m->embed(enc.pair_id(x0, CancelEncoding::kLeader))),
          static_cast<State>(x0 + enc.E));
    };
    spec.tag_name = [enc](State tag) {
      return "x0=" + std::to_string(tag - enc.E);
    };
    out.reset_tagged = std::make_shared<TaggedMachine>(spec);
  }

  // --- Layer 7+8: ⟨reset⟩, Lemma 4.7 — the final DAf automaton. ---
  out.machine = compile_weak_broadcast(std::make_shared<ResetOverlay>(
      out.bc_machine, out.detect_machine, out.reset_tagged, enc, num_labels));
  return out;
}

}  // namespace dawn
