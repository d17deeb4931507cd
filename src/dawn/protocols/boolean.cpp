#include "dawn/protocols/boolean.hpp"

#include <algorithm>
#include <map>

#include "dawn/util/check.hpp"
#include "dawn/util/hash.hpp"
#include "dawn/util/interner.hpp"

namespace dawn {
namespace {

class ProductMachine : public Machine {
 public:
  ProductMachine(std::shared_ptr<const Machine> left,
                 std::shared_ptr<const Machine> right, BoolOp op)
      : left_(std::move(left)), right_(std::move(right)), op_(op) {
    DAWN_CHECK(left_ != nullptr && right_ != nullptr);
    DAWN_CHECK(left_->num_labels() == right_->num_labels());
  }

  int beta() const override {
    return std::max(left_->beta(), right_->beta());
  }
  int num_labels() const override { return left_->num_labels(); }

  State init(Label label) const override {
    return pack(left_->init(label), right_->init(label));
  }

  State step(State state, const Neighbourhood& n) const override {
    const auto [l, r] = states_.value(state);
    return pack(left_->step(l, component_view(n, 0, left_->beta())),
                right_->step(r, component_view(n, 1, right_->beta())));
  }

  Verdict verdict(State state) const override {
    const auto [l, r] = states_.value(state);
    const Verdict a = left_->verdict(l);
    const Verdict b = right_->verdict(r);
    if (op_ == BoolOp::And) {
      if (a == Verdict::Reject || b == Verdict::Reject) return Verdict::Reject;
      if (a == Verdict::Accept && b == Verdict::Accept) return Verdict::Accept;
      return Verdict::Neutral;
    }
    if (a == Verdict::Accept || b == Verdict::Accept) return Verdict::Accept;
    if (a == Verdict::Reject && b == Verdict::Reject) return Verdict::Reject;
    return Verdict::Neutral;
  }

  State committed(State state) const override {
    const auto [l, r] = states_.value(state);
    return pack(left_->committed(l), right_->committed(r));
  }

  std::string state_name(State state) const override {
    const auto [l, r] = states_.value(state);
    std::string name = "<";
    name.append(left_->state_name(l))
        .append(" x ")
        .append(right_->state_name(r));
    name += '>';
    return name;
  }

  bool parallel_step_safe() const override {
    return left_->parallel_step_safe() && right_->parallel_step_safe();
  }

 private:
  State pack(State l, State r) const { return states_.id({l, r}); }

  // Projects a product neighbourhood onto one component, re-capping counts
  // at the component's β (min(min(c, β_max), β_i) = min(c, β_i), so the
  // projection is exact for the component machine).
  Neighbourhood component_view(const Neighbourhood& n, int which,
                               int beta) const {
    std::map<State, int> merged;
    for (auto [s, c] : n.entries()) {
      const auto [l, r] = states_.value(s);
      merged[which == 0 ? l : r] += c;
    }
    std::vector<std::pair<State, int>> counts(merged.begin(), merged.end());
    return Neighbourhood::from_counts(counts, beta);
  }

  std::shared_ptr<const Machine> left_;
  std::shared_ptr<const Machine> right_;
  BoolOp op_;
  mutable Interner<std::pair<State, State>, PairHash<State, State>> states_;
};

}  // namespace

std::shared_ptr<Machine> combine(std::shared_ptr<const Machine> left,
                                 std::shared_ptr<const Machine> right,
                                 BoolOp op) {
  return std::make_shared<ProductMachine>(std::move(left), std::move(right),
                                          op);
}

}  // namespace dawn
