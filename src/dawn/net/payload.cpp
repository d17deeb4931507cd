#include "dawn/net/payload.hpp"

#include "dawn/fuzz/artifact.hpp"
#include "dawn/obs/memory_ledger.hpp"

namespace dawn::net {
namespace {

using Kind = obs::JsonValue::Kind;
using fuzz::check_spec_version;
using fuzz::reject_unknown_keys;
using fuzz::require;

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr && error->empty()) *error = what;
  return false;
}

obs::JsonValue budget_to_json(const ExploreBudget& b) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("max_configs", obs::JsonValue(b.max_configs));
  out.set("max_threads", obs::JsonValue(b.max_threads));
  out.set("deadline_ms", obs::JsonValue(b.deadline_ms));
  out.set("use_symmetry", obs::JsonValue(b.use_symmetry));
  // Emitted only when set so spec-v1 request bytes without spilling stay
  // pinned. spill_dir never crosses the wire: the server substitutes its
  // own --spill-dir, and the path cannot change a decision.
  if (b.max_store_bytes != 0) {
    out.set("max_store_bytes", obs::JsonValue(b.max_store_bytes));
  }
  return out;
}

bool budget_from_json(const obs::JsonValue& v, ExploreBudget* out,
                      std::string* error) {
  if (v.kind() != Kind::Object) return fail(error, "budget must be an object");
  if (!reject_unknown_keys(v,
                           {"max_configs", "max_threads", "deadline_ms",
                            "use_symmetry", "use_packing", "max_store_bytes"},
                           error)) {
    return false;
  }
  // Every field is optional (the default budget fills in), but a present
  // field must have the right type and a sane range.
  if (const obs::JsonValue* f = v.get("max_configs")) {
    if (f->kind() != Kind::Int || f->as_int() < 0) {
      return fail(error, "missing or mistyped field: max_configs");
    }
    out->max_configs = static_cast<std::size_t>(f->as_int());
  }
  if (const obs::JsonValue* f = v.get("max_threads")) {
    if (f->kind() != Kind::Int || f->as_int() < 0 || f->as_int() > 4096) {
      return fail(error, "missing or mistyped field: max_threads");
    }
    out->max_threads = static_cast<int>(f->as_int());
  }
  if (const obs::JsonValue* f = v.get("deadline_ms")) {
    if (f->kind() != Kind::Int || f->as_int() < 0) {
      return fail(error, "missing or mistyped field: deadline_ms");
    }
    out->deadline_ms = static_cast<std::uint64_t>(f->as_int());
  }
  if (const obs::JsonValue* f = v.get("use_symmetry")) {
    if (f->kind() != Kind::Bool) {
      return fail(error, "missing or mistyped field: use_symmetry");
    }
    out->use_symmetry = f->as_bool();
  }
  // Spec-v1 clients may still send the retired packing flag; the engine now
  // packs whenever the machine allows, so a boolean is accepted and ignored.
  if (const obs::JsonValue* f = v.get("use_packing")) {
    if (f->kind() != Kind::Bool) {
      return fail(error, "missing or mistyped field: use_packing");
    }
  }
  if (const obs::JsonValue* f = v.get("max_store_bytes")) {
    if (f->kind() != Kind::Int || f->as_int() < 0) {
      return fail(error, "missing or mistyped field: max_store_bytes");
    }
    out->max_store_bytes = static_cast<std::size_t>(f->as_int());
  }
  return true;
}

}  // namespace

std::optional<DecideMethod> method_from_name(const std::string& name) {
  for (const DecideMethod m :
       {DecideMethod::Auto, DecideMethod::Explicit,
        DecideMethod::ExplicitLiberal, DecideMethod::CountedClique,
        DecideMethod::CountedStar, DecideMethod::Synchronous,
        DecideMethod::Simulate}) {
    if (to_string(m) == name) return m;
  }
  return std::nullopt;
}

obs::JsonValue decide_request_to_json(const DecideRequest& req) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("spec_version", obs::JsonValue(fuzz::kSpecVersion));
  out.set("machine", fuzz::machine_spec_to_json(req.machine));
  out.set("graph", fuzz::graph_to_json(req.graph));
  out.set("budget", budget_to_json(req.budget));
  out.set("method", obs::JsonValue(to_string(req.method)));
  if (req.want_trace) out.set("trace", obs::JsonValue(true));
  return out;
}

std::optional<DecideRequest> decide_request_from_json(const obs::JsonValue& v,
                                                      std::string* error) {
  if (v.kind() != Kind::Object) {
    fail(error, "request must be an object");
    return std::nullopt;
  }
  if (!reject_unknown_keys(v,
                           {"spec_version", "machine", "graph", "budget",
                            "method", "trace"},
                           error)) {
    return std::nullopt;
  }
  if (!check_spec_version(v, error)) return std::nullopt;

  DecideRequest req;
  const obs::JsonValue* machine = require(v, "machine", Kind::Object, error);
  if (machine == nullptr) return std::nullopt;
  auto spec = fuzz::machine_spec_from_json(*machine, error);
  if (!spec) return std::nullopt;
  req.machine = *spec;

  const obs::JsonValue* graph = require(v, "graph", Kind::Object, error);
  if (graph == nullptr) return std::nullopt;
  auto g = fuzz::graph_from_json(*graph, error);
  if (!g) return std::nullopt;
  req.graph = std::move(*g);

  if (const obs::JsonValue* b = v.get("budget")) {
    if (!budget_from_json(*b, &req.budget, error)) return std::nullopt;
  }
  if (const obs::JsonValue* m = v.get("method")) {
    if (m->kind() != Kind::String) {
      fail(error, "missing or mistyped field: method");
      return std::nullopt;
    }
    const auto method = method_from_name(m->as_string());
    if (!method) {
      fail(error, "bad method: " + m->as_string());
      return std::nullopt;
    }
    req.method = *method;
  }
  if (const obs::JsonValue* t = v.get("trace")) {
    if (t->kind() != Kind::Bool) {
      fail(error, "missing or mistyped field: trace");
      return std::nullopt;
    }
    req.want_trace = t->as_bool();
  }
  return req;
}

obs::JsonValue report_to_json(const DecisionReport& report) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("decision", obs::JsonValue(to_string(report.decision)));
  out.set("unknown_reason", obs::JsonValue(to_string(report.unknown_reason)));
  out.set("method", obs::JsonValue(to_string(report.method)));
  out.set("configs_explored", obs::JsonValue(report.configs_explored));
  out.set("num_bottom_sccs", obs::JsonValue(report.num_bottom_sccs));
  out.set("budget_exhausted", obs::JsonValue(report.budget_exhausted));
  out.set("exact", obs::JsonValue(report.exact));
  out.set("symmetry_reduced", obs::JsonValue(report.symmetry_reduced));
  out.set("packed_store", obs::JsonValue(report.packed_store));
  // Memory ledger, every account explicit (zeros included) so the parse is
  // a bit-exact inverse.
  obs::JsonValue memory = obs::JsonValue::object();
  for (std::size_t i = 0; i < obs::kNumMemoryAccounts; ++i) {
    const auto account = static_cast<obs::MemoryAccount>(i);
    memory.set(obs::name(account), obs::JsonValue(report.memory.get(account)));
  }
  out.set("memory", std::move(memory));
  return out;
}

std::optional<DecisionReport> report_from_json(const obs::JsonValue& v,
                                               std::string* error) {
  if (v.kind() != Kind::Object) {
    fail(error, "report must be an object");
    return std::nullopt;
  }
  DecisionReport report;

  const obs::JsonValue* decision = require(v, "decision", Kind::String, error);
  if (decision == nullptr) return std::nullopt;
  bool found = false;
  for (const Decision d : {Decision::Accept, Decision::Reject,
                           Decision::Inconsistent, Decision::Unknown}) {
    if (to_string(d) == decision->as_string()) {
      report.decision = d;
      found = true;
    }
  }
  if (!found) {
    fail(error, "bad decision: " + decision->as_string());
    return std::nullopt;
  }

  const obs::JsonValue* reason =
      require(v, "unknown_reason", Kind::String, error);
  if (reason == nullptr) return std::nullopt;
  found = false;
  for (const UnknownReason r :
       {UnknownReason::None, UnknownReason::ConfigCap, UnknownReason::Deadline,
        UnknownReason::StepCap, UnknownReason::Inconclusive,
        UnknownReason::CrossCheck, UnknownReason::MemoryCap}) {
    if (to_string(r) == reason->as_string()) {
      report.unknown_reason = r;
      found = true;
    }
  }
  if (!found) {
    fail(error, "bad unknown_reason: " + reason->as_string());
    return std::nullopt;
  }

  const obs::JsonValue* method = require(v, "method", Kind::String, error);
  if (method == nullptr) return std::nullopt;
  const auto m = method_from_name(method->as_string());
  if (!m) {
    fail(error, "bad method: " + method->as_string());
    return std::nullopt;
  }
  report.method = *m;

  const obs::JsonValue* configs =
      require(v, "configs_explored", Kind::Int, error);
  const obs::JsonValue* sccs = require(v, "num_bottom_sccs", Kind::Int, error);
  if (configs == nullptr || sccs == nullptr) return std::nullopt;
  report.configs_explored = static_cast<std::size_t>(configs->as_int());
  report.num_bottom_sccs = static_cast<std::size_t>(sccs->as_int());

  for (const auto& [key, dst] :
       std::vector<std::pair<const char*, bool*>>{
           {"budget_exhausted", &report.budget_exhausted},
           {"exact", &report.exact},
           {"symmetry_reduced", &report.symmetry_reduced},
           {"packed_store", &report.packed_store}}) {
    const obs::JsonValue* field = require(v, key, Kind::Bool, error);
    if (field == nullptr) return std::nullopt;
    *dst = field->as_bool();
  }

  const obs::JsonValue* memory = require(v, "memory", Kind::Object, error);
  if (memory == nullptr) return std::nullopt;
  for (std::size_t i = 0; i < obs::kNumMemoryAccounts; ++i) {
    const auto account = static_cast<obs::MemoryAccount>(i);
    const obs::JsonValue* field =
        require(*memory, obs::name(account), Kind::Int, error);
    if (field == nullptr) return std::nullopt;
    report.memory.bytes[i] = static_cast<std::uint64_t>(field->as_int());
  }
  return report;
}

obs::JsonValue decide_reply_to_json(const DecideReply& reply) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("spec_version", obs::JsonValue(fuzz::kSpecVersion));
  out.set("report", report_to_json(reply.report));
  out.set("cache_hit", obs::JsonValue(reply.cache_hit));
  if (reply.clamped) out.set("clamped", obs::JsonValue(true));
  if (!reply.trace_path.empty()) {
    out.set("trace_path", obs::JsonValue(reply.trace_path));
  }
  return out;
}

std::optional<DecideReply> decide_reply_from_json(const obs::JsonValue& v,
                                                  std::string* error) {
  if (v.kind() != Kind::Object) {
    fail(error, "reply must be an object");
    return std::nullopt;
  }
  if (!reject_unknown_keys(
          v, {"spec_version", "report", "cache_hit", "clamped", "trace_path"},
          error)) {
    return std::nullopt;
  }
  if (!check_spec_version(v, error)) return std::nullopt;

  DecideReply reply;
  const obs::JsonValue* report = require(v, "report", Kind::Object, error);
  if (report == nullptr) return std::nullopt;
  auto r = report_from_json(*report, error);
  if (!r) return std::nullopt;
  reply.report = *r;

  const obs::JsonValue* hit = require(v, "cache_hit", Kind::Bool, error);
  if (hit == nullptr) return std::nullopt;
  reply.cache_hit = hit->as_bool();

  if (const obs::JsonValue* c = v.get("clamped")) {
    if (c->kind() != Kind::Bool) {
      fail(error, "missing or mistyped field: clamped");
      return std::nullopt;
    }
    reply.clamped = c->as_bool();
  }
  if (const obs::JsonValue* t = v.get("trace_path")) {
    if (t->kind() != Kind::String) {
      fail(error, "missing or mistyped field: trace_path");
      return std::nullopt;
    }
    reply.trace_path = t->as_string();
  }
  return reply;
}

std::string cache_key(const DecideRequest& req) {
  obs::JsonValue key = obs::JsonValue::object();
  key.set("machine", fuzz::machine_spec_to_json(req.machine));
  key.set("graph", fuzz::graph_to_json(req.graph));
  key.set("budget", budget_to_json(req.budget));
  key.set("method", obs::JsonValue(to_string(req.method)));
  return key.dump();
}

}  // namespace dawn::net
