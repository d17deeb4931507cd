#include "dawn/fuzz/artifact.hpp"

#include <fstream>
#include <initializer_list>
#include <sstream>

#include "dawn/sched/replay.hpp"
#include "dawn/semantics/simulate.hpp"

namespace dawn::fuzz {
namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr && error->empty()) *error = what;
  return false;
}

}  // namespace

const obs::JsonValue* require(const obs::JsonValue& v, const char* key,
                              obs::JsonValue::Kind kind, std::string* error) {
  const obs::JsonValue* field = v.get(key);
  if (field == nullptr || field->kind() != kind) {
    fail(error, std::string("missing or mistyped field: ") + key);
    return nullptr;
  }
  return field;
}

// Strict-schema guard: every member key must appear in `allowed`. Unknown
// keys are a named error, never silently dropped — a request written against
// a future schema revision must fail loudly, not half-apply.
bool reject_unknown_keys(const obs::JsonValue& v,
                         std::initializer_list<const char*> allowed,
                         std::string* error) {
  for (const auto& [key, value] : v.members()) {
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) return fail(error, "unknown top-level key: " + key);
  }
  return true;
}

bool check_spec_version(const obs::JsonValue& v, std::string* error) {
  const obs::JsonValue* field =
      require(v, "spec_version", obs::JsonValue::Kind::Int, error);
  if (field == nullptr) return false;
  if (field->as_int() != kSpecVersion) {
    return fail(error,
                "unknown spec_version: " + std::to_string(field->as_int()));
  }
  return true;
}

namespace {

std::optional<FuzzCase> case_from_json_impl(
    const obs::JsonValue& v, std::string* error,
    std::initializer_list<const char*> allowed);

}  // namespace

std::optional<AutomatonClass> class_from_name(const std::string& name) {
  if (name.size() != 3) return std::nullopt;
  AutomatonClass cls;
  if (name[0] == 'd') cls.detection = DetectionKind::NonCounting;
  else if (name[0] == 'D') cls.detection = DetectionKind::Counting;
  else return std::nullopt;
  if (name[1] == 'a') cls.acceptance = AcceptanceKind::Halting;
  else if (name[1] == 'A') cls.acceptance = AcceptanceKind::StableConsensus;
  else return std::nullopt;
  if (name[2] == 'f') cls.fairness = FairnessKind::Adversarial;
  else if (name[2] == 'F') cls.fairness = FairnessKind::PseudoStochastic;
  else return std::nullopt;
  return cls;
}

obs::JsonValue machine_spec_to_json(const MachineSpec& spec) {
  obs::JsonValue machine = obs::JsonValue::object();
  machine.set("class", obs::JsonValue(spec.cls.name()));
  machine.set("states", obs::JsonValue(spec.num_states));
  machine.set("labels", obs::JsonValue(spec.num_labels));
  machine.set("beta", obs::JsonValue(spec.beta));
  machine.set("seed", obs::JsonValue(spec.seed));
  machine.set("halt_accept", obs::JsonValue(spec.halt_accept));
  machine.set("halt_reject", obs::JsonValue(spec.halt_reject));
  return machine;
}

std::optional<MachineSpec> machine_spec_from_json(const obs::JsonValue& v,
                                                  std::string* error) {
  using Kind = obs::JsonValue::Kind;
  if (v.kind() != Kind::Object) {
    fail(error, "machine must be an object");
    return std::nullopt;
  }
  if (!reject_unknown_keys(v,
                           {"class", "states", "labels", "beta", "seed",
                            "halt_accept", "halt_reject"},
                           error)) {
    return std::nullopt;
  }
  MachineSpec spec;
  const obs::JsonValue* cls = require(v, "class", Kind::String, error);
  if (cls == nullptr) return std::nullopt;
  const auto parsed_cls = class_from_name(cls->as_string());
  if (!parsed_cls) {
    fail(error, "bad machine class: " + cls->as_string());
    return std::nullopt;
  }
  spec.cls = *parsed_cls;
  for (const auto& [key, dst] :
       std::vector<std::pair<const char*, int*>>{
           {"states", &spec.num_states},
           {"labels", &spec.num_labels},
           {"beta", &spec.beta},
           {"halt_accept", &spec.halt_accept},
           {"halt_reject", &spec.halt_reject}}) {
    const obs::JsonValue* field = require(v, key, Kind::Int, error);
    if (field == nullptr) return std::nullopt;
    *dst = static_cast<int>(field->as_int());
  }
  const obs::JsonValue* seed = require(v, "seed", Kind::Int, error);
  if (seed == nullptr) return std::nullopt;
  spec.seed = static_cast<std::uint64_t>(seed->as_int());
  return spec;
}

obs::JsonValue graph_to_json(const Graph& g) {
  obs::JsonValue graph = obs::JsonValue::object();
  obs::JsonValue labels = obs::JsonValue::array();
  for (NodeId v = 0; v < g.n(); ++v) {
    labels.push_back(obs::JsonValue(g.label(v)));
  }
  graph.set("labels", std::move(labels));
  obs::JsonValue edges = obs::JsonValue::array();
  for (NodeId v = 0; v < g.n(); ++v) {
    for (NodeId u : g.neighbours(v)) {
      if (v < u) {
        obs::JsonValue edge = obs::JsonValue::array();
        edge.push_back(obs::JsonValue(v));
        edge.push_back(obs::JsonValue(u));
        edges.push_back(std::move(edge));
      }
    }
  }
  graph.set("edges", std::move(edges));
  return graph;
}

std::optional<Graph> graph_from_json(const obs::JsonValue& v,
                                     std::string* error) {
  using Kind = obs::JsonValue::Kind;
  if (v.kind() != Kind::Object) {
    fail(error, "graph must be an object");
    return std::nullopt;
  }
  if (!reject_unknown_keys(v, {"labels", "edges"}, error)) return std::nullopt;
  const obs::JsonValue* labels = require(v, "labels", Kind::Array, error);
  const obs::JsonValue* edges = require(v, "edges", Kind::Array, error);
  if (labels == nullptr || edges == nullptr) return std::nullopt;
  GraphBuilder b;
  for (std::size_t i = 0; i < labels->size(); ++i) {
    if (labels->at(i).kind() != Kind::Int) {
      fail(error, "graph labels must be integers");
      return std::nullopt;
    }
    b.add_node(static_cast<Label>(labels->at(i).as_int()));
  }
  const auto n = static_cast<std::int64_t>(labels->size());
  for (std::size_t i = 0; i < edges->size(); ++i) {
    const obs::JsonValue& edge = edges->at(i);
    if (edge.kind() != Kind::Array || edge.size() != 2 ||
        edge.at(0).kind() != Kind::Int || edge.at(1).kind() != Kind::Int) {
      fail(error, "bad edge entry");
      return std::nullopt;
    }
    const std::int64_t a = edge.at(0).as_int();
    const std::int64_t bb = edge.at(1).as_int();
    if (a < 0 || a >= n || bb < 0 || bb >= n || a == bb) {
      fail(error, "edge endpoint out of range");
      return std::nullopt;
    }
    b.add_edge(static_cast<NodeId>(a), static_cast<NodeId>(bb));
  }
  return std::move(b).build();
}

obs::JsonValue case_to_json(const FuzzCase& c) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("spec_version", obs::JsonValue(kSpecVersion));
  out.set("machine", machine_spec_to_json(c.machine));
  out.set("graph", graph_to_json(c.graph));
  out.set("shape", obs::JsonValue(c.shape));

  obs::JsonValue schedule = obs::JsonValue::array();
  for (const Selection& sel : c.schedule) {
    obs::JsonValue step = obs::JsonValue::array();
    for (NodeId v : sel) step.push_back(obs::JsonValue(v));
    schedule.push_back(std::move(step));
  }
  out.set("schedule", std::move(schedule));
  return out;
}

namespace {

std::optional<FuzzCase> case_from_json_impl(
    const obs::JsonValue& v, std::string* error,
    std::initializer_list<const char*> allowed) {
  using Kind = obs::JsonValue::Kind;
  FuzzCase c;

  if (!reject_unknown_keys(v, allowed, error)) return std::nullopt;
  if (!check_spec_version(v, error)) return std::nullopt;

  const obs::JsonValue* machine = require(v, "machine", Kind::Object, error);
  if (machine == nullptr) return std::nullopt;
  auto spec = machine_spec_from_json(*machine, error);
  if (!spec) return std::nullopt;
  c.machine = *spec;

  const obs::JsonValue* graph = require(v, "graph", Kind::Object, error);
  if (graph == nullptr) return std::nullopt;
  auto g = graph_from_json(*graph, error);
  if (!g) return std::nullopt;
  c.graph = std::move(*g);
  const std::int64_t n = c.graph.n();

  const obs::JsonValue* shape = require(v, "shape", Kind::String, error);
  if (shape == nullptr) return std::nullopt;
  c.shape = shape->as_string();

  const obs::JsonValue* schedule = require(v, "schedule", Kind::Array, error);
  if (schedule == nullptr) return std::nullopt;
  for (std::size_t i = 0; i < schedule->size(); ++i) {
    const obs::JsonValue& step = schedule->at(i);
    if (step.kind() != Kind::Array || step.size() == 0) {
      fail(error, "schedule selections must be nonempty arrays");
      return std::nullopt;
    }
    Selection sel;
    for (std::size_t j = 0; j < step.size(); ++j) {
      const std::int64_t node = step.at(j).as_int();
      if (node < 0 || node >= n) {
        fail(error, "schedule node out of range");
        return std::nullopt;
      }
      sel.push_back(static_cast<NodeId>(node));
    }
    c.schedule.push_back(std::move(sel));
  }
  if (c.schedule.empty()) {
    fail(error, "schedule must be nonempty");
    return std::nullopt;
  }
  return c;
}

}  // namespace

std::optional<FuzzCase> case_from_json(const obs::JsonValue& v,
                                       std::string* error) {
  return case_from_json_impl(
      v, error, {"spec_version", "machine", "graph", "shape", "schedule"});
}

obs::JsonValue artifact_to_json(const DivergenceArtifact& a) {
  obs::JsonValue out = case_to_json(a.c);
  // Prepend-by-convention: set() preserves insertion order, so emit into a
  // fresh object with pair/detail first for readability.
  obs::JsonValue wrapped = obs::JsonValue::object();
  wrapped.set("pair", obs::JsonValue(a.pair));
  wrapped.set("detail", obs::JsonValue(a.detail));
  for (const auto& [key, value] : out.members()) {
    wrapped.set(key, value);
  }
  return wrapped;
}

std::optional<DivergenceArtifact> artifact_from_json(const obs::JsonValue& v,
                                                     std::string* error) {
  using Kind = obs::JsonValue::Kind;
  DivergenceArtifact a;
  const obs::JsonValue* pair = require(v, "pair", Kind::String, error);
  const obs::JsonValue* detail = require(v, "detail", Kind::String, error);
  if (pair == nullptr || detail == nullptr) return std::nullopt;
  a.pair = pair->as_string();
  a.detail = detail->as_string();
  auto c = case_from_json_impl(v, error,
                               {"pair", "detail", "spec_version", "machine",
                                "graph", "shape", "schedule"});
  if (!c) return std::nullopt;
  a.c = std::move(*c);
  return a;
}

bool write_artifact(const std::string& path, const DivergenceArtifact& a,
                    std::string* error) {
  std::ofstream out(path);
  if (!out) return fail(error, "cannot open " + path);
  out << artifact_to_json(a).dump(2) << '\n';
  if (!out) return fail(error, "write failed: " + path);
  return true;
}

std::optional<DivergenceArtifact> load_artifact(const std::string& path,
                                                std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, "cannot open " + path);
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string parse_error;
  const auto v = obs::JsonValue::parse(buffer.str(), &parse_error);
  if (!v) {
    fail(error, path + ": " + parse_error);
    return std::nullopt;
  }
  return artifact_from_json(*v, error);
}

obs::TraceLog trace_case(const FuzzCase& c) {
  obs::TraceLog trace;
  const auto machine = build_machine(c.machine);
  ReplayScheduler replay(c.schedule);
  SimulateOptions opts;
  opts.max_steps = c.schedule.size();
  opts.stable_window = c.schedule.size() + 1;  // never converge early
  opts.trace = &trace;
  simulate(*machine, c.graph, replay, opts);
  return trace;
}

}  // namespace dawn::fuzz
