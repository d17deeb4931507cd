// Replayable divergence artifacts.
//
// When the fuzzer finds (and shrinks) a divergence it emits two files:
//
//   <name>.case.json   — the full FuzzCase (machine spec, graph, schedule)
//                        plus the pair name and divergence detail, enough to
//                        re-run the check on any host;
//   <name>.trace.jsonl — the obs::TraceLog event stream of the case's
//                        schedule replayed on the incremental engine, so a
//                        divergence can be inspected (and diffed with
//                        TraceLog::first_divergence) without rebuilding.
//
// `dawn_fuzz --replay <file>.case.json` reloads the artifact and re-runs
// its oracle pair; the regression tests pin shrunk artifacts the same way.
#pragma once

#include <initializer_list>
#include <optional>
#include <string>

#include "dawn/fuzz/gen.hpp"
#include "dawn/obs/json.hpp"
#include "dawn/obs/trace_log.hpp"

namespace dawn::fuzz {

// The payload schema version shared by fuzz artifacts and the dawnd wire
// payloads (net/payload.hpp). Every case/request document carries an
// explicit top-level "spec_version"; parsers reject unknown versions AND
// unknown top-level keys with a named error — the schema never silently
// accepts bytes it does not understand (docs/SERVICE.md).
inline constexpr std::int64_t kSpecVersion = 1;

struct DivergenceArtifact {
  std::string pair;    // oracle pair name (oracle.hpp registry)
  std::string detail;  // human-readable divergence description
  FuzzCase c;
};

// The MachineSpec / Graph halves of the schema, exposed separately so the
// dawnd Decide payload (machine + graph + budget, no schedule) reuses the
// byte-exact serialisation the artifacts pin. Both parsers are strict:
// missing, mistyped and unknown keys are named errors.
obs::JsonValue machine_spec_to_json(const MachineSpec& spec);
std::optional<MachineSpec> machine_spec_from_json(const obs::JsonValue& v,
                                                  std::string* error = nullptr);
obs::JsonValue graph_to_json(const Graph& g);
std::optional<Graph> graph_from_json(const obs::JsonValue& v,
                                     std::string* error = nullptr);

// Strict-schema steps, shared with the dawnd payload parsers. Each records
// its failure in *error (when non-null and still empty). require() returns
// v[key] only if it has `kind`, else null; reject_unknown_keys() names the
// first key outside `allowed`; check_spec_version() accepts kSpecVersion
// only.
const obs::JsonValue* require(const obs::JsonValue& v, const char* key,
                              obs::JsonValue::Kind kind, std::string* error);
bool reject_unknown_keys(const obs::JsonValue& v,
                         std::initializer_list<const char*> allowed,
                         std::string* error);
bool check_spec_version(const obs::JsonValue& v, std::string* error);

obs::JsonValue case_to_json(const FuzzCase& c);
std::optional<FuzzCase> case_from_json(const obs::JsonValue& v,
                                       std::string* error = nullptr);

obs::JsonValue artifact_to_json(const DivergenceArtifact& a);
std::optional<DivergenceArtifact> artifact_from_json(
    const obs::JsonValue& v, std::string* error = nullptr);

bool write_artifact(const std::string& path, const DivergenceArtifact& a,
                    std::string* error = nullptr);
std::optional<DivergenceArtifact> load_artifact(const std::string& path,
                                                std::string* error = nullptr);

// The case's schedule (one full cycle) replayed on the incremental engine,
// as a bounded JSONL event stream.
obs::TraceLog trace_case(const FuzzCase& c);

// Parses an AutomatonClass from its xyz name ("dAf", "DAF", ...).
std::optional<AutomatonClass> class_from_name(const std::string& name);

}  // namespace dawn::fuzz
