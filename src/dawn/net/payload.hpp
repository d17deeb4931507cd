// The dawnd JSON payload schema (spec_version 1, shared with the fuzz
// artifacts — fuzz/artifact.hpp owns kSpecVersion, the machine/graph
// halves and the strict-schema steps).
//
// Decide request:
//   {
//     "spec_version": 1,
//     "machine": { ...fuzz MachineSpec... },
//     "graph":   { "labels": [...], "edges": [[a,b], ...] },
//     "budget":  { "max_configs": N, "max_threads": N, "deadline_ms": N,
//                  "use_symmetry": b, "max_store_bytes": N }, // all optional
//     "method":  "auto" | "explicit" | ... ,                // optional
//     "trace":   true                                        // optional
//   }
//
// Decide response:
//   {
//     "spec_version": 1,
//     "report": { ...DecisionReport, bit-exact round-trip... },
//     "cache_hit": false,
//     "clamped": true,              // present only when the server clamped
//     "trace_path": "..."           // present only when a trace was dumped
//   }
//
// Parsers are strict (unknown keys and unknown spec_versions are named
// errors) and the serialisers are canonical: a given value always produces
// the same bytes, which is what makes the content-hash result cache and the
// "repeated request returns a bit-identical report" contract work.
#pragma once

#include <optional>
#include <string>

#include "dawn/fuzz/gen.hpp"
#include "dawn/graph/graph.hpp"
#include "dawn/obs/json.hpp"
#include "dawn/semantics/budget.hpp"
#include "dawn/semantics/decision.hpp"

namespace dawn::net {

struct DecideRequest {
  fuzz::MachineSpec machine;
  Graph graph;
  ExploreBudget budget;
  DecideMethod method = DecideMethod::Auto;
  // Ask the server to dump a phase-span Chrome trace for this request and
  // return its path (only honoured when the server was started with a trace
  // directory; cached replies never carry one).
  bool want_trace = false;
};

struct DecideReply {
  DecisionReport report;
  bool cache_hit = false;
  bool clamped = false;  // the server tightened the request's budget
  std::string trace_path;
};

// Canonical serialisation of a Decide request payload. The budget and
// method are always emitted in full (no field elision), so two requests
// that clamp to the same effective budget serialise to the same bytes.
obs::JsonValue decide_request_to_json(const DecideRequest& req);
std::optional<DecideRequest> decide_request_from_json(
    const obs::JsonValue& v, std::string* error = nullptr);

// Bit-exact DecisionReport round-trip: every field (including the memory
// ledger, with zero accounts explicit) is serialised, and parsing restores
// a report that compares == to the original.
obs::JsonValue report_to_json(const DecisionReport& report);
std::optional<DecisionReport> report_from_json(const obs::JsonValue& v,
                                               std::string* error = nullptr);

obs::JsonValue decide_reply_to_json(const DecideReply& reply);
std::optional<DecideReply> decide_reply_from_json(
    const obs::JsonValue& v, std::string* error = nullptr);

// The result cache's content key: the canonical single-line dump of
// (machine, graph, budget, method) — nonce and trace flag excluded, so
// retries and trace-requesting repeats hit the same entry. The server keys
// on the CLAMPED budget, so requests that only differ above the server caps
// share an entry.
std::string cache_key(const DecideRequest& req);

// Parses a DecideMethod from its to_string() name; nullopt on junk.
std::optional<DecideMethod> method_from_name(const std::string& name);

}  // namespace dawn::net
