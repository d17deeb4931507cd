// dawn_client — the dawnd CLI (docs/SERVICE.md).
//
//   dawn_client [--connect ADDR] ping
//   dawn_client [--connect ADDR] stats
//   dawn_client [--connect ADDR] decide
//       [--class dAf] [--states N] [--labels N] [--beta N] [--seed N]
//       [--halt-accept N] [--halt-reject N]
//       [--graph clique:N|star:N|line:N|cycle:N] [--graph-labels N]
//       [--method auto|explicit|...] [--max-configs N] [--max-threads N]
//       [--deadline-ms N] [--symmetry] [--trace] [--repeat N]
//   dawn_client [--connect ADDR] garbage
//
// Global connection knobs: --connect-timeout-ms N (per-attempt connect
// timeout) and --retries N (bounded jittered retries after a failed
// connect).
//
// `decide` sends the same seeded MachineSpec + graph-family payload the
// fuzz artifacts use and prints the reply report as JSON (one line per
// repeat; repeats after the first should report "cache_hit": true).
// `garbage` sends one deliberately malformed frame and exits 0 iff the
// server answers with a structured error frame — the CI service-smoke job
// asserts malformed input is rejected, not dropped.
//
// Exit codes: 0 ok, 1 transport/server failure, 2 usage error.
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dawn/fuzz/artifact.hpp"
#include "dawn/graph/generators.hpp"
#include "dawn/net/client.hpp"
#include "dawn/net/payload.hpp"
#include "dawn/util/parse.hpp"

using namespace dawn;

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& why = "") {
  if (!why.empty()) std::fprintf(stderr, "error: %s\n\n", why.c_str());
  std::fprintf(stderr,
               "usage: %s [--connect ADDR] [--connect-timeout-ms N]\n"
               "          [--retries N] ping|stats|garbage\n"
               "       %s [--connect ADDR] decide [--class dAf] [--states N]\n"
               "          [--labels N] [--beta N] [--seed N] [--halt-accept N]\n"
               "          [--halt-reject N] [--graph FAMILY:N]\n"
               "          [--graph-labels N] [--method NAME] [--max-configs N]\n"
               "          [--max-threads N] [--deadline-ms N] [--symmetry]\n"
               "          [--trace] [--repeat N]\n",
               argv0, argv0);
  std::exit(2);
}

std::int64_t require_int(const char* argv0, const char* flag,
                         const std::string& token, std::int64_t lo,
                         std::int64_t hi) {
  const auto v = parse_int(token, lo, hi);
  if (!v) {
    usage(argv0, std::string(flag) + " needs an integer in [" +
                     std::to_string(lo) + ", " + std::to_string(hi) +
                     "], got '" + token + "'");
  }
  return *v;
}

// "clique:N" / "star:N" / "line:N" / "cycle:N" with labels cycling through
// [0, num_labels).
Graph make_family(const char* argv0, const std::string& text, int num_labels) {
  const auto colon = text.find(':');
  if (colon == std::string::npos) usage(argv0, "--graph needs FAMILY:N");
  const std::string family = text.substr(0, colon);
  const auto n = parse_int(text.substr(colon + 1), 1, 64);
  if (!n) usage(argv0, "--graph size must be in [1, 64]");
  std::vector<Label> labels(static_cast<std::size_t>(*n));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<Label>(i % static_cast<std::size_t>(num_labels));
  }
  if (family == "clique") return make_clique(labels);
  if (family == "cycle") return make_cycle(labels);
  if (family == "line") return make_line(labels);
  if (family == "star") {
    if (labels.size() < 2) usage(argv0, "star needs at least 2 nodes");
    return make_star(labels[0], {labels.begin() + 1, labels.end()});
  }
  usage(argv0, "unknown graph family: " + family);
}

int garbage_mode(net::Client& client) {
  // A frame whose magic is wrong: the framing layer must answer with a
  // structured error frame (bad-magic) before closing.
  auto bytes = net::encode_frame(net::Action::Ping, net::FrameKind::Request,
                                 99, "");
  bytes[0] ^= 0xff;
  std::string error;
  if (!client.send_raw(bytes.data(), bytes.size(), &error)) {
    std::fprintf(stderr, "garbage: send failed: %s\n", error.c_str());
    return 1;
  }
  net::Frame reply;
  bool closed = false;
  if (!client.read_frame(&reply, &closed, &error, 10'000)) {
    std::fprintf(stderr, "garbage: no reply frame: %s\n", error.c_str());
    return 1;
  }
  if (reply.header.kind != net::FrameKind::Error) {
    std::fprintf(stderr, "garbage: expected an error frame, got kind %s\n",
                 net::name(reply.header.kind));
    return 1;
  }
  std::printf("garbage rejected: %s\n", reply.payload.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string address = "tcp:127.0.0.1:7177";
  std::string command;
  net::DecideRequest req;
  req.machine.cls = {};  // dAf by default (struct defaults)
  std::string cls_name = "dAf";
  std::string graph_spec = "clique:4";
  int graph_labels = 2;
  int repeat = 1;
  net::ConnectOptions copts;

  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (int i = 1; i < argc; ++i) {
    const auto flag_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) usage(argv[0], std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--connect")) {
      address = flag_value("--connect");
    } else if (!std::strcmp(argv[i], "--connect-timeout-ms")) {
      copts.timeout_ms = static_cast<std::uint64_t>(
          require_int(argv[0], "--connect-timeout-ms",
                      flag_value("--connect-timeout-ms"), 1, kMax));
    } else if (!std::strcmp(argv[i], "--retries")) {
      copts.retries = static_cast<int>(
          require_int(argv[0], "--retries", flag_value("--retries"), 0, 1000));
    } else if (!std::strcmp(argv[i], "--class")) {
      cls_name = flag_value("--class");
    } else if (!std::strcmp(argv[i], "--states")) {
      req.machine.num_states = static_cast<int>(
          require_int(argv[0], "--states", flag_value("--states"), 1, 64));
    } else if (!std::strcmp(argv[i], "--labels")) {
      req.machine.num_labels = static_cast<int>(
          require_int(argv[0], "--labels", flag_value("--labels"), 1, 16));
    } else if (!std::strcmp(argv[i], "--beta")) {
      req.machine.beta = static_cast<int>(
          require_int(argv[0], "--beta", flag_value("--beta"), 1, 8));
    } else if (!std::strcmp(argv[i], "--seed")) {
      const auto v = parse_uint64(flag_value("--seed"));
      if (!v) usage(argv[0], "--seed needs a non-negative integer");
      req.machine.seed = *v;
    } else if (!std::strcmp(argv[i], "--halt-accept")) {
      req.machine.halt_accept = static_cast<int>(require_int(
          argv[0], "--halt-accept", flag_value("--halt-accept"), 0, 64));
    } else if (!std::strcmp(argv[i], "--halt-reject")) {
      req.machine.halt_reject = static_cast<int>(require_int(
          argv[0], "--halt-reject", flag_value("--halt-reject"), 0, 64));
    } else if (!std::strcmp(argv[i], "--graph")) {
      graph_spec = flag_value("--graph");
    } else if (!std::strcmp(argv[i], "--graph-labels")) {
      graph_labels = static_cast<int>(require_int(
          argv[0], "--graph-labels", flag_value("--graph-labels"), 1, 16));
    } else if (!std::strcmp(argv[i], "--method")) {
      const auto m = net::method_from_name(flag_value("--method"));
      if (!m) usage(argv[0], "unknown method (see docs/DECIDERS.md)");
      req.method = *m;
    } else if (!std::strcmp(argv[i], "--max-configs")) {
      req.budget.max_configs = static_cast<std::size_t>(require_int(
          argv[0], "--max-configs", flag_value("--max-configs"), 1, kMax));
    } else if (!std::strcmp(argv[i], "--max-threads")) {
      req.budget.max_threads = static_cast<int>(require_int(
          argv[0], "--max-threads", flag_value("--max-threads"), 0, 4096));
    } else if (!std::strcmp(argv[i], "--deadline-ms")) {
      req.budget.deadline_ms = static_cast<std::uint64_t>(require_int(
          argv[0], "--deadline-ms", flag_value("--deadline-ms"), 0, kMax));
    } else if (!std::strcmp(argv[i], "--symmetry")) {
      req.budget.use_symmetry = true;
    } else if (!std::strcmp(argv[i], "--trace")) {
      req.want_trace = true;
    } else if (!std::strcmp(argv[i], "--repeat")) {
      repeat = static_cast<int>(
          require_int(argv[0], "--repeat", flag_value("--repeat"), 1, 100000));
    } else if (argv[i][0] == '-') {
      usage(argv[0], std::string("unknown option: ") + argv[i]);
    } else if (command.empty()) {
      command = argv[i];
    } else {
      usage(argv[0], std::string("unexpected argument: ") + argv[i]);
    }
  }
  if (command.empty()) usage(argv[0], "a command is required");

  net::Client client;
  std::string error;
  if (!client.connect(address, copts, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  if (command == "ping") {
    if (!client.ping(&error)) {
      std::fprintf(stderr, "ping: %s\n", error.c_str());
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }
  if (command == "stats") {
    const auto stats = client.cache_stats(&error);
    if (!stats) {
      std::fprintf(stderr, "stats: %s\n", error.c_str());
      return 1;
    }
    std::printf("%s\n", stats->dump(2).c_str());
    return 0;
  }
  if (command == "garbage") return garbage_mode(client);
  if (command != "decide") usage(argv[0], "unknown command: " + command);

  const auto cls = fuzz::class_from_name(cls_name);
  if (!cls) usage(argv[0], "unknown automaton class: " + cls_name);
  req.machine.cls = *cls;
  req.graph = make_family(argv[0], graph_spec, graph_labels);

  for (int i = 0; i < repeat; ++i) {
    const auto reply = client.decide(req, &error);
    if (!reply) {
      std::fprintf(stderr, "decide: %s\n", error.c_str());
      return 1;
    }
    std::printf("%s\n", net::decide_reply_to_json(*reply).dump().c_str());
  }
  return 0;
}
