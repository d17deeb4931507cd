// perfbench: one run of one workload of the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--records PATH] [--spans PATH]
//   perfbench --selftest
//
// Prints the host fingerprint, the workload's own summary and its
// deterministic counts, then the result line (the last line of stdout):
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// run.py builds this binary, compares the per-op records with earlier runs
// of the same seed and checks the metric names against BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "explore-table|explore-compiled|trials|service --seed N "
               "--seconds S --trace 0|1 [--records PATH] [--spans PATH]\n"
               "       perfbench --selftest\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return run_selftest();
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--records") {
      args.records_path = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds < 1) usage("--seconds must be at least 1");

  const Json fingerprint = host_fingerprint();
  std::printf("perfbench fingerprint %s\n", fingerprint.dump().c_str());
  std::fflush(stdout);

  RunResult r;
  if (args.workload == "explore-table") {
    r = run_explore(args, /*compiled=*/false);
  } else if (args.workload == "explore-compiled") {
    r = run_explore(args, /*compiled=*/true);
  } else if (args.workload == "trials") {
    r = run_trials(args);
  } else if (args.workload == "service") {
    r = run_service(args);
  } else {
    usage(("unknown workload '" + args.workload + "'").c_str());
  }

  std::printf("perfbench summary %s\n", r.summary.dump().c_str());
  std::printf("perfbench counts %s\n", r.counts.dump().c_str());
  if (!args.records_path.empty()) {
    Json records = Json::object();
    for (const auto& [stream, items] : r.records) {
      Json list = Json::array();
      for (const std::string& item : items) list.push_back(Json(item));
      records.set(stream, std::move(list));
    }
    Json doc = Json::object();
    doc.set("fingerprint", fingerprint);
    doc.set("counts", r.counts);
    doc.set("records", std::move(records));
    std::ofstream out(args.records_path);
    out << doc.dump() << "\n";
  }

  Json line = Json::object();
  line.set("correct", Json(r.correct && r.attempted > 0));
  line.set("attempted", Json(r.attempted));
  line.set("failed", Json(r.failed));
  line.set("metrics", metrics_json(r.metrics));
  std::printf("%s\n", line.dump().c_str());
  return 0;
}
