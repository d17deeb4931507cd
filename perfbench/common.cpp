#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "dawn/util/simd.hpp"

namespace perfbench {

void RunResult::fail(const std::string& what) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

int SpanLog::begin(const std::string& name, int parent) {
  const std::size_t thread =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 1000;
  const auto now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, thread, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) {
  const auto now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].stop = now;
}

bool SpanLog::write_chrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  Json events = Json::array();
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json e = Json::object();
    e.set("name", Json(s.name));
    e.set("ph", Json("X"));
    e.set("ts", Json(us(s.start)));
    e.set("dur", Json(us(s.stop) - us(s.start)));
    e.set("pid", Json(1));
    e.set("tid", Json(static_cast<std::uint64_t>(s.thread)));
    Json a = Json::object();
    a.set("id", Json(static_cast<std::uint64_t>(i)));
    a.set("parent", Json(s.parent));
    e.set("args", std::move(a));
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  std::ofstream out(path);
  out << doc.dump() << "\n";
  return static_cast<bool>(out);
}

Json metrics_json(const Metrics& metrics) {
  Json out = Json::object();
  for (const auto& [name, m] : metrics) {
    Json entry = Json::object();
    entry.set("value", Json(m.value));
    entry.set("unit", Json(m.unit));
    out.set(name, std::move(entry));
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  if (q == 0.5) return median(std::move(v));
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

namespace {

// Peak resident set of this process image in MiB: VmHWM from
// /proc/self/status. getrusage's ru_maxrss is not used because Linux carries
// it across exec, so it would report the launching process's peak whenever
// that was larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

void set_end_to_end(RunResult& result, double setup_s, double work_per_s,
                    double op_ms_p50, double op_ms_tail) {
  result.metrics["setup_s"] = {setup_s, "s"};
  result.metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  result.metrics["work_per_s"] = {work_per_s, "1/s"};
  result.metrics["op_ms_p50"] = {op_ms_p50, "ms"};
  result.metrics["op_ms_tail"] = {op_ms_tail, "ms"};
  result.summary.set(
      "fail_frac",
      Json(static_cast<double>(result.failed) /
           static_cast<double>(std::max<std::uint64_t>(result.attempted, 1))));
}

namespace {

long llc_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return l3;
#endif
  // Fallback: the highest cache level sysfs lists for cpu0.
  long best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    long value = std::atol(text.c_str());
    if (text.back() == 'K') value *= 1024;
    if (text.back() == 'M') value *= 1024 * 1024;
    best = std::max(best, value);
  }
  return best;
}

}  // namespace

Json host_fingerprint() {
  Json fp = Json::object();
  fp.set("nproc", Json(std::thread::hardware_concurrency()));
  fp.set("simd_tier", Json(dawn::simd_tier_name(dawn::simd_tier())));
  fp.set("build_type", Json(PERFBENCH_BUILD_TYPE));
#ifdef DAWN_OBS_DISABLED
  fp.set("dawn_obs", Json(false));
#else
  fp.set("dawn_obs", Json(true));
#endif
  fp.set("llc_bytes", Json(llc_bytes()));
  return fp;
}

}  // namespace perfbench
