#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

// One numeric field of /proc/self/status ("VmHWM:   12345 kB"); -1 when
// the field is missing.
double proc_status_field(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double value = -1.0;
  const std::size_t len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, len) == 0 && line[len] == ':') {
      value = std::strtod(line + len + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return value;
}

// JSON string literal body: the names and units here are plain ASCII, but
// escape the two characters that could break the line anyway.
std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

double peak_rss_mb() { return proc_status_field("VmHWM") / 1024.0; }
double rss_mb() { return proc_status_field("VmRSS") / 1024.0; }
int threads_alive() {
  return static_cast<int>(proc_status_field("Threads"));
}

void fresh_heap() {
  malloc_trim(0);
  // Writing 5 to clear_refs resets VmHWM to the current RSS, so each
  // iteration's peak excludes what the previous iteration's checks held.
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

bool inputs_ready(const Options& o) {
  std::printf("READY\n");
  std::fflush(stdout);
  return o.setup_only;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? std::nan("") : *std::min_element(v.begin(), v.end());
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

bool same_counters(const nbv6::traffic::SimulationStats& a,
                   const nbv6::traffic::SimulationStats& b) {
  return a.sessions == b.sessions && a.flows == b.flows &&
         a.skipped_invisible == b.skipped_invisible &&
         a.he_failures == b.he_failures &&
         a.outage_suppressed == b.outage_suppressed &&
         a.service_outage_failed == b.service_outage_failed &&
         a.cgn_failures == b.cgn_failures && a.daily == b.daily;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::fastest_metric(const std::string& name,
                            const std::vector<double>& v,
                            const std::string& unit) {
  samples(name, v, unit);
  metric(name, fastest(v), unit);
}

void Report::samples(const std::string& name, const std::vector<double>& v,
                     const std::string& unit) const {
  std::string line = name + ": " + std::to_string(v.size()) + " samples";
  char buf[64];
  if (v.size() <= 20) {  // tiny smoke runs make hundreds
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.6g", i == 0 ? " [" : " ", v[i]);
      line += buf;
    }
    line += "]";
  }
  std::snprintf(buf, sizeof buf, " %s, median %.6g, fastest %.6g",
                unit.c_str(), median(v), fastest(v));
  note(line + buf);
}

std::size_t Report::begin_op() {
  op_ok_.push_back(true);
  return op_ok_.size() - 1;
}

void Report::check(std::size_t op, const std::string& what, bool ok) {
  ++checks_;
  if (ok) return;
  ++failed_checks_;
  op_ok_.at(op) = false;
  std::printf("FAIL op %zu: %s\n", op, what.c_str());
}

void Report::check_run(const std::string& what, bool ok) {
  ++checks_;
  if (ok) return;
  ++failed_checks_;
  run_ok_ = false;
  std::printf("FAIL run: %s\n", what.c_str());
}

void Report::check_thread_budget(const Options& o) {
  const int threads = threads_alive();
  check_run("at most " + std::to_string(o.lanes) + " threads alive, saw " +
                std::to_string(threads),
            threads >= 1 && threads <= o.lanes);
}

void Report::note(const std::string& line) const {
  std::printf("  %s\n", line.c_str());
}

bool Report::ok() const {
  return run_ok_ && failed_checks_ == 0 && !op_ok_.empty();
}

void Report::print(const Options& o) const {
  std::size_t failed = 0;
  for (bool ok : op_ok_) failed += (ok && run_ok_) ? 0 : 1;
  std::printf("RESULT {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"trace\": %s, \"tiny\": %s, \"lanes\": %d, "
              "\"attempted\": %zu, \"failed\": %zu, \"checks\": %zu, "
              "\"failed_checks\": %zu, \"digest\": \"%s\", "
              "\"build\": {\"type\": \"%s\", "
              "\"compiler\": \"%s\", \"flags\": \"%s\"}, \"metrics\": {",
              json_escape(o.workload).c_str(), o.seed,
              o.trace ? "true" : "false", o.tiny ? "true" : "false", o.lanes,
              op_ok_.size(), failed, checks_, failed_checks_,
              json_escape(digest_).c_str(),
              PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_COMPILER).c_str(),
              json_escape(PERFBENCH_FLAGS).c_str());
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // %.17g keeps every digit; non-finite values are not JSON, so they
    // print as null and the wrapper reports them as missing.
    if (std::isfinite(m.value)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", json_escape(m.name).c_str(), m.value,
                  json_escape(m.unit).c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", json_escape(m.name).c_str(),
                  json_escape(m.unit).c_str());
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
