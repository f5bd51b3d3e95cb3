// Shared plumbing for the end-to-end benchmark driver: clocks, process
// memory and thread probes, the timed-repetition loop, and the Report that
// collects metrics and output checks and prints the driver's RESULT line.
//
// Every workload runs in its own process and times calls into the
// library's public entry points from here, outside the program: nothing in
// src/ is instrumented.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "traffic/generator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set (VmHWM) of this process so far, in MB.
double peak_rss_mb();
/// Current resident set (VmRSS), in MB.
double rss_mb();
/// Threads alive in this process right now.
int threads_alive();

/// Hand freed heap pages back to the kernel, so each timed iteration starts
/// from the heap state a fresh process has (a user runs a workload once per
/// process) rather than from pages the previous iteration already faulted,
/// and restart the VmHWM peak from the current RSS.
void fresh_heap();

double median(std::vector<double> v);
/// Smallest sample; NaN when there is none.
double fastest(const std::vector<double>& v);

/// FNV-1a over bytes: the digest pinned for the default seeds.
std::uint64_t fnv1a(std::string_view s);
std::string hex64(std::uint64_t v);

/// Generator counters equal field by field, daily series included.
bool same_counters(const nbv6::traffic::SimulationStats& a,
                   const nbv6::traffic::SimulationStats& b);

/// Thread budget N = min(hardware threads, 4): at most N threads alive in
/// a run, the calling thread included.
inline int thread_budget() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs, for the benchmark's own smoke test.
  bool tiny = false;
  /// Make the inputs, print READY and stop: one set-up sample.
  bool setup_only = false;
  int lanes = thread_budget();
  /// Expected output digest for this (workload, seed); empty = not pinned.
  std::string expect_digest;
};

/// Prints READY once the inputs exist: perfbench/run.py times setup_s from
/// launching this process to that line. True when the run stops there.
bool inputs_ready(const Options& o);

/// Call `iteration(k)` for about `seconds` of wall time, checks included:
/// at least `min_iters` times, then again only while one more iteration of
/// the longest length seen so far still fits.
template <typename Iteration>
void repeat_for(double seconds, int min_iters, Iteration iteration) {
  const auto t0 = Clock::now();
  double longest = 0.0;
  for (int k = 0;; ++k) {
    if (k >= min_iters && since(t0) + longest > seconds) break;
    const auto it0 = Clock::now();
    iteration(k);
    const double took = since(it0);
    if (took > longest) longest = took;
  }
}

/// Metrics and output checks of one run. An *operation* is one timed
/// iteration; it fails when any check on its outputs fails. A run-level
/// check (thread budget, reference runs) that fails fails every operation.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Metric from repeated timings: the fastest, with the samples noted.
  /// Other tenants of a shared host slow whole stretches of a run by up to
  /// a fifth; the fastest repetition is the least disturbed one, and it
  /// varies about half as much from run to run as the median does.
  void fastest_metric(const std::string& name, const std::vector<double>& v,
                      const std::string& unit);
  /// Note repeated samples, their median and the fastest, without
  /// recording a metric.
  void samples(const std::string& name, const std::vector<double>& v,
               const std::string& unit) const;

  std::size_t begin_op();
  void check(std::size_t op, const std::string& what, bool ok);
  void check_run(const std::string& what, bool ok);

  /// One human-readable line (stdout), before the RESULT line.
  void note(const std::string& line) const;

  /// The output digest pinned for default seeds (fleet_year, web_survey).
  void set_digest(const std::string& digest) { digest_ = digest; }

  /// Run-level check: at most o.lanes threads alive, calling thread
  /// included. Workloads call it while their pools exist.
  void check_thread_budget(const Options& o);

  [[nodiscard]] bool ok() const;
  /// Prints `RESULT {json}`: metrics, operations, checks, fingerprint.
  void print(const Options& o) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<bool> op_ok_;
  std::size_t checks_ = 0;
  std::size_t failed_checks_ = 0;
  bool run_ok_ = true;
  std::string digest_;
};

int run_fleet_year(const Options& o, Report& rep);
int run_firehose_stream(const Options& o, Report& rep);
int run_whatif_forest(const Options& o, Report& rep);
int run_web_survey(const Options& o, Report& rep);

}  // namespace perfbench
