// Fleet scenario types: population-scale residence simulation.
//
// The paper measures five instrumented households; reproducing its
// population-level claims (Table 1 daily means across residences, the
// cross-residence Wilcoxon comparisons) needs *many* residences run under
// one roof. The simulate stage (engine/run_spec.h) runs N residences
// concurrently — each a shard of its own RNG (seeded per residence) and its
// own FlowMonitor, into which a flowmon::MonitorSink ingests each finished
// flow the generator hands it — and reduces shard monitors into one
// fleet-level view. Because residences share no mutable state and the
// reduction only adds integers, a T-lane run is bit-identical to the
// sequential run of the same seeds for any T.
//
// FleetConfig is the scenario layer: one small config (parseable from a
// key=value file) describes a whole deployment — dual-stack rollout
// fraction, broken-CPE households, heavy streamers, vacant homes, privacy
// opt-outs, scripted absences — from which sample_stage() deterministically
// derives per-residence ResidenceConfigs. Lane count is not part of the
// scenario: it belongs to the run (a pool the caller owns) and never
// changes results.
//
// Running a scenario end to end is core::make_scenario_pipeline(...).run();
// the stage functions themselves live in engine/run_spec.h.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/timeline.h"
#include "flowmon/monitor.h"
#include "traffic/generator.h"
#include "traffic/residence.h"
#include "traffic/service_catalog.h"

namespace nbv6::engine {

/// A FleetConfig field: a plain box kept only for perfbench's `.get()` and
/// `->` spellings, until perfbench reads the fields as plain values.
template <typename T>
class Field {
 public:
  Field() = default;
  Field(T v) : v_(std::move(v)) {}  // NOLINT(google-explicit-constructor)

  // NOLINTNEXTLINE(google-explicit-constructor)
  operator const T&() const { return v_; }
  [[nodiscard]] const T& get() const { return v_; }
  [[nodiscard]] T& mut() { return v_; }
  const T* operator->() const { return &v_; }
  T* operator->() { return &v_; }

  friend bool operator==(const Field&, const Field&) = default;
  /// Field == T; without it the conversions in each direction are ambiguous.
  template <typename U>
  friend bool operator==(const Field& a, const U& b) {
    return a.v_ == b;
  }

 private:
  T v_{};
};

/// A whole deployment in one value. Fractions are probabilities applied
/// independently per residence; every derived quantity depends only on
/// (seed, residence index), never on sampling order or thread count.
///
/// Scalar fields read like the bare type; struct fields (arrival, timeline)
/// are reached via `->`; out-parameter writes use `.mut()`; varargs call
/// sites use `.get()`. engine::population_key must fold every field
/// sample_stage reads; digest_audit_test proves it by mutating each field.
struct FleetConfig {
  Field<int> residences = 64;
  Field<int> days = 30;
  Field<std::uint64_t> seed = 1;

  // ---- population mix -------------------------------------------------
  /// Fraction of households whose ISP delegates IPv6 at all (v4-only ISPs
  /// leave every device without working IPv6).
  Field<double> dual_stack_isp_frac = 0.85;
  /// Among dual-stack homes: fraction with partly broken device IPv6
  /// (Residence C's pattern).
  Field<double> broken_v6_frac = 0.10;
  /// Households whose service mix is dominated by streaming/downloads.
  Field<double> heavy_streamer_frac = 0.25;
  /// Vacant or instrumentation-only homes: background chatter only.
  Field<double> background_only_frac =
      0.05;
  /// Privacy opt-outs: the router sees only part of the household.
  Field<double> opt_out_frac = 0.20;
  /// Chance of one scripted multi-day absence window (spring-break style).
  Field<double> absence_prob = 0.30;
  /// Interactive activity range (mean sessions per fully-active hour).
  Field<double> activity_scale_min = 1.0;
  Field<double> activity_scale_max = 9.5;

  // ---- arrivals --------------------------------------------------------
  /// How sessions land inside each simulated day: the original per-hour
  /// batch (default, golden-pinned) or an open-loop tick-sliced arrival
  /// process. Config keys: `arrival.mode = batch|poisson|uniform` and
  /// `arrival.ticks_per_hour = N` (1..3600). Copied onto every sampled
  /// ResidenceConfig by sample_stage.
  Field<traffic::ArrivalConfig> arrival;

  // ---- timeline --------------------------------------------------------
  /// Scheduled mid-observation changes (rollout waves, CPE fixes, outages,
  /// NAT64 migrations, seasonal scaling). Built from repeatable
  /// "timeline.<kind> = ..." config lines; see engine/timeline.h.
  /// Applied by the scenario chain's timeline stage — or explicitly via
  /// apply_timeline() when running the stages by hand.
  Field<Timeline> timeline;

  /// Parse "key = value" lines ('#' starts a comment). The parse fails on:
  /// unknown keys, malformed or non-finite numbers, fractions outside
  /// [0, 1], activity_scale_min/max that are negative or inverted, any
  /// scalar key given twice, and any timeline event whose window starts at
  /// or past the horizon (start_day >= days — it could never fire).
  /// "timeline.<kind>" keys are the one exception to the duplicate rule:
  /// each occurrence appends one event, in file order (ordering is part of
  /// the deterministic derivation). On failure, a non-null `error` receives
  /// a one-line "line N: ..." message naming the offending key or token —
  /// nothing is ever silently ignored.
  static std::optional<FleetConfig> parse(std::string_view text,
                                          std::string* error = nullptr);
  /// Load from a file via parse(). nullopt if unreadable or invalid; the
  /// optional `error` distinguishes the two.
  static std::optional<FleetConfig> load(const std::string& path,
                                         std::string* error = nullptr);

  /// The checks that need the whole config, which parse() runs after the
  /// last line and a binary runs on a config it assembled from flags:
  /// residences >= 1, days >= 1, activity_scale_min <= activity_scale_max,
  /// and every timeline event starting before the horizon. nullopt if all
  /// hold; otherwise the first violation's message. `event_lines`, when
  /// given, holds each event's source line, and an event message then
  /// starts with "line N: ".
  [[nodiscard]] std::optional<std::string> check(
      std::span<const int> event_lines = {}) const;

  friend bool operator==(const FleetConfig&, const FleetConfig&) = default;
};

/// Canonical text form of a config: every scalar key in fixed order,
/// doubles rendered with %.17g (so text equality is bit equality), one
/// timeline line per event in ordinal order (Timeline::render_event).
/// parse(to_config_text(cfg)) == cfg for every parseable cfg — the tool
/// that promotes a surviving fuzz config into a committed scenario file.
std::string to_config_text(const FleetConfig& cfg);

/// Parse -> render -> reparse -> compare. nullopt on success; otherwise a
/// description of the first failure (initial parse rejection, renderer
/// output rejected, or field mismatch after the round trip).
std::optional<std::string> check_parse_round_trip(std::string_view text);

/// Which population strata a sampled residence fell into — the group
/// labels the fleet-statistics layer compares across (dual-stack vs
/// broken-CPE, streamer vs baseline, ...). Pure function of (seed, index),
/// recorded at sampling time so group membership never has to be
/// re-inferred from simulated traffic.
struct ResidenceTraits {
  bool dual_stack_isp = false;  ///< ISP delegates IPv6 at all
  bool broken_v6 = false;       ///< dual-stack but flaky CPE/device IPv6
  bool heavy_streamer = false;
  bool vacant = false;           ///< background chatter only
  bool opt_out = false;          ///< partial router visibility
  bool scripted_absence = false;

  friend bool operator==(const ResidenceTraits&,
                         const ResidenceTraits&) = default;
};

/// A sampled population with its stratum labels, index-aligned.
struct SampledFleet {
  std::vector<traffic::ResidenceConfig> configs;
  std::vector<ResidenceTraits> traits;
};

/// One shard's outcome: the residence, its generator stats, and its
/// monitor. Under ShardTallies::lean (engine/run_spec.h), with or without a
/// cache, the monitor holds totals, daily series and NEW/DESTROY counts
/// only: its hourly and destination tallies went to the fleet view.
struct ResidenceRun {
  traffic::ResidenceConfig config;
  traffic::SimulationStats stats;
  flowmon::FlowMonitor monitor;
};

struct FleetResult {
  /// Index-aligned with the input configs.
  std::vector<ResidenceRun> residences;
  /// Stratum labels, index-aligned with `residences`. Filled when the run
  /// started from a SampledFleet; empty for raw config vectors (no
  /// sampling happened, so there are no strata).
  std::vector<ResidenceTraits> traits;
  /// All shard monitors merged in residence-index order; feeds the
  /// existing core analyses (analyze_residence, as_usage, ...) unchanged.
  flowmon::FlowMonitor fleet;
  /// Horizon totals plus the merged per-day session-stat series
  /// (totals.daily[d] = day d summed across every residence).
  traffic::SimulationStats totals;
};

}  // namespace nbv6::engine
