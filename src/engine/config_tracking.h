// Opt-in per-field read tracking for engine::FleetConfig.
//
// The scenario chain caches the sampled population under a hand-written key
// (engine::population_key): a field sample_stage reads but the key misses
// would let a what-if forest bind another config's population. Every
// FleetConfig field is wrapped in Tracked<>, and while a
// ConfigReadTracker::Scope is active on the current thread, each const read
// sets the field's bit in a per-scope bitmap. The auditor
// (core::audit_scenario_passes + tests/digest_audit_test.cpp) records the
// key's reads and the stage's under separate scopes and fails if the stage
// read a field the key missed.
//
// Cost model: with no active scope (all production paths), a read is one
// thread_local pointer load and a branch. Nothing allocates. Copying a
// config never records — a pipeline holding cfg by value must not charge
// the whole struct to a read set; only the fields a stage actually touches
// count.
//
// Field access syntax after wrapping:
//   - scalars read as before (implicit conversion): `cfg.days / 2`
//   - struct members go through operator->: `cfg.timeline->events`
//   - whole-struct reads convert implicitly: `apply_timeline(f, cfg.timeline, ...)`
//   - writes that need a raw lvalue use `.mut()`: `parse_int(v, cfg.days.mut())`
//   - varargs (std::printf) must use `.get()`: Tracked is deliberately
//     non-trivially-copyable, so passing one through `...` is a hard
//     compile error instead of silent UB.
#pragma once

#include <bitset>
#include <cstddef>
#include <string_view>
#include <utility>

namespace nbv6::engine {

/// One bit per FleetConfig field. Order is load-bearing only for the
/// bitmap layout; names are the API (see to_string).
enum class ConfigField : unsigned {
  residences,
  days,
  seed,
  dual_stack_isp_frac,
  broken_v6_frac,
  heavy_streamer_frac,
  background_only_frac,
  opt_out_frac,
  absence_prob,
  activity_scale_min,
  activity_scale_max,
  arrival,
  timeline,
  kCount,
};

inline constexpr std::size_t kConfigFieldCount =
    static_cast<std::size_t>(ConfigField::kCount);

/// Which fields were read, one bit per ConfigField.
using ConfigReadSet = std::bitset<kConfigFieldCount>;

constexpr std::string_view to_string(ConfigField f) {
  switch (f) {
    case ConfigField::residences: return "residences";
    case ConfigField::days: return "days";
    case ConfigField::seed: return "seed";
    case ConfigField::dual_stack_isp_frac: return "dual_stack_isp_frac";
    case ConfigField::broken_v6_frac: return "broken_v6_frac";
    case ConfigField::heavy_streamer_frac: return "heavy_streamer_frac";
    case ConfigField::background_only_frac: return "background_only_frac";
    case ConfigField::opt_out_frac: return "opt_out_frac";
    case ConfigField::absence_prob: return "absence_prob";
    case ConfigField::activity_scale_min: return "activity_scale_min";
    case ConfigField::activity_scale_max: return "activity_scale_max";
    case ConfigField::arrival: return "arrival";
    case ConfigField::timeline: return "timeline";
    case ConfigField::kCount: break;
  }
  return "?";
}

/// Thread-local read recorder. Tracking is off unless a Scope is alive on
/// the current thread; scopes nest (the innermost one records).
class ConfigReadTracker {
 public:
  /// Records a field read into the active scope, if any.
  static void record(ConfigField f) {
    if (active_ != nullptr) active_->set(static_cast<std::size_t>(f));
  }

  /// RAII activation. The audit runs its stage inline (no pool), so every
  /// read it makes lands on the thread that owns the scope.
  class Scope {
   public:
    Scope() : prev_(active_) { active_ = &reads_; }
    ~Scope() { active_ = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] const ConfigReadSet& reads() const { return reads_; }

   private:
    ConfigReadSet reads_;
    ConfigReadSet* prev_;
  };

 private:
  inline static thread_local ConfigReadSet* active_ = nullptr;
};

/// A FleetConfig field: holds a T, records ConfigField F on const reads.
template <typename T, ConfigField F>
class Tracked {
 public:
  Tracked() = default;
  // Implicit by design: keeps `Tracked<int, ...> days = 30;` initializers
  // and `cfg.days = 3;` assignments reading like the plain field did.
  Tracked(T v) : v_(std::move(v)) {}  // NOLINT(google-explicit-constructor)

  // User-provided copies: (a) copying never records — a by-value lambda
  // capture of the whole config is not a "read" of every field; (b) the
  // type is non-trivially-copyable, so passing it through varargs
  // (std::printf) is a compile error instead of undefined behavior.
  Tracked(const Tracked& o) : v_(o.v_) {}
  Tracked(Tracked&& o) noexcept : v_(std::move(o.v_)) {}
  Tracked& operator=(const Tracked& o) {
    v_ = o.v_;
    return *this;
  }
  Tracked& operator=(Tracked&& o) noexcept {
    v_ = std::move(o.v_);
    return *this;
  }
  ~Tracked() = default;

  /// Recorded read; also fires on every implicit use of a scalar field.
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator const T&() const {
    ConfigReadTracker::record(F);
    return v_;
  }
  /// Recorded read, spelled out — required at varargs call sites.
  [[nodiscard]] const T& get() const {
    ConfigReadTracker::record(F);
    return v_;
  }
  /// Recorded member read for struct-valued fields: cfg.timeline->events.
  const T* operator->() const {
    ConfigReadTracker::record(F);
    return &v_;
  }
  /// Unrecorded member write access (parse/setup paths).
  T* operator->() { return &v_; }
  /// Unrecorded mutable lvalue, for out-parameter writes and setup code.
  [[nodiscard]] T& mut() { return v_; }

  friend bool operator==(const Tracked& a, const Tracked& b) {
    return a.v_ == b.v_;
  }
  /// Heterogeneous compare (EXPECT_EQ(cfg.days, 3)): a recorded read.
  /// Without this, Tracked==T is ambiguous between the implicit conversion
  /// in each direction.
  template <typename U>
  friend bool operator==(const Tracked& a, const U& b) {
    ConfigReadTracker::record(F);
    return a.v_ == b;
  }

 private:
  T v_{};
};

}  // namespace nbv6::engine
