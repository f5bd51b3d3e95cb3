#include "engine/run_spec.h"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/pipeline.h"
#include "stats/rng.h"
#include "traffic/arrival.h"

namespace nbv6::engine {

SampledFleet sample_stage(const FleetConfig& cfg,
                          const traffic::ServiceCatalog& catalog) {
  SampledFleet out;
  out.configs.reserve(static_cast<size_t>(cfg.residences));
  out.traits.reserve(static_cast<size_t>(cfg.residences));

  for (int i = 0; i < cfg.residences; ++i) {
    // Residence i's sampling stream depends only on (seed, i): stable under
    // population resizes and independent of evaluation order.
    std::uint64_t state =
        cfg.seed ^ (0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(i) + 1));
    stats::Rng rng(stats::splitmix64(state));

    traffic::ResidenceConfig r;
    // Spelled so that GCC 12 sees no overlapping copy: `"R" + s` draws a
    // false-positive -Wrestrict at -O3, `name = "R"; name += s` under ASan.
    r.name = std::string("R").append(std::to_string(i));
    r.days = cfg.days;
    r.arrival = cfg.arrival;
    r.seed = stats::splitmix64(state);  // simulator stream, distinct from sampler's

    ResidenceTraits t;
    const bool v6_isp = t.dual_stack_isp = rng.chance(cfg.dual_stack_isp_frac);
    const bool vacant = t.vacant = rng.chance(cfg.background_only_frac);
    const bool heavy = t.heavy_streamer = rng.chance(cfg.heavy_streamer_frac);

    r.activity_scale =
        vacant ? 0.0
               : rng.uniform(cfg.activity_scale_min, cfg.activity_scale_max);
    if (!v6_isp) {
      r.device_v6_ok_frac = 0.0;  // no delegated prefix, nothing to be ok
      r.internal_v6_frac = rng.uniform(0.0, 0.25);  // link-local-ish only
    } else {
      t.broken_v6 = rng.chance(cfg.broken_v6_frac);
      r.device_v6_ok_frac = t.broken_v6 ? rng.uniform(0.2, 0.6) : 1.0;
      r.internal_v6_frac = rng.uniform(0.25, 0.98);
    }
    t.opt_out = rng.chance(cfg.opt_out_frac);
    if (t.opt_out) r.visibility = rng.uniform(0.3, 0.8);
    r.internal_flows_per_hour = rng.uniform(0.4, 6.0);
    r.background_v4_bias = rng.uniform(0.05, 0.9);

    // Service-mix tilt: heavy streamers boost every streaming/download
    // service; everyone else gets a mild random tilt over a few services.
    if (heavy) {
      for (const auto& s : catalog.services()) {
        if (s.profile == traffic::TrafficProfile::streaming ||
            s.profile == traffic::TrafficProfile::download) {
          r.service_weight_overrides.emplace_back(s.name,
                                                  rng.uniform(2.0, 8.0));
        }
      }
    } else {
      for (int k = 0; k < 3; ++k) {
        size_t idx = static_cast<size_t>(rng.below(catalog.size()));
        r.service_weight_overrides.emplace_back(catalog.at(idx).name,
                                                rng.uniform(0.5, 3.0));
      }
    }

    // One scripted absence window when the horizon has room for it.
    if (cfg.days > 14 && rng.chance(cfg.absence_prob)) {
      t.scripted_absence = true;
      int len = static_cast<int>(rng.between(2, 7));
      int first = static_cast<int>(rng.between(3, cfg.days - len - 3));
      r.away_day_ranges.push_back({first, first + len - 1});
    }

    out.configs.push_back(std::move(r));
    out.traits.push_back(t);
  }
  return out;
}

std::uint64_t population_key(const FleetConfig& cfg,
                             const traffic::ServiceCatalog& catalog) {
  return DigestBuilder()
      .str("population")
      .i64(cfg.residences)
      .i64(cfg.days)
      .u64(cfg.seed)
      .f64(cfg.dual_stack_isp_frac)
      .f64(cfg.broken_v6_frac)
      .f64(cfg.heavy_streamer_frac)
      .f64(cfg.background_only_frac)
      .f64(cfg.opt_out_frac)
      .f64(cfg.absence_prob)
      .f64(cfg.activity_scale_min)
      .f64(cfg.activity_scale_max)
      .u64(static_cast<std::uint64_t>(cfg.arrival->mode))
      .i64(cfg.arrival->ticks_per_hour)
      .u64(catalog.content_digest())
      .value();
}

std::uint64_t shard_key(const traffic::ServiceCatalog& catalog,
                        const traffic::ResidenceConfig& config) {
  DigestBuilder db;
  db.str("simulate.shard").u64(catalog.content_digest());
  db.str(config.name)
      .i64(config.days)
      .i64(config.start_weekday)
      .f64(config.activity_scale)
      .f64(config.device_v6_ok_frac)
      .f64(config.visibility)
      .f64(config.internal_flows_per_hour)
      .f64(config.internal_v6_frac)
      .f64(config.background_v4_bias);
  db.u64(config.service_weight_overrides.size());
  for (const auto& [service, weight] : config.service_weight_overrides)
    db.str(service).f64(weight);
  db.u64(config.away_day_ranges.size());
  for (const auto& [first, last] : config.away_day_ranges)
    db.i64(first).i64(last);
  db.u64(static_cast<std::uint64_t>(config.arrival.mode))
      .i64(config.arrival.ticks_per_hour)
      .u64(config.seed);
  // The plans the simulator will see, not the closure that makes them.
  for (int day = 0; day < config.days; ++day) {
    const traffic::DayPlan p = config.day_plan_fn ? config.day_plan_fn(day)
                                                  : traffic::kStaticDayPlan;
    db.f64(p.activity_mult)
        .f64(p.device_v6_ok_frac)
        .f64(p.internal_v6_frac)
        .u64(p.outage ? 1 : 0)
        .u64(p.nat64 ? 1 : 0)
        .i64(p.prefix_epoch)
        .u64(p.service_down_mask)
        .i64(p.cgn_port_budget)
        .f64(p.lambda_mult)
        .u64(p.flash_hour_mask)
        .f64(p.flash_mult);
  }
  return db.value();
}

FleetResult simulate_fleet(const traffic::ServiceCatalog& catalog,
                           std::span<const traffic::ResidenceConfig> configs,
                           ThreadPool* pool, PassCache* cache,
                           ShardTallies tallies) {
  FleetResult out;
  out.residences.resize(configs.size());
  const bool lean = tallies == ShardTallies::lean && cache == nullptr;
  const std::size_t lanes =
      pool != nullptr ? static_cast<std::size_t>(pool->size()) + 1 : 1;
  std::vector<flowmon::FlowMonitor> lane_tallies(lean ? lanes : 0);
  std::atomic<std::size_t> next{0};

  // One shard per residence: private RNG (seeded from the config) and
  // private monitor, fed straight by the generator. The slot vector is
  // preallocated, so each monitor sits at its final address. With a cache,
  // a shard another run already simulated is copied in; a miss is simulated
  // and stored. Lanes that miss on one key at once both simulate it and
  // store equal shards.
  auto lane = [&](std::size_t l) {
    for (std::size_t i; (i = next.fetch_add(1)) < configs.size();) {
      ResidenceRun& slot = out.residences[i];
      slot.config = configs[i];
      const std::uint64_t key = cache ? shard_key(catalog, configs[i]) : 0;
      if (auto hit = cache ? cache->shard(key) : nullptr) {
        slot.stats = hit->stats;
        slot.monitor = hit->monitor;
        continue;
      }
      flowmon::MonitorSink sink(slot.monitor,
                                lean ? lane_tallies[l] : slot.monitor);
      slot.stats = traffic::ResidenceSimulator(catalog, configs[i]).run(sink);
      if (cache != nullptr)
        cache->store(key, std::make_shared<const Shard>(
                              Shard{slot.stats, slot.monitor}));
    }
  };
  if (pool != nullptr)
    pool->parallel_for(lanes, lane);
  else
    lane(0);

  // The fold only adds integers, so it is associative and commutative and
  // the order does not matter: the fleet view is bit-identical for any
  // lane count. Lane tallies (hourly and destinations only) fold in last.
  for (const auto& run : out.residences) {
    out.fleet.merge(run.monitor);
    out.totals += run.stats;  // horizon totals + the per-day series
  }
  for (const auto& t : lane_tallies) out.fleet.merge(t);
  return out;
}

FleetResult simulate_fleet(const traffic::ServiceCatalog& catalog,
                           const SampledFleet& fleet, ThreadPool* pool,
                           PassCache* cache, ShardTallies tallies) {
  // Traits index into the residence vector downstream (group comparisons),
  // so a hand-built SampledFleet with mismatched sizes must fail here, not
  // as an out-of-bounds read later.
  if (fleet.traits.size() != fleet.configs.size())
    throw std::invalid_argument(
        "simulate_fleet: SampledFleet traits/configs size mismatch");
  FleetResult out =
      simulate_fleet(catalog, fleet.configs, pool, cache, tallies);
  out.traits = fleet.traits;
  return out;
}

}  // namespace nbv6::engine
