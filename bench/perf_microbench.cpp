// Google-benchmark microbenchmarks for the hot substrate paths: address
// parsing, AS-map lookup, AES/CryptoPAN, DNS resolution, conntrack churn,
// LOESS/MSTL, Wilcoxon, the web crawl and its cloud attribution — the
// operations every experiment binary leans on.
#include <benchmark/benchmark.h>

#include <vector>

#include "cloud/providers.h"
#include "core/cloud_analysis.h"
#include "core/server_analysis.h"
#include "dns/resolver.h"
#include "engine/firehose.h"
#include "engine/flat_conntrack.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "engine/run_spec.h"
#include "engine/thread_pool.h"
#include "net/asn.h"
#include "net/cryptopan.h"
#include "stats/fleet_stats.h"
#include "stats/loess.h"
#include "stats/rng.h"
#include "stats/stl.h"
#include "stats/wilcoxon.h"
#include "traffic/service_catalog.h"
#include "web/crawler.h"
#include "web/universe.h"

namespace {

using namespace nbv6;

void BM_ParseIPv6(benchmark::State& state) {
  for (auto _ : state) {
    auto a = net::IPv6Addr::parse("2606:4700:3037::ac43:a1e5");
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ParseIPv6);

void BM_FormatIPv6(benchmark::State& state) {
  auto a = *net::IPv6Addr::parse("2606:4700::6810:85e5");
  for (auto _ : state) {
    auto s = a.to_string();
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_FormatIPv6);

// AsMap::lookup (one exact probe per announced length) on both BGP tables:
// arg 0 the §3.4 service catalog, arg 1 the §5 cloud provider catalog.
// Probes cycle over addresses each table attributes, both families.
void BM_LpmLookup(benchmark::State& state) {
  const auto services = traffic::build_paper_catalog();
  const cloud::ProviderCatalog providers;
  std::vector<net::IpAddr> probes;
  if (state.range(0) == 0) {
    for (size_t s = 0; s < services.size(); ++s) {
      for (int j = 0; j < traffic::ServiceCatalog::kEndpointsPerService; ++j) {
        const auto e = services.endpoint(s, j);
        probes.emplace_back(e.v4);
        if (e.v6) probes.emplace_back(*e.v6);
      }
    }
  } else {
    for (size_t p = 0; p < providers.size(); ++p) {
      for (std::uint32_t i = 0; i < 16; ++i) {
        probes.emplace_back(providers.v4_address(p, i));
        probes.emplace_back(providers.v6_address(p, i));
      }
    }
  }
  const net::AsMap& map =
      state.range(0) == 0 ? services.as_map() : providers.as_map();
  size_t i = 0;
  for (auto _ : state) {
    auto v = map.lookup(probes[i]);
    benchmark::DoNotOptimize(v);
    if (++i == probes.size()) i = 0;
  }
}
BENCHMARK(BM_LpmLookup)->Arg(0)->Arg(1);

void BM_Aes128Block(benchmark::State& state) {
  net::Aes128::Key key{};
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  net::Aes128 aes(key);
  net::Aes128::Block block{};
  for (auto _ : state) {
    block = aes.encrypt(block);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_Aes128Block);

void BM_CryptoPanV4(benchmark::State& state) {
  net::CryptoPan::Secret secret{};
  for (size_t i = 0; i < secret.size(); ++i)
    secret[i] = static_cast<std::uint8_t>(i * 7);
  net::CryptoPan cp(secret);
  std::uint32_t x = 0xC0000200;
  for (auto _ : state) {
    auto a = cp.anonymize(net::IPv4Addr(x++), static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_CryptoPanV4)->Arg(8)->Arg(32);

void BM_DnsResolveChain(benchmark::State& state) {
  dns::ZoneDb zone;
  for (int i = 0; i < 10000; ++i) {
    std::string name = "host" + std::to_string(i) + ".example.com";
    zone.add_cname(name, "edge" + std::to_string(i) + ".cdn.net");
    zone.add_a("edge" + std::to_string(i) + ".cdn.net",
               net::IPv4Addr(static_cast<std::uint32_t>(i + 1)));
  }
  dns::Resolver resolver(zone);
  stats::Rng rng(2);
  for (auto _ : state) {
    auto r = resolver.resolve_a("host" + std::to_string(rng.below(10000)) +
                                ".example.com");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DnsResolveChain);

// The web survey, layer by layer, on one 2,000-site universe at the last
// epoch: the zone build, the crawler's per-epoch FQDN table (DNS walk and
// PSL per name), the crawl alone, the PSL alone, and the cloud attribution.
// Each benchmark builds its inputs once, outside the loop.
const web::Universe& survey_universe() {
  static const cloud::ProviderCatalog providers;
  static const web::Universe universe = [] {
    web::UniverseConfig cfg;
    cfg.site_count = 2000;
    cfg.seed = 5;
    return web::Universe(cfg, providers);
  }();
  return universe;
}

// The universe itself, at 2,000 and 20,000 sites: third parties, sites,
// their pages as flat rows, and the by-name index.
void BM_UniverseBuild(benchmark::State& state) {
  static const cloud::ProviderCatalog providers;
  web::UniverseConfig cfg;
  cfg.site_count = static_cast<int>(state.range(0));
  cfg.seed = 5;
  for (auto _ : state) {
    const web::Universe universe(cfg, providers);
    benchmark::DoNotOptimize(universe.sites().data());
  }
}
BENCHMARK(BM_UniverseBuild)
    ->Arg(2000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void BM_BuildZone(benchmark::State& state) {
  const auto& universe = survey_universe();
  std::size_t names = 0;
  for (auto _ : state) {
    const auto zone = universe.build_zone(web::Epoch::jul2025);
    names += zone.name_count();
    benchmark::DoNotOptimize(zone);
  }
  state.counters["names"] = benchmark::Counter(
      static_cast<double>(names), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BuildZone)->Unit(benchmark::kMillisecond);

void BM_SurveyTable(benchmark::State& state) {
  const auto& universe = survey_universe();
  const auto zone = universe.build_zone(web::Epoch::jul2025);
  for (auto _ : state) {
    const web::Crawler crawler(universe, zone, web::Epoch::jul2025);
    benchmark::DoNotOptimize(crawler.table());
  }
  state.counters["fqdns"] = static_cast<double>(universe.fqdns().size());
}
BENCHMARK(BM_SurveyTable)->Unit(benchmark::kMillisecond);

void BM_CrawlAll(benchmark::State& state) {
  const auto& universe = survey_universe();
  const auto zone = universe.build_zone(web::Epoch::jul2025);
  const web::Crawler crawler(universe, zone, web::Epoch::jul2025);
  std::size_t resources = 0;
  for (auto _ : state) {
    auto crawls = crawler.crawl_all(7);
    for (const auto& c : crawls) resources += c.resources.size();
    benchmark::DoNotOptimize(crawls);
  }
  state.counters["resources"] = benchmark::Counter(
      static_cast<double>(resources), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CrawlAll)->Unit(benchmark::kMillisecond);

// One registrable_domain call per iteration, cycling through every FQDN of
// the universe.
void BM_PslRegistrableDomain(benchmark::State& state) {
  const auto& universe = survey_universe();
  const auto& fqdns = universe.fqdns();
  std::size_t i = 0;
  for (auto _ : state) {
    auto reg = universe.psl().registrable_domain(fqdns[i].name);
    benchmark::DoNotOptimize(reg);
    if (++i == fqdns.size()) i = 0;
  }
}
BENCHMARK(BM_PslRegistrableDomain);

// The cloud attribution: DomainRecords for every FQDN the survey observed.
void BM_DomainRecords(benchmark::State& state) {
  const auto& universe = survey_universe();
  const auto survey =
      core::run_server_survey(universe, web::Epoch::jul2025, 7);
  std::size_t records = 0;
  for (auto _ : state) {
    auto out = core::build_domain_records(universe, survey);
    records += out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["records"] = benchmark::Counter(
      static_cast<double>(records), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DomainRecords)->Unit(benchmark::kMillisecond);

// Open/account/close churn against the conntrack table, one flow at a time
// as the generator drives it.
void BM_FlatConntrackChurn(benchmark::State& state) {
  engine::FlatConntrack table;
  stats::Rng rng(3);
  std::uint16_t port = 0;
  for (auto _ : state) {
    net::FlowKey k;
    k.src = net::IPv4Addr(192, 168, 1, 10);
    k.dst = net::IPv4Addr(static_cast<std::uint32_t>(rng()));
    k.src_port = ++port;
    k.dst_port = 443;
    table.open(k, 0, flowmon::Scope::external);
    table.account(k, 0, 1000, 50000);
    table.close(k, 10);
  }
}
BENCHMARK(BM_FlatConntrackChurn);

// End-to-end fleet ingest: N sampled residences simulated into their
// monitors across 4 lanes and reduced. Args = residence count (2 simulated
// days) and engine::ShardTallies (0 full, 1 lean), so the per-flow cost of
// lean shards shows next to full ones.
void BM_FleetIngest(benchmark::State& state) {
  auto catalog = nbv6::traffic::build_paper_catalog();
  engine::FleetConfig cfg;
  cfg.residences = static_cast<int>(state.range(0));
  cfg.days = 2;
  cfg.seed = 99;
  const auto configs = engine::sample_stage(cfg, catalog).configs;
  const auto tallies = state.range(1) == 0 ? engine::ShardTallies::full
                                            : engine::ShardTallies::lean;
  engine::ThreadPool pool(3);  // + the calling thread = 4 lanes
  std::uint64_t flows = 0;
  for (auto _ : state) {
    auto result = engine::simulate_fleet(catalog, configs, &pool, nullptr,
                                         tallies);
    flows += result.totals.flows;
    benchmark::DoNotOptimize(result);
  }
  state.counters["flows"] =
      benchmark::Counter(static_cast<double>(flows), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FleetIngest)
    ->ArgsProduct({{16, 64}, {0, 1}})
    ->ArgNames({"homes", "lean"})
    ->Unit(benchmark::kMillisecond);

// Warm-cache fleet simulate: 48 sampled residences x 42 days whose shards
// are all in the cache, so every residence is a hit (copy the stats and
// monitor, merge the tallies). Arg = engine::ShardTallies (0 full, 1 lean).
void BM_CachedSimulate(benchmark::State& state) {
  auto catalog = nbv6::traffic::build_paper_catalog();
  engine::FleetConfig cfg;
  cfg.residences = 48;
  cfg.days = 42;
  cfg.seed = 99;
  const auto configs = engine::sample_stage(cfg, catalog).configs;
  const auto tallies = state.range(0) == 0 ? engine::ShardTallies::full
                                            : engine::ShardTallies::lean;
  engine::ThreadPool pool(3);  // + the calling thread = 4 lanes
  engine::PassCache cache;
  engine::simulate_fleet(catalog, configs, &pool, &cache, tallies);
  for (auto _ : state) {
    auto result = engine::simulate_fleet(catalog, configs, &pool, &cache,
                                         tallies);
    benchmark::DoNotOptimize(result);
  }
  if (cache.hits() != cache.lookups() - configs.size())
    state.SkipWithError("a warm lookup missed");
}
BENCHMARK(BM_CachedSimulate)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"lean"})
    ->Unit(benchmark::kMillisecond);

void BM_MstlDecompose(benchmark::State& state) {
  stats::Rng rng(4);
  std::vector<double> ys(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < ys.size(); ++i)
    ys[i] = 0.5 + 0.2 * std::sin(2 * 3.14159 * static_cast<double>(i) / 24.0) +
            rng.normal(0, 0.05);
  constexpr int kPeriods[] = {24, 168};
  for (auto _ : state) {
    auto r = stats::mstl_decompose(ys, kPeriods);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MstlDecompose)->Arg(24 * 30)->Arg(24 * 90)->Arg(24 * 365)->Unit(benchmark::kMillisecond);

// The raw LOESS kernel on a unit-spaced series (the MSTL inner loop) —
// tracks the multi-accumulator window regression directly, without the
// decomposition machinery around it. Arg = series length.
void BM_LoessUnit(benchmark::State& state) {
  stats::Rng rng(6);
  std::vector<double> ys(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < ys.size(); ++i)
    ys[i] = std::sin(static_cast<double>(i) / 40.0) + rng.normal(0, 0.1);
  std::vector<double> out(ys.size());
  stats::LoessConfig cfg;
  cfg.span_fraction = 0.1;
  for (auto _ : state) {
    stats::loess_unit_into(ys, cfg, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_LoessUnit)->Arg(720)->Arg(8760);

// v6 CryptoPAN over a flow-batch shaped address set: a few /64s repeated
// many times, interleaved, one scalar call per address — exercises the
// prefix cache. Counter = anonymized addresses per second.
void BM_CryptoPanV6Batch(benchmark::State& state) {
  net::CryptoPan::Secret secret{};
  for (size_t i = 0; i < secret.size(); ++i)
    secret[i] = static_cast<std::uint8_t>(i * 7 + 3);
  net::CryptoPan cp(secret);
  stats::Rng rng(17);
  std::vector<net::IPv6Addr> in;
  std::vector<std::uint64_t> prefixes;
  for (int p = 0; p < 12; ++p)
    prefixes.push_back(0x20010DB800000000ull | rng());
  for (int i = 0; i < 4096; ++i)
    in.push_back(net::IPv6Addr::from_halves(
        prefixes[rng.below(prefixes.size())], rng()));
  for (auto _ : state) {
    for (const auto& a : in) {
      auto v = cp.anonymize(a, 64);
      benchmark::DoNotOptimize(v);
    }
  }
  state.counters["addrs_per_sec"] = benchmark::Counter(
      static_cast<double>(in.size()), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CryptoPanV6Batch)->Unit(benchmark::kMicrosecond);

// The headline path: a fleet streamed tick-by-tick through the firehose
// into a counting sink, 4 lanes. Counter = flows per second (all-core).
void BM_FirehoseStream(benchmark::State& state) {
  engine::FleetConfig cfg;
  cfg.residences = static_cast<int>(state.range(0));
  cfg.days = 2;
  cfg.seed = 21;
  cfg.arrival->mode = traffic::ArrivalMode::poisson;
  cfg.arrival->ticks_per_hour = 12;
  auto catalog = traffic::build_paper_catalog();
  engine::Firehose hose(catalog, 4);
  std::uint64_t flows = 0;
  for (auto _ : state) {
    auto result = hose.run(cfg, [&](const engine::FlowEvent& ev) {
      benchmark::DoNotOptimize(ev.bytes_out);
    });
    flows += result.flows;
    benchmark::DoNotOptimize(result.flows);
  }
  state.counters["flows_per_sec"] = benchmark::Counter(
      static_cast<double>(flows), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FirehoseStream)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_WilcoxonExact(benchmark::State& state) {
  std::vector<double> d;
  for (int i = 1; i <= 25; ++i) d.push_back(i % 3 == 0 ? -i : i);
  for (auto _ : state) {
    auto r = stats::wilcoxon_signed_rank(d);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WilcoxonExact);

void BM_RankSumNormalApprox(benchmark::State& state) {
  // Fleet-panel shape: two residence strata of `Arg` homes each, metric
  // values in [0, 1], tested through the tie-corrected normal path.
  const auto n = static_cast<size_t>(state.range(0));
  stats::Rng rng(3);
  std::vector<double> xs, ys;
  for (size_t i = 0; i < n; ++i) {
    xs.push_back(rng.uniform(0.0, 1.0));
    ys.push_back(rng.uniform(0.1, 1.0));
  }
  for (auto _ : state) {
    auto r = stats::wilcoxon_rank_sum(xs, ys);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RankSumNormalApprox)->Arg(64)->Arg(1024);

void BM_StreamingCdfAdd(benchmark::State& state) {
  stats::Rng rng(9);
  std::vector<double> xs;
  for (int i = 0; i < 4096; ++i) xs.push_back(rng.uniform(0.0, 1.0));
  for (auto _ : state) {
    stats::StreamingCdf acc(0.0, 1.0, 128);
    acc.add(xs);
    benchmark::DoNotOptimize(acc.quantile(0.5));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_StreamingCdfAdd);

}  // namespace

BENCHMARK_MAIN();
