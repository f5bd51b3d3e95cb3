// web_survey: the paper's server and cloud side on a 100k-site universe.
//
// Set-up builds the web::Universe (100k sites, seed from --seed). Timed,
// single-threaded, at epoch jul2025:
// core::run_server_survey (build_zone -> Crawler::crawl_all -> classify_all
// -> tabulate), web::SpanAnalysis, then core::build_domain_records +
// cloud::provider_breakdown. Exercises web, dns, cloud and net and none of
// engine, traffic or flowmon.
//
// The traced run makes the same calls with a span around each; traced and
// untraced iterations alternate, and their medians give the overhead.
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cloud/analysis.h"
#include "cloud/providers.h"
#include "core/cloud_analysis.h"
#include "core/server_analysis.h"
#include "web/classify.h"
#include "web/crawler.h"
#include "web/metrics.h"
#include "web/universe.h"

namespace perfbench {

namespace {

using namespace nbv6;

constexpr web::Epoch kEpoch = web::Epoch::jul2025;

struct Inputs {
  cloud::ProviderCatalog providers;
  std::unique_ptr<web::Universe> universe;  // points at `providers`
  std::uint64_t crawl_seed = 0;
};

std::unique_ptr<Inputs> make_inputs(const Options& o) {
  auto in = std::make_unique<Inputs>();
  web::UniverseConfig cfg;
  cfg.site_count = o.tiny ? 2000 : 100'000;
  cfg.seed = 0x7eb01234ull + o.seed;
  in->universe = std::make_unique<web::Universe>(cfg, in->providers);
  in->crawl_seed = 42 + o.seed;
  return in;
}

struct Outputs {
  core::ServerSurvey survey;
  std::unique_ptr<web::SpanAnalysis> span;
  std::vector<cloud::DomainRecord> records;
  std::vector<cloud::ProviderBreakdownRow> providers;
};

struct Layers {
  double zone = 0, crawl = 0, classify = 0, span = 0, cloud = 0;
};

void untraced_survey(const Inputs& in, Outputs& out) {
  const auto& u = *in.universe;
  out.survey = core::run_server_survey(u, kEpoch, in.crawl_seed);
  out.span = std::make_unique<web::SpanAnalysis>(
      u, out.survey.crawls, out.survey.classifications);
  out.records = core::build_domain_records(u, out.survey);
  out.providers = cloud::provider_breakdown(out.records, u.providers());
}

// run_server_survey's body, one span per call.
void traced_survey(const Inputs& in, Outputs& out, Layers& l) {
  const auto& u = *in.universe;
  out.survey.epoch = kEpoch;
  {
    auto t = Clock::now();
    const dns::ZoneDb zone = u.build_zone(kEpoch);
    l.zone = since(t);

    t = Clock::now();
    const web::Crawler crawler(u, zone, kEpoch);
    out.survey.crawls = crawler.crawl_all(in.crawl_seed);
    l.crawl = since(t);
  }
  auto t = Clock::now();
  out.survey.classifications = web::classify_all(out.survey.crawls);
  out.survey.counts = web::tabulate(out.survey.classifications);
  l.classify = since(t);

  t = Clock::now();
  out.span = std::make_unique<web::SpanAnalysis>(
      u, out.survey.crawls, out.survey.classifications);
  l.span = since(t);

  t = Clock::now();
  out.records = core::build_domain_records(u, out.survey);
  out.providers = cloud::provider_breakdown(out.records, u.providers());
  l.cloud = since(t);
}

// Classification counts plus provider rows: the pinned output.
std::string digest_of(const Outputs& out) {
  const auto& c = out.survey.counts;
  std::string text = "counts";
  for (int v : {c.total, c.nxdomain, c.other_failure, c.connection_success,
                c.unknown_primary, c.ipv4_only, c.aaaa_enabled, c.ipv6_partial,
                c.ipv6_full, c.full_browser_used_v4,
                c.full_browser_used_v6_only}) {
    text += ' ';
    text += std::to_string(v);
  }
  text += '\n';
  for (const auto& r : out.providers) {
    text += r.org;
    for (int v : {r.total, r.v4_only, r.v6_full, r.v6_only}) {
      text += ' ';
      text += std::to_string(v);
    }
    text += '\n';
  }
  return hex64(fnv1a(text));
}

void check_outputs(Report& rep, std::size_t op, const Options& o,
                   const Inputs& in, const Outputs& out, std::string& first) {
  const auto& c = out.survey.counts;
  rep.check(op, "every site classified",
            c.total == static_cast<int>(in.universe->sites().size()));
  rep.check(op, "classification counts partition the sites",
            c.nxdomain + c.other_failure + c.connection_success == c.total &&
                c.unknown_primary + c.ipv4_only + c.aaaa_enabled ==
                    c.connection_success &&
                c.ipv6_partial + c.ipv6_full == c.aaaa_enabled &&
                c.full_browser_used_v4 + c.full_browser_used_v6_only ==
                    c.ipv6_full);
  rep.check(op, "provider rows open with an Overall row over every record",
            !out.providers.empty() &&
                out.providers.front().total ==
                    static_cast<int>(out.records.size()) &&
                !out.records.empty());
  // Every operation shares one output, so a digest that misses the pinned
  // one fails the run: every operation.
  const std::string digest = digest_of(out);
  if (first.empty()) {
    first = digest;
    rep.set_digest(digest);
    if (!o.expect_digest.empty())
      rep.check_run("digest " + digest + " == pinned " + o.expect_digest,
                    digest == o.expect_digest);
  }
  rep.check(op, "digest " + digest + " repeats the first operation's",
            digest == first);
}

}  // namespace

int run_web_survey(const Options& o, Report& rep) {
  const auto t0 = Clock::now();
  const auto in = make_inputs(o);
  const double universe_s = since(t0);
  if (inputs_ready(o)) return 0;
  rep.check_thread_budget(o);
  rep.note("web_survey: " +
           std::to_string(in->universe->sites().size()) +
           " sites at jul2025, seed " +
           std::to_string(in->universe->config().seed) + ", 1 thread");

  std::vector<double> walls, traced_walls;
  double hwm = 0.0;
  std::string first_digest;
  Layers layers;
  std::size_t resources = 0, records = 0;
  double full_pct = 0.0;

  repeat_for(o.seconds, o.trace ? 2 : 1, [&](int k) {
    fresh_heap();
    const std::size_t op = rep.begin_op();
    Outputs out;
    const bool traced = o.trace && k % 2 == 0;
    const auto t0 = Clock::now();
    if (traced) {
      Layers l;
      traced_survey(*in, out, l);
      traced_walls.push_back(since(t0));
      if (traced_walls.size() == 1) layers = l;
    } else {
      untraced_survey(*in, out);
      walls.push_back(since(t0));
      hwm = std::max(hwm, peak_rss_mb());
    }
    check_outputs(rep, op, o, *in, out, first_digest);
    resources = 0;
    for (const auto& c : out.survey.crawls) resources += c.resources.size();
    records = out.records.size();
    full_pct = out.survey.counts.pct_of_success(out.survey.counts.ipv6_full);
  });

  rep.fastest_metric("wall_s", walls, "s");
  rep.metric("peak_rss_mb", hwm, "MB");
  if (!o.trace) return 0;

  rep.metric("web.universe.s", universe_s, "s");
  rep.metric("dns.build_zone.s", layers.zone, "s");
  rep.metric("web.crawl.s", layers.crawl, "s");
  rep.metric("web.classify.s", layers.classify, "s");
  rep.metric("web.span.s", layers.span, "s");
  rep.metric("cloud.attribution.s", layers.cloud, "s");
  rep.metric("web.sites", static_cast<double>(in->universe->sites().size()),
             "count");
  rep.metric("web.resources", static_cast<double>(resources), "count");
  rep.metric("web.ipv6_full_pct", full_pct, "%");
  rep.metric("cloud.records", static_cast<double>(records), "count");
  rep.metric("trace.overhead_s", fastest(traced_walls) - fastest(walls), "s");
  return 0;
}

}  // namespace perfbench
