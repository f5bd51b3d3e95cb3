// Cross-module property sweeps over randomized inputs: invariants that
// must hold for ANY input, checked across many seeds via TEST_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "net/ip.h"
#include "net/prefix.h"
#include "stats/descriptive.h"
#include "stats/rng.h"
#include "stats/stl.h"
#include "stats/wilcoxon.h"
#include "web/psl.h"

namespace nbv6 {
namespace {

class Seeded : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  stats::Rng rng_{GetParam()};
};

// ------------------------------------------------------ address round-trips

TEST_P(Seeded, RandomV4RoundTripsThroughText) {
  for (int i = 0; i < 500; ++i) {
    net::IPv4Addr a(static_cast<std::uint32_t>(rng_()));
    auto parsed = net::IPv4Addr::parse(a.to_string());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, a);
  }
}

TEST_P(Seeded, RandomV6RoundTripsThroughText) {
  for (int i = 0; i < 500; ++i) {
    auto a = net::IPv6Addr::from_halves(rng_(), rng_());
    auto parsed = net::IPv6Addr::parse(a.to_string());
    ASSERT_TRUE(parsed.has_value()) << a.to_string();
    EXPECT_EQ(*parsed, a) << a.to_string();
  }
}

TEST_P(Seeded, RandomV6WithZeroRunsRoundTrips) {
  // Force zero groups to stress the :: compression logic.
  for (int i = 0; i < 500; ++i) {
    std::array<std::uint16_t, 8> groups{};
    for (auto& g : groups)
      g = rng_.chance(0.6) ? 0 : static_cast<std::uint16_t>(rng_());
    auto a = net::IPv6Addr::from_groups(groups);
    auto parsed = net::IPv6Addr::parse(a.to_string());
    ASSERT_TRUE(parsed.has_value()) << a.to_string();
    EXPECT_EQ(*parsed, a) << a.to_string();
  }
}

// ------------------------------------------------------------ prefix algebra

TEST_P(Seeded, MaskIsIdempotent) {
  for (int i = 0; i < 300; ++i) {
    auto a = net::IPv4Addr(static_cast<std::uint32_t>(rng_()));
    int len = static_cast<int>(rng_.below(33));
    auto once = net::mask_to_length(a, len);
    EXPECT_EQ(net::mask_to_length(once, len), once);
    auto a6 = net::IPv6Addr::from_halves(rng_(), rng_());
    int len6 = static_cast<int>(rng_.below(129));
    auto once6 = net::mask_to_length(a6, len6);
    EXPECT_EQ(net::mask_to_length(once6, len6), once6);
  }
}

// ------------------------------------------------------------ statistics

TEST_P(Seeded, QuantilesAreMonotone) {
  std::vector<double> xs(200);
  for (auto& x : xs) x = rng_.normal(0, 10);
  double prev = -1e300;
  for (double q = 0.0; q <= 1.0001; q += 0.05) {
    double v = stats::quantile(xs, std::min(1.0, q));
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST_P(Seeded, EcdfInverseIsRightInverse) {
  std::vector<double> xs(150);
  for (auto& x : xs) x = rng_.uniform(-5, 5);
  stats::Ecdf cdf(xs);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    // F(F^-1(q)) >= q, and F^-1 returns an actual sample.
    double v = cdf.inverse(q);
    EXPECT_GE(cdf(v) + 1e-12, q);
    EXPECT_NE(std::find(xs.begin(), xs.end(), v), xs.end());
  }
}

TEST_P(Seeded, BoxplotPartitionsData) {
  std::vector<double> xs(120);
  for (auto& x : xs) x = rng_.lognormal(0, 1.5);
  auto b = stats::boxplot(xs);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.whisker_low, b.q1);
  EXPECT_GE(b.whisker_high, b.q3);
  // Every point is inside the whiskers or reported as an outlier.
  for (double x : xs) {
    bool inside = x >= b.whisker_low && x <= b.whisker_high;
    bool outlier = std::find(b.outliers.begin(), b.outliers.end(), x) !=
                   b.outliers.end();
    EXPECT_TRUE(inside || outlier) << x;
  }
}

TEST_P(Seeded, StlReconstructsAnySeries) {
  const size_t n = 24 * 10;
  std::vector<double> ys(n);
  for (auto& y : ys) y = rng_.uniform(0, 1);
  auto r = stats::stl_decompose(ys, 24);
  for (size_t i = 0; i < n; i += 7)
    EXPECT_NEAR(r.trend[i] + r.seasonal[i] + r.remainder[i], ys[i], 1e-9);
}

TEST_P(Seeded, WilcoxonPIsValidProbability) {
  for (int trial = 0; trial < 50; ++trial) {
    size_t n = 2 + rng_.below(40);
    std::vector<double> d(n);
    for (auto& x : d) x = rng_.normal(0, 1);
    auto r = stats::wilcoxon_signed_rank(d);
    if (!r) continue;
    EXPECT_GT(r->p_value, 0.0);
    EXPECT_LE(r->p_value, 1.0);
    EXPECT_GE(r->effect_size_r, -1.0);
    EXPECT_LE(r->effect_size_r, 1.0);
  }
}

TEST_P(Seeded, WilcoxonNullIsRarelySignificant) {
  // Under the null (symmetric differences), p < 0.05 should be ~5%.
  int significant = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> d(30);
    for (auto& x : d) x = rng_.normal(0, 1);
    auto r = stats::wilcoxon_signed_rank(d);
    if (r && r->p_value < 0.05) ++significant;
  }
  EXPECT_LT(significant, trials / 5);  // generous bound, flake-proof
}

TEST_P(Seeded, HolmNeverRejectsMoreThanBonferroniAllows) {
  size_t m = 1 + rng_.below(20);
  std::vector<double> p(m);
  for (auto& x : p) x = rng_.uniform();
  auto holm = stats::holm_bonferroni(p, 0.05);
  // Anything Bonferroni rejects, Holm must also reject (Holm dominates).
  for (size_t i = 0; i < m; ++i) {
    if (p[i] <= 0.05 / static_cast<double>(m)) {
      EXPECT_TRUE(holm.reject[i]);
    }
    if (holm.reject[i]) {
      EXPECT_LE(p[i], 0.05);
    }
  }
}

// ------------------------------------------------------------ PSL

TEST_P(Seeded, RegistrableDomainIsIdempotent) {
  auto psl = web::PublicSuffixList::builtin();
  static constexpr const char* kTlds[] = {"com", "co.uk", "io", "zz", "de"};
  for (int i = 0; i < 200; ++i) {
    std::string host;
    int labels = 1 + static_cast<int>(rng_.below(4));
    for (int l = 0; l < labels; ++l) {
      host += "l";
      host += std::to_string(rng_.below(50));
      host += ".";
    }
    host += kTlds[rng_.below(std::size(kTlds))];
    auto reg = psl.registrable_domain(host);
    ASSERT_TRUE(reg.has_value()) << host;
    // The registrable domain of a registrable domain is itself.
    EXPECT_EQ(psl.registrable_domain(*reg), *reg) << host;
    // And the host is same-site with its own registrable domain.
    EXPECT_TRUE(psl.same_site(host, *reg));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Seeded,
                         ::testing::Values(11u, 222u, 3333u, 44444u));

}  // namespace
}  // namespace nbv6
