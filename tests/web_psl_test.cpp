#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "cloud/providers.h"
#include "reference_psl.h"
#include "web/psl.h"
#include "web/universe.h"

namespace nbv6::web {
namespace {

using testutil::ReferencePsl;
using testutil::split_labels;

TEST(SplitLabels, Basic) {
  auto l = split_labels("a.b.c");
  ASSERT_EQ(l.size(), 3u);
  EXPECT_EQ(l[0], "a");
  EXPECT_EQ(l[2], "c");
  EXPECT_EQ(split_labels("single").size(), 1u);
}

TEST(Psl, SimpleTld) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.public_suffix("example.com"), "com");
  EXPECT_EQ(psl.public_suffix("www.example.com"), "com");
}

TEST(Psl, TwoLevelSuffix) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.public_suffix("example.co.uk"), "co.uk");
  EXPECT_EQ(psl.public_suffix("deep.sub.example.co.uk"), "co.uk");
}

TEST(Psl, RegistrableDomain) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.registrable_domain("www.example.com").value(), "example.com");
  EXPECT_EQ(psl.registrable_domain("a.b.example.co.uk").value(),
            "example.co.uk");
  EXPECT_EQ(psl.registrable_domain("example.com").value(), "example.com");
}

TEST(Psl, SuffixItselfHasNoRegistrableDomain) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_FALSE(psl.registrable_domain("com").has_value());
  EXPECT_FALSE(psl.registrable_domain("co.uk").has_value());
}

TEST(Psl, WildcardRule) {
  auto psl = PublicSuffixList::builtin();
  // *.ck: any single label under ck is itself a public suffix.
  EXPECT_EQ(psl.public_suffix("foo.ck"), "foo.ck");
  EXPECT_FALSE(psl.registrable_domain("foo.ck").has_value());
  EXPECT_EQ(psl.registrable_domain("site.foo.ck").value(), "site.foo.ck");
}

TEST(Psl, ExceptionRule) {
  auto psl = PublicSuffixList::builtin();
  // !www.ck: www.ck is NOT a public suffix despite *.ck.
  EXPECT_EQ(psl.public_suffix("www.ck"), "ck");
  EXPECT_EQ(psl.registrable_domain("www.ck").value(), "www.ck");
  EXPECT_EQ(psl.registrable_domain("a.www.ck").value(), "www.ck");
}

TEST(Psl, PrivateRegistrySuffixes) {
  auto psl = PublicSuffixList::builtin();
  // github.io style: each user site is its own registrable domain.
  EXPECT_EQ(psl.registrable_domain("alice.github.io").value(),
            "alice.github.io");
  EXPECT_EQ(psl.registrable_domain("x.alice.github.io").value(),
            "alice.github.io");
  EXPECT_EQ(psl.registrable_domain("tenant.cloudfront.net").value(),
            "tenant.cloudfront.net");
}

TEST(Psl, UnlistedTldUsesImplicitStar) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.public_suffix("example.zz"), "zz");
  EXPECT_EQ(psl.registrable_domain("www.example.zz").value(), "example.zz");
}

TEST(Psl, SameSite) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_TRUE(psl.same_site("www.example.com", "static.example.com"));
  EXPECT_TRUE(psl.same_site("example.com", "example.com"));
  EXPECT_FALSE(psl.same_site("example.com", "example.org"));
  EXPECT_FALSE(psl.same_site("a.example.co.uk", "a.other.co.uk"));
  // A public suffix has no site identity at all.
  EXPECT_FALSE(psl.same_site("com", "example.com"));
}

TEST(Psl, EmptyListUsesImplicitStarOnly) {
  PublicSuffixList psl;
  EXPECT_EQ(psl.public_suffix("a.b.c"), "c");
  EXPECT_EQ(psl.registrable_domain("a.b.c").value(), "b.c");
}

TEST(Psl, AddCustomRule) {
  PublicSuffixList psl;
  psl.add_rule("custom.suffix");
  EXPECT_EQ(psl.public_suffix("x.custom.suffix"), "custom.suffix");
  EXPECT_EQ(psl.registrable_domain("a.x.custom.suffix").value(),
            "x.custom.suffix");
}

// Hosts are read the way the zone stores names: one trailing dot (the
// root) is ignored and rules match ASCII case-insensitively. Answers are
// views into the host, in its own case.
TEST(Psl, IgnoresOneTrailingDot) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.registrable_domain("www.example.com.").value(), "example.com");
  EXPECT_EQ(psl.public_suffix("www.example.com."), "com");
  EXPECT_EQ(psl.registrable_domain("a.b.example.co.uk.").value(),
            "example.co.uk");
  EXPECT_FALSE(psl.registrable_domain("com.").has_value());
  EXPECT_FALSE(psl.registrable_domain("foo.ck.").has_value());
  EXPECT_FALSE(psl.same_site("a.example.com.", "b.other.com."));
  EXPECT_TRUE(psl.same_site("a.example.com.", "b.example.com"));
  // Only one: a second trailing dot is an empty label.
  EXPECT_FALSE(psl.registrable_domain("example.com..").has_value());
}

TEST(Psl, MatchesRulesCaseInsensitively) {
  auto psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.registrable_domain("WWW.EXAMPLE.CO.UK").value(),
            "EXAMPLE.CO.UK");
  EXPECT_EQ(psl.public_suffix("WWW.EXAMPLE.CO.UK"), "CO.UK");
  EXPECT_EQ(psl.registrable_domain("Shop.Example.Com.").value(),
            "Example.Com");
  EXPECT_FALSE(psl.registrable_domain("Foo.CK").has_value());
  EXPECT_EQ(psl.registrable_domain("A.WWW.CK").value(), "WWW.CK");
  EXPECT_TRUE(psl.same_site("WWW.Example.COM", "static.example.com."));
  EXPECT_FALSE(psl.same_site("EXAMPLE.COM", "example.org"));

  PublicSuffixList custom;
  custom.add_rule("Custom.Suffix");
  EXPECT_EQ(custom.registrable_domain("a.x.custom.SUFFIX").value(),
            "x.custom.SUFFIX");
}

TEST(Psl, AnswersAreViewsIntoTheHost) {
  auto psl = PublicSuffixList::builtin();
  const std::string host = "cdn.assets.example.co.uk";
  const auto reg = psl.registrable_domain(host);
  ASSERT_TRUE(reg.has_value());
  EXPECT_EQ(reg->data(), host.data() + host.size() - reg->size());
  const auto suffix = psl.public_suffix(host);
  EXPECT_EQ(suffix.data() + suffix.size(), host.data() + host.size());
}

// The walk against the allocating algorithm it replaced, on canonical
// hosts: every FQDN of a universe large enough to hold two *.ck sites (so
// the wildcard and the !www.ck exception both decide answers), plus
// malformed and edge hosts.
TEST(Psl, WalkMatchesReferenceOnUniverseAndEdgeHosts) {
  const auto psl = PublicSuffixList::builtin();
  const ReferencePsl ref(PublicSuffixList::builtin_rules());

  std::vector<std::string> hosts = {
      "", ".", "..", "a..com", ".com", "..com", "com", "zz", "ck",
      "localhost", "example.zz", "a.b.c.zz", "www.ck", "a.www.ck", "foo.ck",
      "x.foo.ck", "a.b.foo.ck", "co.uk", "uk", "x.uk", "github.io",
      "a.b.github.io", "amazonaws.com", "s3.eu.amazonaws.com", "a..b.co.uk",
      "-.com", "x.-", "1.2.3.4"};

  cloud::ProviderCatalog providers;
  UniverseConfig cfg;
  cfg.site_count = 60'030;
  cfg.seed = 777;
  const Universe universe(cfg, providers);
  for (const auto& f : universe.fqdns()) hosts.push_back(f.name);

  int mismatches = 0, suffix_hosts = 0, wildcard = 0, exception = 0;
  for (const auto& host : hosts) {
    const auto want = ref.registrable_domain(host);
    const auto got = psl.registrable_domain(host);
    const bool same = want.has_value() == got.has_value() &&
                      (!want || *want == *got) &&
                      ref.public_suffix(host) == psl.public_suffix(host);
    if (!same && ++mismatches <= 10)
      ADD_FAILURE() << "host '" << host << "': reference "
                    << want.value_or("<none>") << ", walk "
                    << std::string(got.value_or("<none>"));
    suffix_hosts += !want.has_value();
    wildcard += host.ends_with(".ck") && !want.has_value();
    exception += host.ends_with("www.ck") && want == "www.ck";
  }
  EXPECT_EQ(mismatches, 0);
  // The comparison reached every branch of the rules.
  EXPECT_GT(suffix_hosts, 0);
  EXPECT_GT(wildcard, 1);
  EXPECT_GT(exception, 1);
}

class PslSweep
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(PslSweep, RegistrableDomainMatches) {
  auto psl = PublicSuffixList::builtin();
  auto [host, expected] = GetParam();
  auto got = psl.registrable_domain(host);
  ASSERT_TRUE(got.has_value()) << host;
  EXPECT_EQ(*got, expected) << host;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PslSweep,
    ::testing::Values(
        std::pair{"www.google.com", "google.com"},
        std::pair{"s3.eu.amazonaws.com", "eu.amazonaws.com"},
        std::pair{"a.b.c.d.example.org", "example.org"},
        std::pair{"shop.example.com.au", "example.com.au"},
        std::pair{"media.example.de", "example.de"},
        std::pair{"x.y.site42.io", "site42.io"},
        std::pair{"cdn.assets.example.net", "example.net"},
        std::pair{"app.example.co.jp", "example.co.jp"}));

}  // namespace
}  // namespace nbv6::web
