// Figure 18: heatmap of the top-20 IPv4-only resource domains by span,
// broken down by the resource types they serve to IPv6-partial sites.
#include "paper.h"

using namespace nbv6;

void bench::fig18_resource_heatmap(const Paper& p) {
  bench::section("Figure 18: top-20 IPv4-only domains x resource type");
  std::printf("%-24s %6s", "domain", "(any)");
  for (int t = 0; t < web::kResourceTypeCount; ++t)
    std::printf(" %14s",
                std::string(to_string(static_cast<web::ResourceType>(t))).c_str());
  std::printf("\n");

  size_t rows = std::min<size_t>(20, p.span.impacts().size());
  for (size_t i = 0; i < rows; ++i) {
    const auto& d = p.span.impacts()[i];
    std::printf("%-24s %6d", d.etld1.c_str(), d.span);
    for (int t = 0; t < web::kResourceTypeCount; ++t)
      std::printf(" %14d", d.type_site_counts[static_cast<size_t>(t)]);
    std::printf("\n");
  }

  std::printf(
      "\nPaper reference: doubleclick.net tops the list (span 6666); images "
      "dominate,\nfollowed by sub_frame, xmlhttprequest, and script — "
      "IPv6-only users see broken\nimages and impaired functionality.\n");
}
