// Table 1: per-residence IPv6 traffic volume, flow count, and fractions,
// external and internal, with daily mean (s.d.).
#include "paper.h"

using namespace nbv6;

namespace {

void print_scope_row(const char* scope, const core::ScopeReport& r) {
  std::printf(
      "  %-8s | vol GB: total=%9.2f v4=%9.2f v6=%9.2f | frac(bytes): "
      "overall=%.3f daily=%.3f (%.3f)\n",
      scope, r.total_gb, r.v4_gb, r.v6_gb, r.overall_byte_fraction,
      r.daily_byte_fraction.mean, r.daily_byte_fraction.stddev);
  std::printf(
      "  %-8s | flows M: total=%9.3f v4=%9.3f v6=%9.3f | frac(flows): "
      "overall=%.3f daily=%.3f (%.3f)\n",
      "", r.total_flows_m, r.v4_flows_m, r.v6_flows_m,
      r.overall_flow_fraction, r.daily_flow_fraction.mean,
      r.daily_flow_fraction.stddev);
}

}  // namespace

void bench::table1_residences(const Paper& p) {
  bench::section("Table 1: per-residence IPv6 traffic (external & internal)");
  for (const auto& r : p.residences) {
    auto report = core::analyze_residence(r.config.name, r.monitor);
    std::printf("Residence %s\n", report.name.c_str());
    print_scope_row("External", report.external);
    print_scope_row("Internal", report.internal);
  }

  std::printf(
      "\nPaper reference (external, fraction IPv6 bytes overall): "
      "A=0.679 B=0.638 C=0.122 D=0.495 E=0.066\n");
  std::printf(
      "Paper reference (external, fraction IPv6 flows overall): "
      "A=0.503 B=0.633 C=0.089 D=0.824 E=0.110\n");
}
