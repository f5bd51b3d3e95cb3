// scenario_whatif: compare a scenario against a what-if variant on the
// scenario chain — the cheap way to ask "what changes if the ISP also
// ships a CPE firmware fix?".
//
// Both runs share one cache. The variant differs from the base only in its
// timeline, so its population key hits: the population is sampled once,
// and of the simulation only the homes the fix re-plans run again (every
// other home's shard is a cache hit). The timeline, the statistics and the
// panel re-run for the changed world. The closing panel puts the two
// pre/post window comparisons side by side.
//
//   ./build/example_scenario_whatif [scenario.cfg]
#include <cstdio>
#include <string>

#include "core/scenario_pipeline.h"
#include "engine/fleet.h"
#include "engine/pipeline.h"
#include "traffic/service_catalog.h"

using namespace nbv6;

int main(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: %s [scenario.cfg]\n", argv[0]);
    return 2;
  }
  engine::FleetConfig base;
  base.residences = 48;
  base.days = 14;
  base.seed = 20260808;
  if (argc > 1) {
    std::string error;
    auto loaded = engine::FleetConfig::load(argv[1], &error);
    if (!loaded) {
      std::fprintf(stderr, "failed to load scenario config: %s: %s\n",
                   argv[1], error.c_str());
      return 1;
    }
    base = *loaded;
  }

  // The what-if: halfway through the observation the ISP pushes a CPE
  // firmware fix repairing 60% of the broken-IPv6 homes.
  engine::FleetConfig whatif = base;
  engine::TimelineEvent fix;
  fix.kind = engine::TimelineEventKind::cpe_fix;
  fix.start_day = base.days / 2;
  fix.end_day = base.days - 1;
  fix.fraction = 0.6;
  whatif.timeline->events.push_back(fix);

  const auto catalog = traffic::build_paper_catalog();
  engine::PassCache cache;

  engine::Pipeline base_pipe = core::make_scenario_pipeline(base, catalog);
  auto base_stats = base_pipe.run(&cache);
  engine::Pipeline whatif_pipe = core::make_scenario_pipeline(whatif, catalog);
  auto whatif_stats = whatif_pipe.run(&cache);

  std::printf("base run: %zu passes executed\n", base_stats.executed);
  std::printf(
      "what-if run: %zu executed, %zu from cache (the population sample "
      "carried over: %llu fresh sample executions)\n",
      whatif_stats.executed, whatif_stats.cached,
      static_cast<unsigned long long>(whatif_pipe.executions("sample")));

  const auto& base_result = base_pipe.output<engine::FleetResult>("fleet_result");
  const auto& whatif_result =
      whatif_pipe.output<engine::FleetResult>("fleet_result");
  std::printf(
      "\nsessions: base %llu, what-if %llu; HE failures: base %llu, "
      "what-if %llu\n",
      static_cast<unsigned long long>(base_result.totals.sessions),
      static_cast<unsigned long long>(whatif_result.totals.sessions),
      static_cast<unsigned long long>(base_result.totals.he_failures),
      static_cast<unsigned long long>(whatif_result.totals.he_failures));

  // The decision-relevant view: did the fix move the pre/post panel?
  std::printf("\n-- base: first half vs second half --\n");
  core::write_panel_tsv(stdout,
                        base_pipe.output<core::GroupComparison>("window_panel"));
  std::printf("\n-- what-if (CPE fix at day %d): first half vs second half --\n",
              fix.start_day);
  core::write_panel_tsv(
      stdout, whatif_pipe.output<core::GroupComparison>("window_panel"));
  return 0;
}
