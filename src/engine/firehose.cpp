#include "engine/firehose.h"

#include <algorithm>
#include <thread>

#include "engine/run_spec.h"

namespace nbv6::engine {

Firehose::Firehose(const traffic::ServiceCatalog& catalog, int threads)
    : catalog_(&catalog) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    threads = std::max(threads, 1);
  }
  lanes_ = threads;
  if (lanes_ > 1) pool_ = std::make_unique<ThreadPool>(lanes_ - 1);
}

Firehose::Result Firehose::run(const FleetConfig& cfg, const Sink& sink) {
  SampledFleet fleet = sample_stage(cfg, *catalog_);
  apply_timeline(fleet, cfg.timeline, cfg.seed, cfg.days);
  StreamStats s =
      stream_fleet(*catalog_, fleet, cfg.days, cfg.arrival, pool_.get(), sink);
  Result r;
  r.flows = s.flows;
  r.lanes = lanes_;
  r.totals = std::move(s.totals);
  return r;
}

}  // namespace nbv6::engine
