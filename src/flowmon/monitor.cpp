#include "flowmon/monitor.h"

namespace nbv6::flowmon {

std::string_view to_string(Scope s) {
  return s == Scope::external ? "external" : "internal";
}

ConntrackListener FlowMonitor::make_listener() {
  ConntrackListener listener;
  listener.on_new = [this](const net::FlowKey&, Timestamp) { ++new_events_; };
  listener.on_destroy = [this](const FlowRecord& r) {
    ++destroy_events_;
    ingest(r);
  };
  return listener;
}

void FlowMonitor::merge(const FlowMonitor& o) {
  for (size_t i = 0; i < totals_.size(); ++i) totals_[i] += o.totals_[i];
  for (size_t i = 0; i < daily_.size(); ++i)
    for (const auto& [day, split] : o.daily_[i]) daily_[i][day] += split;
  for (const auto& [hour, split] : o.hourly_external_)
    hourly_external_[hour] += split;
  for (const auto& [addr, tally] : o.dest_external_)
    dest_external_[addr] += tally;
  new_events_ += o.new_events_;
  destroy_events_ += o.destroy_events_;
}

void FlowMonitor::ingest(const FlowRecord& r) {
  const bool v6 = r.family() == net::Family::v6;
  Tally t{r.total_bytes(), 1};

  auto& total = totals_[index(r.scope)];
  auto& daily = daily_[index(r.scope)][r.day()];
  if (v6) {
    total.v6 += t;
    daily.v6 += t;
  } else {
    total.v4 += t;
    daily.v4 += t;
  }

  if (r.scope == Scope::external) {
    int hour = static_cast<int>(r.start / kSecondsPerHour);
    auto& hourly = hourly_external_[hour];
    if (v6)
      hourly.v6 += t;
    else
      hourly.v4 += t;
    dest_external_[r.key.dst] += t;
  }
}

std::vector<double> FlowMonitor::daily_v6_fractions(Scope s,
                                                    bool by_bytes) const {
  std::vector<double> out;
  for (const auto& [day, split] : daily_[index(s)]) {
    double f = by_bytes ? split.v6_byte_fraction() : split.v6_flow_fraction();
    if (f >= 0.0) out.push_back(f);
  }
  return out;
}

std::vector<double> FlowMonitor::hourly_v6_fraction_series(
    bool by_bytes) const {
  std::vector<double> out;
  if (hourly_external_.empty()) return out;
  int first = hourly_external_.begin()->first;
  int last = hourly_external_.rbegin()->first;
  double prev = 0.0;
  for (int h = first; h <= last; ++h) {
    auto it = hourly_external_.find(h);
    if (it != hourly_external_.end()) {
      double f = by_bytes ? it->second.v6_byte_fraction()
                          : it->second.v6_flow_fraction();
      if (f >= 0.0) prev = f;
    }
    out.push_back(prev);
  }
  return out;
}

std::vector<DestTally> FlowMonitor::destination_tallies() const {
  std::vector<DestTally> out;
  out.reserve(dest_external_.size());
  for (const auto& [addr, tally] : dest_external_)
    out.push_back({addr, tally});
  return out;
}

}  // namespace nbv6::flowmon
