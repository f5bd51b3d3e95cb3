#include "flowmon/monitor.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace nbv6::flowmon {

namespace {

/// Cell `i` of a dense series, growing the series to reach it.
FamilySplit& cell(std::vector<FamilySplit>& series, std::size_t i) {
  if (i >= series.size()) series.resize(i + 1);
  return series[i];
}

/// Cell-wise sum; the result stays canonical because `from` is.
void add_series(std::vector<FamilySplit>& into,
                const std::vector<FamilySplit>& from) {
  if (into.size() < from.size()) into.resize(from.size());
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

std::uint64_t hash_addr(const net::IpAddr& a) {
  if (a.is_v4()) return mix64(a.v4().value());
  return mix64(a.v6().high64() ^ mix64(a.v6().low64()));
}

}  // namespace

std::string_view to_string(Scope s) {
  return s == Scope::external ? "external" : "internal";
}

ConntrackListener FlowMonitor::make_listener() {
  ConntrackListener listener;
  listener.on_new = [this](const net::FlowKey&, Timestamp) { ++new_events_; };
  listener.on_destroy = [this](const FlowRecord& r) {
    ingest(r, *this);  // may throw; counts nothing then
    ++destroy_events_;
  };
  return listener;
}

void FlowMonitor::merge(const FlowMonitor& o) {
  for (size_t i = 0; i < totals_.size(); ++i) totals_[i] += o.totals_[i];
  for (size_t i = 0; i < daily_.size(); ++i) add_series(daily_[i], o.daily_[i]);
  add_series(hourly_external_, o.hourly_external_);
  if (dests_.empty()) {
    dests_ = o.dests_;
    dest_slots_ = o.dest_slots_;
  } else {
    // One rehash at most: size the table for every entry `o` could add.
    std::size_t cap = dest_slots_.size();
    while ((dests_.size() + o.dests_.size()) * 2 > cap) cap *= 2;
    if (cap != dest_slots_.size()) rehash_dest_slots(cap);
    // By index and by value: dest_tally() may append to dests_, and `o`
    // may be *this (self-merge doubles every tally).
    for (size_t i = 0, n = o.dests_.size(); i < n; ++i) {
      const DestTally d = o.dests_[i];
      dest_tally(d.addr) += d.tally;
    }
  }
  new_events_ += o.new_events_;
  destroy_events_ += o.destroy_events_;
}

void FlowMonitor::rehash_dest_slots(std::size_t cap) {
  dest_slots_.assign(cap, 0);
  const std::size_t mask = cap - 1;
  for (std::uint32_t i = 0; i < dests_.size(); ++i) {
    std::size_t s = hash_addr(dests_[i].addr) & mask;
    while (dest_slots_[s] != 0) s = (s + 1) & mask;
    dest_slots_[s] = i + 1;
  }
}

Tally& FlowMonitor::dest_tally(const net::IpAddr& addr) {
  // Keep load at or under 1/2 so probe chains stay short.
  if ((dests_.size() + 1) * 2 > dest_slots_.size())
    rehash_dest_slots(dest_slots_.empty() ? 16 : dest_slots_.size() * 2);
  const std::size_t mask = dest_slots_.size() - 1;
  std::size_t s = hash_addr(addr) & mask;
  while (dest_slots_[s] != 0) {
    DestTally& d = dests_[dest_slots_[s] - 1];
    if (d.addr == addr) return d.tally;
    s = (s + 1) & mask;
  }
  dests_.push_back({addr, Tally{}});
  dest_slots_[s] = static_cast<std::uint32_t>(dests_.size());
  return dests_.back().tally;
}

void FlowMonitor::ingest(const FlowRecord& r, FlowMonitor& tallies) {
  if (r.start < 0)
    throw std::out_of_range("FlowMonitor: flow starts before time 0 (start=" +
                            std::to_string(r.start) + ")");
  const bool v6 = r.family() == net::Family::v6;
  Tally t{r.total_bytes(), 1};

  auto& total = totals_[index(r.scope)];
  auto& daily = cell(daily_[index(r.scope)], static_cast<size_t>(r.day()));
  if (v6) {
    total.v6 += t;
    daily.v6 += t;
  } else {
    total.v4 += t;
    daily.v4 += t;
  }

  if (r.scope == Scope::external) {
    auto& hourly = cell(tallies.hourly_external_,
                        static_cast<size_t>(r.start / kSecondsPerHour));
    if (v6)
      hourly.v6 += t;
    else
      hourly.v4 += t;
    tallies.dest_tally(r.key.dst) += t;
  }
}

void MonitorSink::add(const FlowRecord& r) {
  monitor_->ingest(r, *tallies_);
  ++monitor_->new_events_;
  ++monitor_->destroy_events_;
}

std::vector<double> FlowMonitor::daily_v6_fractions(Scope s,
                                                    bool by_bytes) const {
  std::vector<double> out;
  for (const auto& split : daily_[index(s)]) {
    double f = by_bytes ? split.v6_byte_fraction() : split.v6_flow_fraction();
    if (f >= 0.0) out.push_back(f);  // empty days give -1
  }
  return out;
}

std::vector<double> FlowMonitor::hourly_v6_fraction_series(
    bool by_bytes) const {
  std::vector<double> out;
  const auto& hours = hourly_external_;
  size_t first = 0;
  while (first < hours.size() && hours[first].total_flows() == 0) ++first;
  if (first == hours.size()) return out;
  out.reserve(hours.size() - first);
  double prev = 0.0;
  for (size_t h = first; h < hours.size(); ++h) {
    double f = by_bytes ? hours[h].v6_byte_fraction()
                        : hours[h].v6_flow_fraction();
    if (f >= 0.0) prev = f;
    out.push_back(prev);
  }
  return out;
}

std::vector<DestTally> FlowMonitor::destination_tallies() const {
  std::vector<DestTally> out = dests_;
  std::sort(out.begin(), out.end(), [](const DestTally& a, const DestTally& b) {
    return a.addr < b.addr;
  });
  return out;
}

}  // namespace nbv6::flowmon
