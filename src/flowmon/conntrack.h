// Conntrack event delivery.
//
// Models the Linux conntrack facility the paper's router monitor subscribes
// to (§3.1): flows are opened (NEW), accumulate per-direction byte and
// packet counters while live (nf_conntrack_acct), and emit a DESTROY event
// carrying the final counters when closed or when the idle timeout garbage-
// collects them. Listeners (the FlowMonitor) receive both events from a
// conntrack table (engine::FlatConntrack).
#pragma once

#include <functional>

#include "flowmon/flow_record.h"
#include "net/flow.h"

namespace nbv6::flowmon {

/// Event callbacks. NEW carries only the key and time; DESTROY carries the
/// completed record.
struct ConntrackListener {
  std::function<void(const net::FlowKey&, Timestamp)> on_new;
  std::function<void(const FlowRecord&)> on_destroy;
};

}  // namespace nbv6::flowmon
