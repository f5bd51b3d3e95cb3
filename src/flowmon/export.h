// Flow-log export: the router-to-server data path of §3.1 and §A.
//
// Each residence router uploads its day's flow records. Before anything
// leaves the router, endpoint addresses are anonymized with CryptoPAN under
// the paper's policy (IPv4: scramble the low 8 bits; IPv6: the low /64),
// which preserves prefixes so AS- and domain-level aggregation still work
// downstream. Records serialize to a line-oriented text format (one record
// per line, tab-separated) that round-trips exactly.
#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "flowmon/flow_record.h"
#include "net/cryptopan.h"

namespace nbv6::flowmon {

/// Anonymize one record's endpoints in place (paper policy). Ports,
/// counters, and timestamps are unchanged — they carry no identity.
FlowRecord anonymize(const FlowRecord& record, const net::CryptoPan& cpan);

/// Anonymize a whole batch through CryptoPan's batch entry point: endpoint
/// addresses across the batch share prefixes (one residence, few remote
/// /24s), so the PRF cache amortizes the AES work across records.
std::vector<FlowRecord> anonymize_batch(std::span<const FlowRecord> records,
                                        const net::CryptoPan& cpan);

/// Serialize one record to a single line (no trailing newline):
/// proto \t src \t sport \t dst \t dport \t start \t end \t
/// bytes_out \t bytes_in \t pkts_out \t pkts_in \t scope
std::string serialize(const FlowRecord& record);

/// Parse a line produced by serialize(). Returns nullopt on any malformed
/// field (wrong column count, bad address, bad number).
std::optional<FlowRecord> deserialize(std::string_view line);

/// A day's upload batch.
struct DailyExport {
  int day = 0;
  std::vector<FlowRecord> records;
};

/// Collects records by day and produces anonymized, serialized uploads —
/// the piece that runs on the router.
class Exporter {
 public:
  explicit Exporter(const net::CryptoPan::Secret& secret) : cpan_(secret) {}

  /// Queue a record (typically from a conntrack DESTROY callback).
  void add(const FlowRecord& record);

  /// Anonymized batch for `day` (records whose start falls on that day),
  /// removing them from the queue. Empty batch if none.
  DailyExport flush_day(int day);

  /// All days currently queued, ascending.
  [[nodiscard]] std::vector<int> pending_days() const;

  [[nodiscard]] size_t pending_records() const;

  /// Write a batch in the wire format (one line per record, preceded by a
  /// "# day N" header line).
  static void write(std::ostream& out, const DailyExport& batch);

  /// Read one batch back (server side).
  static std::optional<DailyExport> read(std::istream& in);

 private:
  net::CryptoPan cpan_;
  std::map<int, std::vector<FlowRecord>> queue_;
};

}  // namespace nbv6::flowmon
