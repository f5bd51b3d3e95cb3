#include "flowmon/anonymize.h"

namespace nbv6::flowmon {

FlowRecord anonymize(const FlowRecord& record, const net::CryptoPan& cpan) {
  FlowRecord out = record;
  out.key.src = cpan.anonymize_paper_policy(record.key.src);
  out.key.dst = cpan.anonymize_paper_policy(record.key.dst);
  return out;
}

std::vector<FlowRecord> anonymize_batch(std::span<const FlowRecord> records,
                                        const net::CryptoPan& cpan) {
  // Gather endpoints into one address batch (src, dst interleaved), run
  // them through the cache-amortized batch anonymizer, scatter back.
  std::vector<net::IpAddr> addrs;
  addrs.reserve(2 * records.size());
  for (const auto& r : records) {
    addrs.push_back(r.key.src);
    addrs.push_back(r.key.dst);
  }
  std::vector<net::IpAddr> anon(addrs.size());
  cpan.anonymize_paper_policy_batch(addrs, anon);

  std::vector<FlowRecord> out(records.begin(), records.end());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].key.src = anon[2 * i];
    out[i].key.dst = anon[2 * i + 1];
  }
  return out;
}

}  // namespace nbv6::flowmon
