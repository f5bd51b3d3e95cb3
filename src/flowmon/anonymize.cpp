#include "flowmon/anonymize.h"

namespace nbv6::flowmon {

FlowRecord anonymize(const FlowRecord& record, const net::CryptoPan& cpan) {
  FlowRecord out = record;
  out.key.src = cpan.anonymize_paper_policy(record.key.src);
  out.key.dst = cpan.anonymize_paper_policy(record.key.dst);
  return out;
}

}  // namespace nbv6::flowmon
