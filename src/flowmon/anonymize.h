// Flow-record anonymization: the router-side privacy step of §3.1 and §A.
//
// Before a flow record leaves the residence router, its endpoint addresses
// are anonymized with CryptoPAN under the paper's policy (IPv4: scramble
// the low 8 bits; IPv6: the low /64), which preserves prefixes so AS- and
// domain-level aggregation still work downstream. One call per record:
// CryptoPan's prefix cache already amortizes the AES work across records
// that share prefixes.
#pragma once

#include "flowmon/flow_record.h"
#include "net/cryptopan.h"

namespace nbv6::flowmon {

/// Anonymize one record's endpoints (paper policy). Ports, counters, and
/// timestamps are unchanged — they carry no identity.
FlowRecord anonymize(const FlowRecord& record, const net::CryptoPan& cpan);

}  // namespace nbv6::flowmon
