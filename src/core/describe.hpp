// One-line human-readable decoding of any datagram this stack produces —
// for traces, examples and debugging. Never throws: malformed input is
// described as such.
#pragma once

#include <string>

#include "util/buffer.hpp"

namespace mip6 {

class Link;

/// e.g. "IPv6 2001:db8:1::99 -> ff1e::1 hl=63 | UDP 9000->9000 (76 B)"
///      "IPv6 fe80::2 -> ff02::d hl=1 | PIM Graft up=fe80::3 J(S,G)"
///      "IPv6 fe80::2 -> ff02::d hl=1 | HPIM Ack seq=4"
///      "IPv6 2001:db8:4::4 -> 2001:db8:6::99 hl=64 | tunnel[ IPv6 ... ]"
std::string describe_datagram(BytesView wire);

/// e.g. "link2: up tx=142 rx=140 dropped=2 corrupted=0"
///      "link4: DOWN loss=10% corrupt=1% jitter=5ms tx=80 rx=71 ..."
std::string describe_link(const Link& link);

}  // namespace mip6
