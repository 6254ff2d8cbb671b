// PIM version 2 message wire formats (draft-ietf-pim-v2-dm-03 §4):
// common header, encoded address formats, Hello, Join/Prune (also used for
// Graft and Graft-Ack, which share its body), and Assert. The common header
// codec also frames HPIM-DM (hpimdm/messages.hpp), which differs only in
// its version nibble.
#pragma once

#include <cstdint>
#include <vector>

#include "ipv6/address.hpp"
#include "util/buffer.hpp"
#include "util/parse_result.hpp"

namespace mip6 {

enum class PimType : std::uint8_t {
  kHello = 0,
  kJoinPrune = 3,
  kAssert = 5,
  kGraft = 6,
  kGraftAck = 7,
  kStateRefresh = 9,
};

/// Version nibbles of the PIM-family common header (IP protocol 103).
inline constexpr std::uint8_t kPimVersion = 2;   // PIM-DM
inline constexpr std::uint8_t kHpimVersion = 3;  // HPIM-DM
/// HPIM-DM's last message type; PIM-DM leaves unknown types to the engine.
inline constexpr std::uint8_t kHpimMaxType = 4;

/// The 4-octet common header (version | type, reserved, checksum) and the
/// body after it. `type` is a PimType under kPimVersion and an HpimType
/// under kHpimVersion.
struct PimHeader {
  std::uint8_t type = 0;
  Bytes body;
};

/// Serializes the common header for `version` + body with the IPv6
/// pseudo-header checksum, ready to be the payload of a proto-103 datagram.
Bytes serialize_pim(std::uint8_t version, std::uint8_t type, BytesView body,
                    const Address& src, const Address& dst);
/// No-throw parse + checksum verification of a `version` payload. A frame
/// of the other engine is rejected at the header with a named kBadType
/// reason ("PIM version is not 2" / "HPIM version is not 3"); HPIM-DM also
/// rejects a type nibble beyond its last message type.
ParseResult<PimHeader> try_parse_pim(std::uint8_t version, BytesView payload,
                                     const Address& src, const Address& dst);

// --- Encoded address blocks (family 2 = IPv6, encoding 0) -----------------

void write_encoded_unicast(BufferWriter& w, const Address& a);
ParseResult<Address> try_read_encoded_unicast(WireCursor& c);
void write_encoded_group(BufferWriter& w, const Address& g);
ParseResult<Address> try_read_encoded_group(WireCursor& c);
void write_encoded_source(BufferWriter& w, const Address& s,
                          std::uint8_t flags = 0x4 /* S bit */);
ParseResult<Address> try_read_encoded_source(WireCursor& c);

// --- Hello -----------------------------------------------------------------

struct PimHello {
  std::uint16_t holdtime = 105;

  Bytes body() const;
  static ParseResult<PimHello> try_parse(BytesView body);
};

// --- Join/Prune (and Graft / Graft-Ack, same body) ---------------------------

struct PimJoinPrune {
  /// The router on the shared link this message is directed at.
  Address upstream_neighbor;
  std::uint16_t holdtime = 0;  // seconds; applies to prunes
  struct GroupEntry {
    Address group;
    std::vector<Address> joined_sources;
    std::vector<Address> pruned_sources;
  };
  std::vector<GroupEntry> groups;

  Bytes body() const;
  /// No-throw parse; bounds group records and per-group source counts.
  static ParseResult<PimJoinPrune> try_parse(BytesView body);

  /// Single-source convenience constructors.
  static PimJoinPrune join(const Address& upstream, const Address& src,
                           const Address& group);
  static PimJoinPrune prune(const Address& upstream, const Address& src,
                            const Address& group, std::uint16_t holdtime);
};

// --- State Refresh (RFC 3973 §4.5.1 layout, subset) -------------------------

struct PimStateRefresh {
  Address group;
  Address source;
  /// First-hop router that originated this refresh wave.
  Address originator;
  std::uint32_t metric_preference = 0;
  std::uint32_t metric = 0;
  /// Remaining propagation budget; decremented per hop.
  std::uint8_t ttl = 16;
  /// Set when the refresh travelled out a pruned interface.
  bool prune_indicator = false;
  /// Originator's refresh period in seconds.
  std::uint8_t interval_s = 60;

  Bytes body() const;
  static ParseResult<PimStateRefresh> try_parse(BytesView body);
};

// --- Assert ------------------------------------------------------------------

struct PimAssert {
  Address group;
  Address source;
  std::uint32_t metric_preference = 0;  // high bit = RPT (always 0 in DM)
  std::uint32_t metric = 0;

  Bytes body() const;
  static ParseResult<PimAssert> try_parse(BytesView body);
};

}  // namespace mip6
