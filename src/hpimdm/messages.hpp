// HPIM-DM message wire formats (arXiv 2002.06635, adapted).
//
// HPIM-DM shares PIM's IP protocol number (103) and 4-octet common header
// (serialize_pim / try_parse_pim in pimdm/messages.hpp) but stamps
// kHpimVersion (3) in the version nibble, so a frame from the other engine
// is rejected at the header with a named kBadType reason instead of being
// half-parsed: a PIM-DM router sees "PIM version is not 2", an HPIM-DM
// router sees "HPIM version is not 3".
//
// Control reliability lives in the message layer: every Interest and Sync
// carries a per-neighbor sequence number and is retransmitted until the
// matching cumulative Ack arrives. Hello and Assert are unsequenced
// (periodic / data-driven, loss-tolerant by design).
#pragma once

#include <cstdint>
#include <vector>

#include "ipv6/address.hpp"
#include "pimdm/messages.hpp"
#include "util/buffer.hpp"
#include "util/parse_result.hpp"

namespace mip6 {

enum class HpimType : std::uint8_t {
  kHello = 0,
  kAck = 1,
  kInterest = 2,
  kSync = 3,
  kAssert = 4,
};
static_assert(static_cast<std::uint8_t>(HpimType::kAssert) == kHpimMaxType,
              "try_parse_pim bounds the HPIM type nibble at kHpimMaxType");

// --- Hello -----------------------------------------------------------------

struct HpimHello {
  std::uint16_t holdtime = 105;  // seconds
  /// Random per-incarnation id; a change signals the neighbor rebooted and
  /// its reliable channel must be resynchronized.
  std::uint32_t generation_id = 0;

  Bytes body() const;
  static ParseResult<HpimHello> try_parse(BytesView body);
};

// --- Ack -------------------------------------------------------------------

struct HpimAck {
  /// Cumulative: acknowledges every sequenced message with seq <= this.
  std::uint32_t seq = 0;

  Bytes body() const;
  static ParseResult<HpimAck> try_parse(BytesView body);
};

// --- Interest (reliable, sequenced) ---------------------------------------

/// One router telling one upstream neighbor whether it wants (S,G)
/// traffic. Replaces PIM-DM's Prune / Graft / Join-override triangle with a
/// single acknowledged declaration.
struct HpimInterest {
  std::uint32_t seq = 0;
  Address source;
  Address group;
  bool interested = false;

  Bytes body() const;
  static ParseResult<HpimInterest> try_parse(BytesView body);
};

// --- Sync (reliable, sequenced) -------------------------------------------

/// Bulk tree-state synchronization sent on neighbor up/recovery: every
/// (S,G) this router routes through that neighbor, with its current
/// interest, in one (fragmented) acknowledged exchange — instead of waiting
/// for the next flood-and-prune cycle.
struct HpimSync {
  struct Entry {
    Address source;
    Address group;
    bool interested = false;
  };
  std::uint32_t seq = 0;
  /// Set when further fragments of the same sync follow.
  bool more = false;
  std::vector<Entry> entries;

  Bytes body() const;
  /// No-throw parse; entry count is bounded (bound::kMaxHpimSyncEntries)
  /// and a count lie is rejected in O(1) before per-entry work.
  static ParseResult<HpimSync> try_parse(BytesView body);
};

// --- Assert ----------------------------------------------------------------

/// Same layout and election tuple as PIM-DM's Assert (metric preference,
/// metric, higher address wins ties); duplicate-forwarder resolution is
/// unchanged across engines.
struct HpimAssert {
  Address group;
  Address source;
  std::uint32_t metric_preference = 0;
  std::uint32_t metric = 0;

  Bytes body() const;
  static ParseResult<HpimAssert> try_parse(BytesView body);
};

}  // namespace mip6
