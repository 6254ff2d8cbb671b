#include "hpimdm/messages.hpp"

#include "ipv6/header.hpp"

namespace mip6 {
namespace {

/// Encoded-unicast (18) + encoded-group (20) + interested flag (1).
constexpr std::size_t kSyncEntrySize = 39;

}  // namespace

// --- Hello -------------------------------------------------------------------

Bytes HpimHello::body() const {
  BufferWriter w(6);
  w.u16(holdtime);
  w.u32(generation_id);
  return std::move(w).take();
}

ParseResult<HpimHello> HpimHello::try_parse(BytesView body) {
  WireCursor c(body);
  HpimHello h;
  h.holdtime = c.u16();
  h.generation_id = c.u32();
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "HPIM Hello body"};
  }
  if (!c.empty()) {
    return ParseFailure{ParseReason::kOverlength,
                        "trailing octets after HPIM Hello"};
  }
  return h;
}

// --- Ack ---------------------------------------------------------------------

Bytes HpimAck::body() const {
  BufferWriter w(4);
  w.u32(seq);
  return std::move(w).take();
}

ParseResult<HpimAck> HpimAck::try_parse(BytesView body) {
  WireCursor c(body);
  HpimAck a;
  a.seq = c.u32();
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "HPIM Ack body"};
  }
  if (!c.empty()) {
    return ParseFailure{ParseReason::kOverlength,
                        "trailing octets after HPIM Ack"};
  }
  return a;
}

// --- Interest ----------------------------------------------------------------

Bytes HpimInterest::body() const {
  BufferWriter w(48);
  w.u32(seq);
  write_encoded_unicast(w, source);
  write_encoded_group(w, group);
  w.u8(interested ? 1 : 0);
  return std::move(w).take();
}

ParseResult<HpimInterest> HpimInterest::try_parse(BytesView body) {
  WireCursor c(body);
  HpimInterest m;
  m.seq = c.u32();
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "HPIM Interest sequence"};
  }
  ParseResult<Address> source = try_read_encoded_unicast(c);
  if (!source.ok()) return source.failure();
  m.source = source.value();
  ParseResult<Address> group = try_read_encoded_group(c);
  if (!group.ok()) return group.failure();
  m.group = group.value();
  std::uint8_t flag = c.u8();
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "HPIM Interest flag"};
  }
  if (flag > 1) {
    return ParseFailure{ParseReason::kSemantic,
                        "HPIM Interest flag is not 0 or 1"};
  }
  m.interested = flag == 1;
  if (!c.empty()) {
    return ParseFailure{ParseReason::kOverlength,
                        "trailing octets after HPIM Interest"};
  }
  return m;
}

// --- Sync --------------------------------------------------------------------

Bytes HpimSync::body() const {
  BufferWriter w(8 + entries.size() * kSyncEntrySize);
  w.u32(seq);
  w.u8(more ? 1 : 0);
  if (entries.size() > bound::kMaxHpimSyncEntries) {
    throw LogicError("too many entries in one HPIM Sync fragment");
  }
  w.u16(static_cast<std::uint16_t>(entries.size()));
  for (const Entry& e : entries) {
    write_encoded_unicast(w, e.source);
    write_encoded_group(w, e.group);
    w.u8(e.interested ? 1 : 0);
  }
  return std::move(w).take();
}

ParseResult<HpimSync> HpimSync::try_parse(BytesView body) {
  WireCursor c(body);
  HpimSync m;
  m.seq = c.u32();
  std::uint8_t more = c.u8();
  std::uint16_t count = c.u16();
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "HPIM Sync header"};
  }
  if (more > 1) {
    return ParseFailure{ParseReason::kSemantic,
                        "HPIM Sync more-flag is not 0 or 1"};
  }
  m.more = more == 1;
  if (count > bound::kMaxHpimSyncEntries) {
    return ParseFailure{ParseReason::kBoundExceeded, "HPIM Sync entries"};
  }
  // O(1) count-lie rejection before any per-entry work.
  if (std::size_t{count} * kSyncEntrySize > c.remaining()) {
    return ParseFailure{ParseReason::kTruncated,
                        "HPIM Sync entry count exceeds body"};
  }
  for (std::uint16_t i = 0; i < count; ++i) {
    Entry e;
    ParseResult<Address> source = try_read_encoded_unicast(c);
    if (!source.ok()) return source.failure();
    e.source = source.value();
    ParseResult<Address> group = try_read_encoded_group(c);
    if (!group.ok()) return group.failure();
    e.group = group.value();
    std::uint8_t flag = c.u8();
    if (c.failed()) {
      return ParseFailure{ParseReason::kTruncated, "HPIM Sync entry flag"};
    }
    if (flag > 1) {
      return ParseFailure{ParseReason::kSemantic,
                          "HPIM Sync entry flag is not 0 or 1"};
    }
    e.interested = flag == 1;
    m.entries.push_back(e);
  }
  if (!c.empty()) {
    return ParseFailure{ParseReason::kOverlength,
                        "trailing octets after HPIM Sync"};
  }
  return m;
}

// --- Assert ------------------------------------------------------------------

Bytes HpimAssert::body() const {
  BufferWriter w(48);
  write_encoded_group(w, group);
  write_encoded_unicast(w, source);
  w.u32(metric_preference & 0x7fffffff);
  w.u32(metric);
  return std::move(w).take();
}

ParseResult<HpimAssert> HpimAssert::try_parse(BytesView body) {
  WireCursor c(body);
  HpimAssert a;
  ParseResult<Address> group = try_read_encoded_group(c);
  if (!group.ok()) return group.failure();
  a.group = group.value();
  ParseResult<Address> source = try_read_encoded_unicast(c);
  if (!source.ok()) return source.failure();
  a.source = source.value();
  a.metric_preference = c.u32() & 0x7fffffff;
  a.metric = c.u32();
  if (c.failed()) {
    return ParseFailure{ParseReason::kTruncated, "HPIM Assert body"};
  }
  if (!c.empty()) {
    return ParseFailure{ParseReason::kOverlength,
                        "trailing octets after HPIM Assert"};
  }
  return a;
}

}  // namespace mip6
