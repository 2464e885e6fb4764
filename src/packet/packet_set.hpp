// PacketSet — a (possibly enormous) set of packet headers, represented as a
// BDD over the 104-bit header space. This is the concrete realization of the
// paper's Figure 5 operations: empty, negate, union, intersect, equal,
// fromRule, count — plus the field/prefix builders needed to express rule
// match fields and header rewrites.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "bdd/bdd.hpp"
#include "packet/fields.hpp"
#include "packet/packet.hpp"
#include "packet/prefix.hpp"

namespace yardstick::packet {

class PacketSet {
 public:
  PacketSet() = default;
  explicit PacketSet(bdd::Bdd b) : bdd_(b) {}

  // --- Figure 5 operations ---

  /// The empty set of packets.
  static PacketSet none(bdd::BddManager& mgr) { return PacketSet(mgr.zero()); }
  /// Every possible packet header.
  static PacketSet all(bdd::BddManager& mgr) { return PacketSet(mgr.one()); }

  [[nodiscard]] PacketSet negate() const { return PacketSet(!bdd_); }
  [[nodiscard]] PacketSet union_with(const PacketSet& o) const {
    return PacketSet(bdd_ | o.bdd_);
  }
  /// Union of many sets in one pass (BddManager::or_all): only the
  /// result's nodes are created, where a chain of union_with calls rebuilds
  /// the top of the growing set at every step. Every set must be valid and
  /// live in `mgr`; no sets gives the empty set.
  static PacketSet union_all(bdd::BddManager& mgr, std::span<const PacketSet> sets);
  [[nodiscard]] PacketSet intersect(const PacketSet& o) const {
    return PacketSet(bdd_ & o.bdd_);
  }
  [[nodiscard]] PacketSet minus(const PacketSet& o) const {
    return PacketSet(bdd_ - o.bdd_);
  }
  [[nodiscard]] bool equal(const PacketSet& o) const { return bdd_ == o.bdd_; }
  /// Exact number of headers in the set (up to 2^104).
  [[nodiscard]] bdd::Uint128 count() const { return bdd_.count(); }

  // --- Builders for match fields and concrete packets ---

  /// Packets whose destination address lies in `prefix`.
  static PacketSet dst_prefix(bdd::BddManager& mgr, const Ipv4Prefix& prefix) {
    return field_prefix(mgr, Field::DstIp, prefix.address(), prefix.length());
  }

  /// Packets whose source address lies in `prefix`.
  static PacketSet src_prefix(bdd::BddManager& mgr, const Ipv4Prefix& prefix) {
    return field_prefix(mgr, Field::SrcIp, prefix.address(), prefix.length());
  }

  /// Packets where `field` equals `value` exactly.
  static PacketSet field_equals(bdd::BddManager& mgr, Field f, uint64_t value) {
    return field_prefix(mgr, f, value << (64 - spec(f).width) >> (64 - spec(f).width),
                        spec(f).width);
  }

  /// Packets whose `field` top `bits` bits equal those of `value`.
  /// For 32-bit fields with `value` in host order this is a prefix match.
  static PacketSet field_prefix(bdd::BddManager& mgr, Field f, uint64_t value,
                                uint8_t bits);

  /// Packets where `field` lies in the inclusive range [lo, hi].
  static PacketSet field_range(bdd::BddManager& mgr, Field f, uint64_t lo, uint64_t hi);

  /// The singleton set containing exactly `p`.
  static PacketSet from_packet(bdd::BddManager& mgr, const ConcretePacket& p);

  /// Does the set contain the concrete packet?
  [[nodiscard]] bool contains(const ConcretePacket& p) const {
    return bdd_.manager()->evaluate(bdd_, p.to_assignment());
  }

  /// An arbitrary member of the set. Precondition: not empty.
  [[nodiscard]] ConcretePacket sample() const {
    return ConcretePacket::from_assignment(bdd_.manager()->pick_one(bdd_));
  }

  /// Rewrite `field` to the constant `value` in every packet of the set
  /// (image of the set under the transformation; many-to-one).
  [[nodiscard]] PacketSet rewrite_field(Field f, uint64_t value) const;

  /// Pre-image of this set under "rewrite `field` to `value`": the packets
  /// that, after the rewrite, land inside this set. Used for reversing
  /// forwarding transformations when computing path guard sets (§5.2).
  [[nodiscard]] PacketSet rewrite_field_preimage(Field f, uint64_t value) const;

  /// Forget the value of `field` (existential quantification).
  [[nodiscard]] PacketSet forget_field(Field f) const;

  /// The destination addresses of the longest dst-IP prefix shared by every
  /// packet of the set, read off the top BDD levels in at most 32 steps.
  /// Every packet's destination lies inside it; the empty set, and any set
  /// whose first dst bit is free, give the full range.
  [[nodiscard]] Ipv4Range dst_range() const;

  [[nodiscard]] bool empty() const { return bdd_.is_false(); }
  [[nodiscard]] bool full() const { return bdd_.is_true(); }
  [[nodiscard]] const bdd::Bdd& raw() const { return bdd_; }
  [[nodiscard]] bool valid() const { return bdd_.valid(); }

  bool operator==(const PacketSet& o) const { return bdd_ == o.bdd_; }

  /// Human-readable summary (count + an example packet).
  [[nodiscard]] std::string to_string() const;

 private:
  bdd::Bdd bdd_;
};

}  // namespace yardstick::packet
