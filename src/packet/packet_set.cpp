#include "packet/packet_set.hpp"

#include <cassert>
#include <vector>

namespace yardstick::packet {

using bdd::Bdd;
using bdd::BddManager;
using bdd::Var;

PacketSet PacketSet::union_all(BddManager& mgr, std::span<const PacketSet> sets) {
  std::vector<bdd::NodeIndex> roots;
  roots.reserve(sets.size());
  for (const PacketSet& s : sets) {
    assert(s.bdd_.manager() == &mgr);
    roots.push_back(s.bdd_.index());
  }
  return PacketSet(Bdd(&mgr, mgr.or_all(roots)));
}

PacketSet PacketSet::field_prefix(BddManager& mgr, Field f, uint64_t value,
                                  uint8_t bits) {
  const FieldSpec s = spec(f);
  assert(bits <= s.width);
  std::vector<Var> vars;
  std::vector<bool> polarities;
  vars.reserve(bits);
  polarities.reserve(bits);
  // Bit i of the field (MSB-first) is BDD variable s.offset + i; the MSB of
  // `value` within the field is bit (s.width - 1).
  for (uint8_t i = 0; i < bits; ++i) {
    vars.push_back(s.offset + i);
    polarities.push_back(((value >> (s.width - 1 - i)) & 1) != 0);
  }
  return PacketSet(mgr.cube(vars, polarities));
}

PacketSet PacketSet::field_range(BddManager& mgr, Field f, uint64_t lo, uint64_t hi) {
  const FieldSpec s = spec(f);
  assert(lo <= hi);
  // Classic trick: a range decomposes into O(width) aligned power-of-two
  // blocks, i.e. prefixes of the field.
  Bdd acc = mgr.zero();
  uint64_t cursor = lo;
  const uint64_t end = hi;
  while (cursor <= end) {
    // Largest aligned block starting at cursor that fits within [cursor, end].
    uint8_t block = 0;  // log2 of block size
    while (block < s.width) {
      const uint64_t size = uint64_t{1} << (block + 1);
      const bool aligned = (cursor & (size - 1)) == 0;
      const bool fits = cursor + size - 1 <= end;
      if (!aligned || !fits) break;
      ++block;
    }
    const uint8_t prefix_bits = static_cast<uint8_t>(s.width - block);
    acc = acc | field_prefix(mgr, f, cursor, prefix_bits).raw();
    const uint64_t size = uint64_t{1} << block;
    if (end - cursor < size) break;  // avoid overflow at the top of the field
    cursor += size;
  }
  return PacketSet(acc);
}

PacketSet PacketSet::from_packet(BddManager& mgr, const ConcretePacket& p) {
  const std::vector<bool> bits = p.to_assignment();
  std::vector<Var> vars(kNumHeaderBits);
  for (Var v = 0; v < kNumHeaderBits; ++v) vars[v] = v;
  return PacketSet(mgr.cube(vars, bits));
}

PacketSet PacketSet::rewrite_field(Field f, uint64_t value) const {
  if (empty()) return *this;
  BddManager& mgr = *bdd_.manager();
  // Image = (exists field. S) AND field == value.
  return forget_field(f).intersect(field_equals(mgr, f, value));
}

PacketSet PacketSet::rewrite_field_preimage(Field f, uint64_t value) const {
  if (empty()) return *this;
  BddManager& mgr = *bdd_.manager();
  // Pre-image: if the slice of S at field == value is non-empty, then every
  // packet whose other fields lie in that slice maps into S.
  const PacketSet slice = intersect(field_equals(mgr, f, value));
  return slice.forget_field(f);
}

PacketSet PacketSet::forget_field(Field f) const {
  BddManager& mgr = *bdd_.manager();
  const FieldSpec s = spec(f);
  std::vector<bool> quantified(mgr.num_vars(), false);
  for (uint8_t i = 0; i < s.width; ++i) quantified[s.offset + i] = true;
  return PacketSet(mgr.exists(bdd_, quantified));
}

Ipv4Range PacketSet::dst_range() const {
  if (empty()) return {};
  const BddManager& mgr = *bdd_.manager();
  bdd::NodeIndex n = bdd_.index();
  uint32_t address = 0;
  uint8_t len = 0;
  // Walk down while dst bit `len` is tested and one branch is empty; a
  // skipped variable or a two-way branch ends the shared prefix.
  while (len < kDstIp.width && n > bdd::kTrue) {
    const bdd::BddNode& node = mgr.node(n);
    if (node.var != kDstIp.offset + len) break;
    if (node.low == bdd::kFalse) {
      address |= uint32_t{1} << (kDstIp.width - 1 - len);
      n = node.high;
    } else if (node.high == bdd::kFalse) {
      n = node.low;
    } else {
      break;
    }
    ++len;
  }
  return Ipv4Prefix(address, len).range();
}

std::string PacketSet::to_string() const {
  if (!valid()) return "packets(invalid)";
  if (empty()) return "packets(empty)";
  return "packets(count=" + bdd::to_string(count()) + ", e.g. " + sample().to_string() +
         ")";
}

}  // namespace yardstick::packet
