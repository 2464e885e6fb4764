// LocatedPacketSet — a set of *located* packets (§4.1): pairs of a network
// location and a packet header. Locations are opaque dense integers assigned
// by the network model (one per device interface).
//
// Rather than encoding the location into BDD variables, we keep a sorted
// map from location to the PacketSet present there. Set algebra lifts
// pointwise; counting sums over locations. This keeps BDDs small and makes
// per-interface slicing (needed for interface coverage) free.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "packet/packet_set.hpp"

namespace yardstick::packet {

/// Opaque location identifier (assigned densely by the network model).
using LocationId = uint32_t;

inline constexpr LocationId kNoLocation = UINT32_MAX;

class LocatedPacketSet {
 public:
  LocatedPacketSet() = default;

  /// Singleton location carrying the given headers.
  LocatedPacketSet(LocationId loc, PacketSet packets) {
    insert(loc, std::move(packets));
  }

  /// Add headers at a location (unions with any already present).
  void insert(LocationId loc, const PacketSet& packets) {
    if (packets.empty()) return;
    auto [it, inserted] = sets_.try_emplace(loc, packets);
    if (!inserted) it->second = it->second.union_with(packets);
  }

  /// Add many header sets at a location with one n-ary union
  /// (PacketSet::union_all): the same result as inserting them one by one,
  /// without the intermediate unions. Every set must be valid and share one
  /// manager with the headers already at `loc`.
  void insert_all(LocationId loc, std::span<const PacketSet> sets) {
    if (sets.empty()) return;
    bdd::BddManager& mgr = *sets.front().raw().manager();
    const auto it = sets_.find(loc);
    if (it == sets_.end()) {
      const PacketSet merged = PacketSet::union_all(mgr, sets);
      if (!merged.empty()) sets_.emplace(loc, merged);
      return;
    }
    std::vector<PacketSet> operands(sets.begin(), sets.end());
    operands.push_back(it->second);
    it->second = PacketSet::union_all(mgr, operands);
  }

  [[nodiscard]] LocatedPacketSet union_with(const LocatedPacketSet& o) const {
    LocatedPacketSet out = *this;
    for (const auto& [loc, ps] : o.sets_) out.insert(loc, ps);
    return out;
  }

  [[nodiscard]] LocatedPacketSet intersect(const LocatedPacketSet& o) const {
    LocatedPacketSet out;
    for (const auto& [loc, ps] : sets_) {
      const auto it = o.sets_.find(loc);
      if (it != o.sets_.end()) out.insert(loc, ps.intersect(it->second));
    }
    return out;
  }

  [[nodiscard]] LocatedPacketSet minus(const LocatedPacketSet& o) const {
    LocatedPacketSet out;
    for (const auto& [loc, ps] : sets_) {
      const auto it = o.sets_.find(loc);
      out.insert(loc, it == o.sets_.end() ? ps : ps.minus(it->second));
    }
    return out;
  }

  /// Headers present at `loc` (empty-set handle if none; caller supplies the
  /// manager-scoped empty value via valid() check).
  [[nodiscard]] PacketSet at(LocationId loc) const {
    const auto it = sets_.find(loc);
    return it == sets_.end() ? PacketSet{} : it->second;
  }

  [[nodiscard]] bool has(LocationId loc) const { return sets_.contains(loc); }

  /// Total located packets across all locations.
  [[nodiscard]] bdd::Uint128 count() const {
    bdd::Uint128 total = 0;
    for (const auto& [loc, ps] : sets_) total += ps.count();
    return total;
  }

  [[nodiscard]] bool empty() const { return sets_.empty(); }
  [[nodiscard]] size_t location_count() const { return sets_.size(); }

  [[nodiscard]] const std::map<LocationId, PacketSet>& entries() const { return sets_; }

  bool operator==(const LocatedPacketSet& o) const { return sets_ == o.sets_; }

  [[nodiscard]] std::string to_string() const {
    std::string out = "located{";
    bool first = true;
    for (const auto& [loc, ps] : sets_) {
      if (!first) out += ", ";
      first = false;
      out += "@" + std::to_string(loc) + ":" + bdd::to_string(ps.count());
    }
    return out + "}";
  }

 private:
  std::map<LocationId, PacketSet> sets_;
};

}  // namespace yardstick::packet
