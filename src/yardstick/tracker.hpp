// CoverageTracker — Yardstick's online phase (§5, Figure 4).
//
// Testing tools report coverage through exactly two calls while tests run:
//
//     tracker.mark_packet(P);   // behavioral tests: located packets used
//     tracker.mark_rule(r);     // state-inspection tests: rule inspected
//
// The tracker folds reports into the compact coverage trace (union per
// location; a set of rule ids). A markPacket call only queues the set's
// handle on its location's pending list; fold() then unions each list in
// one n-ary BDD union (PacketSet::union_all), which creates only the nodes
// of the result instead of rebuilding the top of the growing set once per
// call. NetworkTest::run folds after every test and trace() folds before
// reading, so the trace is exactly the per-call union. A location whose
// list reaches kFoldBatch folds on its own, so pending memory is bounded by
// the locations touched, not by the number of API calls. An append-only
// log mode exists for the design-choice ablation measured in
// bench_tracking_overhead.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coverage/trace.hpp"

namespace yardstick::ys {

class CoverageTracker {
 public:
  enum class Mode : uint8_t {
    /// Maintain the (P_T, R_T) union, folded per test (the paper's design).
    Dedup,
    /// Append raw reports; the union is folded when the trace is read
    /// (ablation baseline: memory grows with the number of API calls).
    Log,
  };

  /// Pending marks at which one location folds without waiting for fold().
  static constexpr size_t kFoldBatch = 4096;

  explicit CoverageTracker(Mode mode = Mode::Dedup) : mode_(mode) {}

  /// Turn reporting on/off without touching the instrumented tool; a
  /// disabled tracker makes both API calls no-ops (used to measure the
  /// bare test time in Figure 8).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void mark_packet(const packet::LocatedPacketSet& packets) {
    if (!enabled_) return;
    ++packet_calls_;
    for (const auto& [loc, ps] : packets.entries()) record(loc, ps);
  }

  void mark_packet(packet::LocationId location, const packet::PacketSet& packets) {
    if (!enabled_) return;
    ++packet_calls_;
    record(location, packets);
  }

  void mark_rule(net::RuleId rule) {
    if (!enabled_) return;
    ++rule_calls_;
    trace_.mark_rule(rule);
  }

  /// Union every pending mark into the trace, one n-ary union per
  /// location. Log mode keeps its log until trace().
  void fold();

  /// The coverage trace accumulated so far; folds what is pending first
  /// (in Log mode, the whole log).
  [[nodiscard]] const coverage::CoverageTrace& trace();

  void reset() {
    trace_.clear();
    log_.clear();
    pending_.clear();
    pending_marks_ = 0;
    packet_calls_ = 0;
    rule_calls_ = 0;
  }

  [[nodiscard]] uint64_t packet_calls() const { return packet_calls_; }
  [[nodiscard]] uint64_t rule_calls() const { return rule_calls_; }
  /// Log mode: the raw reports not yet folded, in call order.
  [[nodiscard]] const std::vector<std::pair<packet::LocationId, packet::PacketSet>>& log()
      const {
    return log_;
  }

 private:
  void record(packet::LocationId location, const packet::PacketSet& packets) {
    if (mode_ == Mode::Log) {
      log_.emplace_back(location, packets);
    } else {
      pend(location, packets);
    }
  }

  void pend(packet::LocationId location, const packet::PacketSet& packets) {
    if (packets.empty()) return;  // the trace never holds empty locations
    std::vector<packet::PacketSet>& list = pending_[location];
    list.push_back(packets);
    ++pending_marks_;
    if (list.size() >= kFoldBatch) fold_location(location, list);
  }

  void fold_location(packet::LocationId location, std::vector<packet::PacketSet>& list);

  Mode mode_;
  bool enabled_ = true;
  coverage::CoverageTrace trace_;
  std::vector<std::pair<packet::LocationId, packet::PacketSet>> log_;
  std::unordered_map<packet::LocationId, std::vector<packet::PacketSet>> pending_;
  size_t pending_marks_ = 0;
  uint64_t packet_calls_ = 0;
  uint64_t rule_calls_ = 0;
};

}  // namespace yardstick::ys
