#include "yardstick/tracker.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace yardstick::ys {

namespace {

void count_folded(size_t marks) {
  if (!obs::enabled()) return;
  obs::metrics()
      .counter("ys.tracker.marks_folded", "markPacket reports folded into traces")
      .add(marks);
}

}  // namespace

void CoverageTracker::fold_location(packet::LocationId location,
                                    std::vector<packet::PacketSet>& list) {
  trace_.mark_packets(location, list);
  count_folded(list.size());
  pending_marks_ -= list.size();
  list.clear();
}

void CoverageTracker::fold() {
  if (pending_marks_ == 0) return;
  obs::Span span("tracker.fold", "online");
  span.arg("locations", pending_.size());
  span.arg("marks", pending_marks_);
  // A location is dropped from pending_ only once its fold succeeded, so a
  // budget tripping mid-fold leaves every mark either in the trace or
  // still pending.
  for (auto it = pending_.begin(); it != pending_.end(); it = pending_.erase(it)) {
    if (!it->second.empty()) fold_location(it->first, it->second);
  }
}

const coverage::CoverageTrace& CoverageTracker::trace() {
  for (const auto& [loc, ps] : log_) pend(loc, ps);
  log_.clear();
  fold();
  return trace_;
}

}  // namespace yardstick::ys
