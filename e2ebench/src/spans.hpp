// Layer spans for the end-to-end benchmark.
//
// The benchmark times each layer from outside, at its public entry point:
// a Span opened around the call records its name, start, end and parent
// span, plus process CPU time (getrusage) across the call and ru_maxrss
// after it. Spans stay in memory and are written out once, when the run
// ends. With tracing off a Span records nothing and reads no clock, so the
// untraced run that gives the end-to-end numbers pays only for the
// stage stopwatches.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of the whole process (all threads).
inline double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Peak resident set of the process so far, in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct SpanRecord {
  std::string name;
  int id = 0;
  int parent = -1;  ///< -1 for the root span of a workload run
  int run = 0;      ///< shared by every span of one workload run
  double start_s = 0.0;
  double end_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;  ///< ru_maxrss right after the call
};

/// Per-name totals over the spans of one run.
struct LayerTotals {
  double wall_s = 0.0;
  double self_s = 0.0;  ///< wall minus the time covered by child spans
  double cpu_s = 0.0;
  double rss_mb = 0.0;  ///< max over calls
  int calls = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }

  int open(std::string name) {
    SpanRecord rec;
    rec.name = std::move(name);
    rec.id = static_cast<int>(spans_.size());
    rec.parent = stack_.empty() ? -1 : stack_.back();
    rec.run = run_;
    rec.cpu_s = process_cpu_seconds();
    rec.start_s = seconds_since(origin_);
    spans_.push_back(std::move(rec));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(int id) {
    SpanRecord& rec = spans_[static_cast<size_t>(id)];
    rec.end_s = seconds_since(origin_);
    rec.cpu_s = process_cpu_seconds() - rec.cpu_s;
    rec.rss_mb = peak_rss_mb();
    stack_.pop_back();
  }

  /// Totals per span name for one run: wall, self, CPU, max RSS, calls.
  [[nodiscard]] std::map<std::string, LayerTotals> totals(int run) const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const SpanRecord& s : spans_) {
      if (s.run == run && s.parent >= 0) {
        child_s[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    std::map<std::string, LayerTotals> out;
    for (const SpanRecord& s : spans_) {
      if (s.run != run) continue;
      LayerTotals& t = out[s.name];
      const double wall = s.end_s - s.start_s;
      t.wall_s += wall;
      t.self_s += wall - child_s[static_cast<size_t>(s.id)];
      t.cpu_s += s.cpu_s;
      t.rss_mb = std::max(t.rss_mb, s.rss_mb);
      ++t.calls;
    }
    return out;
  }

  /// Chrome trace-event JSON (about:tracing, ui.perfetto.dev); each event
  /// carries its span id, parent id and run id as args.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,"
                   "\"run\":%d,\"cpu_s\":%.6f,\"rss_mb\":%.1f}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_s * 1e6,
                   (s.end_s - s.start_s) * 1e6, s.id, s.parent, s.run, s.cpu_s, s.rss_mb);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  int run_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span around one layer call; a no-op when tracing is off.
class Span {
 public:
  Span(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.open(std::move(name)) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace e2ebench
