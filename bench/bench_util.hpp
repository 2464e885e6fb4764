// Shared helpers for the figure-reproduction benchmark binaries.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "yardstick/report.hpp"

namespace yardstick::benchutil {

/// Monotonic stopwatch on std::chrono::steady_clock — immune to NTP slews
/// and wall-clock jumps, so bench numbers stay comparable across runs.
class Stopwatch {
 public:
  using Clock = std::chrono::steady_clock;
  static_assert(Clock::is_steady, "bench timings require a monotonic clock");

  Stopwatch() : start_(Clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  void reset() { start_ = Clock::now(); }

 private:
  Clock::time_point start_;
};

/// Per-phase breakdown for one engine run: the engine's own steady-clock
/// phase timers (always measured), plus — when the observability switch is
/// on — the matching work counters from the metrics registry, replacing
/// the ad-hoc end-to-end stopwatch as the source of per-phase numbers.
inline void print_phase_breakdown(const char* label, const ys::PhaseTimings& timings,
                                  double path_sweep_seconds = 0.0) {
  std::printf("#   %-14s match-sets %.3fs  covered-sets %.3fs", label,
              timings.match_sets_seconds, timings.covered_sets_seconds);
  if (path_sweep_seconds > 0.0) std::printf("  path-sweep %.3fs", path_sweep_seconds);
  if (obs::enabled()) {
    std::printf("  (dfs-nodes %llu, paths %llu, imported-nodes %llu)",
                static_cast<unsigned long long>(
                    obs::metrics().counter("ys.paths.dfs_nodes").value()),
                static_cast<unsigned long long>(
                    obs::metrics().counter("ys.paths.emitted").value()),
                static_cast<unsigned long long>(
                    obs::metrics().counter("ys.bdd.imported_nodes").value()));
  }
  std::printf("\n");
}

/// Fat-tree arities to sweep: from YS_FATTREE_KS ("4 8 12"), else default.
/// The paper sweeps k=8..88 (up to 9680 routers, §8); defaults here keep
/// the full bench suite minutes-scale — export YS_FATTREE_KS to go larger.
inline std::vector<int> fat_tree_sweep(std::vector<int> fallback = {4, 8, 12, 16}) {
  const char* env = std::getenv("YS_FATTREE_KS");
  if (env == nullptr) return fallback;
  std::vector<int> ks;
  std::istringstream in(env);
  int k = 0;
  while (in >> k) ks.push_back(k);
  return ks.empty() ? fallback : ks;
}

/// Wall-clock budget for the path-coverage sweep (seconds), from
/// YS_PATH_BUDGET_S; the paper used a 1-hour timeout (Fig. 9).
inline double path_budget_seconds(double fallback = 60.0) {
  const char* env = std::getenv("YS_PATH_BUDGET_S");
  return env == nullptr ? fallback : std::atof(env);
}

/// Floating-point knob from environment variable `name`, else `fallback`.
inline double env_f64(const char* name, double fallback) {
  const char* env = std::getenv(name);
  return env == nullptr ? fallback : std::atof(env);
}

/// Integer knob from environment variable `name`, else `fallback`.
inline int env_int(const char* name, int fallback) {
  const char* env = std::getenv(name);
  return env == nullptr ? fallback : std::atoi(env);
}

/// Process high-water RSS in kB (VmHWM from /proc/self/status; 0 when the
/// file is unavailable, e.g. non-Linux).
inline size_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

/// Worker-thread count for the parallel-offline-phase comparison, from
/// YS_BENCH_THREADS (default 4).
inline unsigned bench_threads(unsigned fallback = 4) {
  const char* env = std::getenv("YS_BENCH_THREADS");
  if (env == nullptr) return fallback;
  const int n = std::atoi(env);
  return n > 0 ? static_cast<unsigned>(n) : fallback;
}

}  // namespace yardstick::benchutil
