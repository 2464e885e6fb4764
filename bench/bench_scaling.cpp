// Scaling trajectory: the offline phase across fat-tree arities, with the
// shard-manager garbage collector on vs off (ROADMAP item 1).
//
// For each k the full offline phase (trace -> match sets -> covered sets ->
// all-local metrics) runs twice on fresh managers: GC armed at
// YS_SCALING_GC_THRESHOLD (default 0.5) and GC off. Per run we record wall
// time, the budget's peak concurrent node charge across every manager
// (primary + shards — the memory number GC is meant to shrink), process
// peak RSS, apply-cache hit rate, and the GC's own work counters; the two
// runs' metric rows must be bit-identical (GC only renumbers shard-private
// nodes). Results go to stdout and BENCH_scaling.json so every PR has a
// visible scaling trajectory.
//
// Gates (all env-driven so CI can tighten without a rebuild; unset = off):
//   YS_SCALING_KS                sweep arities (default "4 8 16 32 48")
//   YS_SCALING_GATE_K            require GC-on peak arena nodes strictly
//                                below GC-off at this k (plus
//                                YS_SCALING_MIN_REDUCTION_PCT, default 0)
//   YS_SCALING_MAX_OVERHEAD_PCT  fail if arming the GC machinery with a
//                                never-firing threshold costs more than
//                                this vs GC-off: the median of 9 paired,
//                                alternating reps, each pair compared in
//                                process CPU time (getrusage), which unlike
//                                wall time does not count waiting on a busy
//                                host; the interquartile range is printed
//                                and recorded alongside
//
// Peak-RSS caveat: VmHWM is process-monotone, so within each k the GC-on
// run goes first and later ks inherit earlier highs — peak_arena_nodes is
// the comparable signal; RSS is recorded for absolute context only.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/state_checks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/fib_builder.hpp"
#include "topo/fattree.hpp"
#include "yardstick/engine.hpp"

using namespace yardstick;

namespace {

using benchutil::env_f64;
using benchutil::env_int;

/// User + system CPU seconds of the whole process, every thread included.
double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Linear-interpolated quantile q in [0, 1] of an ascending sample.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

uint64_t counter_value(const char* name) {
  return obs::metrics().counter(name).value();
}

struct RunResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU time, all threads
  size_t peak_arena_nodes = 0;
  size_t peak_rss_kb = 0;
  double cache_hit_rate = 0.0;  // apply-cache, primary + shard managers
  uint64_t gc_runs = 0;
  uint64_t gc_reclaimed_nodes = 0;
  size_t op_cache_entries = 0;  // primary manager, after the run
  ys::MetricRow row;
};

/// One full offline phase on fresh managers. The budget carries no caps —
/// it is attached purely for its cross-manager node accounting, whose
/// high-water mark is the "peak arena nodes" this bench reports.
RunResult run_offline(const topo::FatTree& tree, const coverage::CoverageTrace& trace,
                      unsigned threads, double gc_threshold) {
  RunResult out;
  const uint64_t gc_runs0 = counter_value("ys.bdd.gc.runs");
  const uint64_t gc_reclaimed0 = counter_value("ys.bdd.gc.reclaimed_nodes");
  const uint64_t shard_hits0 = counter_value("ys.bdd.shard_cache_hits");
  const uint64_t shard_misses0 = counter_value("ys.bdd.shard_cache_misses");

  bdd::BddManager mgr(packet::kNumHeaderBits);
  const coverage::CoverageTrace local_trace = trace.imported_into(mgr);
  ys::ResourceBudget budget;  // accounting only: no caps, no deadline
  benchutil::Stopwatch watch;
  const double cpu0 = process_cpu_seconds();
  const ys::CoverageEngine engine(mgr, tree.network, local_trace,
                                  ys::EngineOptions{&budget, threads, "", gc_threshold});
  out.row = engine.metrics();
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.wall_s = watch.seconds();

  out.peak_arena_nodes = budget.peak_bdd_nodes();
  out.peak_rss_kb = benchutil::peak_rss_kb();
  const bdd::BddManager::Stats primary = mgr.stats();
  out.op_cache_entries = primary.op_cache_entries;
  const uint64_t hits =
      primary.cache_hits + (counter_value("ys.bdd.shard_cache_hits") - shard_hits0);
  const uint64_t misses =
      primary.cache_misses + (counter_value("ys.bdd.shard_cache_misses") - shard_misses0);
  out.cache_hit_rate =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) / static_cast<double>(hits + misses);
  out.gc_runs = counter_value("ys.bdd.gc.runs") - gc_runs0;
  out.gc_reclaimed_nodes = counter_value("ys.bdd.gc.reclaimed_nodes") - gc_reclaimed0;
  return out;
}

bool rows_equal(const ys::MetricRow& a, const ys::MetricRow& b) {
  return a.device_fractional == b.device_fractional &&
         a.interface_fractional == b.interface_fractional &&
         a.rule_fractional == b.rule_fractional && a.rule_weighted == b.rule_weighted;
}

/// Armed-but-idle GC cost: per-pair CPU-time overheads, summarized.
struct Overhead {
  int k = 0;
  double median_pct = 0.0;
  double iqr_pct = 0.0;  // q3 - q1 of the per-pair overheads
  double off_cpu_s = 0.0;    // median
  double armed_cpu_s = 0.0;  // median
};

constexpr int kOverheadReps = 9;

struct SweepPoint {
  int k = 0;
  size_t routers = 0;
  size_t rules = 0;
  RunResult gc_on;
  RunResult gc_off;
  bool identical = false;
  double reduction_pct = 0.0;  // peak-arena-node reduction, GC on vs off
};

void emit_json(const std::vector<SweepPoint>& sweep, unsigned threads,
               double gc_threshold, const Overhead& overhead) {
  std::FILE* f = std::fopen("BENCH_scaling.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_scaling: cannot write BENCH_scaling.json\n");
    return;
  }
  const auto emit_run = [f](const char* key, const RunResult& r) {
    std::fprintf(f,
                 "      \"%s\": {\"wall_s\": %.6f, \"peak_arena_nodes\": %zu, "
                 "\"peak_rss_kb\": %zu, \"cache_hit_rate\": %.6f, \"gc_runs\": %llu, "
                 "\"gc_reclaimed_nodes\": %llu, \"op_cache_entries\": %zu}",
                 key, r.wall_s, r.peak_arena_nodes, r.peak_rss_kb, r.cache_hit_rate,
                 static_cast<unsigned long long>(r.gc_runs),
                 static_cast<unsigned long long>(r.gc_reclaimed_nodes),
                 r.op_cache_entries);
  };
  std::fprintf(f, "{\n  \"bench\": \"scaling\",\n  \"threads\": %u,\n", threads);
  std::fprintf(f, "  \"gc_threshold\": %.3f,\n  \"sweep\": [\n", gc_threshold);
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(f, "    {\n      \"k\": %d, \"routers\": %zu, \"rules\": %zu,\n", p.k,
                 p.routers, p.rules);
    emit_run("gc_on", p.gc_on);
    std::fprintf(f, ",\n");
    emit_run("gc_off", p.gc_off);
    std::fprintf(f, ",\n      \"peak_node_reduction_pct\": %.2f,", p.reduction_pct);
    std::fprintf(f, "\n      \"outputs_identical\": %s\n    }%s\n", p.identical ? "true" : "false",
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"gc_armed_overhead\": {\"k\": %d, \"clock\": \"process_cpu\", "
               "\"reps\": %d, \"overhead_pct\": %.2f, \"overhead_iqr_pct\": %.2f, "
               "\"off_cpu_s\": %.6f, \"armed_cpu_s\": %.6f}\n}\n",
               overhead.k, kOverheadReps, overhead.median_pct, overhead.iqr_pct,
               overhead.off_cpu_s, overhead.armed_cpu_s);
  std::fclose(f);
}

}  // namespace

int main() {
  const unsigned threads = benchutil::bench_threads();
  const double gc_threshold = env_f64("YS_SCALING_GC_THRESHOLD", 0.5);
  const std::vector<int> ks = [] {
    const char* env = std::getenv("YS_SCALING_KS");
    if (env == nullptr) return std::vector<int>{4, 8, 16, 32, 48};
    std::vector<int> out;
    for (const char* p = env; *p != '\0';) {
      char* end = nullptr;
      const long v = std::strtol(p, &end, 10);
      if (end == p) break;
      out.push_back(static_cast<int>(v));
      p = end;
    }
    return out.empty() ? std::vector<int>{4, 8, 16, 32, 48} : out;
  }();

  // Counters (GC work, shard cache traffic) feed the per-run numbers.
  obs::set_enabled(true);

  std::printf("# bench_scaling: offline phase, GC on (threshold %.2f) vs off, "
              "%u worker thread(s)\n",
              gc_threshold, threads);
  std::printf("%6s %8s %9s | %10s %12s %8s %7s %9s | %10s %12s %8s | %7s %5s\n", "k",
              "routers", "rules", "on-wall(s)", "on-peaknode", "on-hit%", "gc-runs",
              "reclaimed", "off-wall(s)", "off-peaknode", "off-hit%", "peak-red", "same");

  std::vector<SweepPoint> sweep;
  for (const int k : ks) {
    topo::FatTree tree = topo::make_fat_tree({.k = k});
    routing::FibBuilder::compute_and_build(tree.network, tree.routing);

    // Collect the trace once per k; both runs import it, so neither pays
    // trace construction. The trace manager must outlive the runs — the
    // trace's handles live in it until imported_into() copies them out.
    bdd::BddManager trace_mgr(packet::kNumHeaderBits);
    ys::CoverageTracker tracker;
    {
      const dataplane::MatchSetIndex match_sets(trace_mgr, tree.network);
      const dataplane::Transfer transfer(match_sets);
      nettest::TestSuite suite("scaling");
      suite.add(std::make_unique<nettest::DefaultRouteCheck>());
      suite.add(std::make_unique<nettest::ToRContract>());
      (void)suite.run_all(transfer, tracker);
    }

    SweepPoint p;
    p.k = k;
    p.routers = tree.network.device_count();
    p.rules = tree.network.rule_count();
    // GC-on first: VmHWM is process-monotone, so this order keeps the
    // GC-on RSS reading untainted by the larger GC-off run.
    p.gc_on = run_offline(tree, tracker.trace(), threads, gc_threshold);
    p.gc_off = run_offline(tree, tracker.trace(), threads, 0.0);
    p.identical = rows_equal(p.gc_on.row, p.gc_off.row);
    p.reduction_pct =
        p.gc_off.peak_arena_nodes == 0
            ? 0.0
            : (1.0 - static_cast<double>(p.gc_on.peak_arena_nodes) /
                         static_cast<double>(p.gc_off.peak_arena_nodes)) *
                  100.0;
    std::printf("%6d %8zu %9zu | %10.3f %12zu %7.1f%% %7llu %9llu | %10.3f %12zu "
                "%7.1f%% | %6.1f%% %5s\n",
                p.k, p.routers, p.rules, p.gc_on.wall_s, p.gc_on.peak_arena_nodes,
                p.gc_on.cache_hit_rate * 100.0,
                static_cast<unsigned long long>(p.gc_on.gc_runs),
                static_cast<unsigned long long>(p.gc_on.gc_reclaimed_nodes),
                p.gc_off.wall_s, p.gc_off.peak_arena_nodes,
                p.gc_off.cache_hit_rate * 100.0, p.reduction_pct,
                p.identical ? "yes" : "NO");
    sweep.push_back(std::move(p));
  }

  int exit_code = 0;
  for (const SweepPoint& p : sweep) {
    if (!p.identical) {
      std::fprintf(stderr,
                   "bench_scaling: FAIL — coverage output differs with GC on/off "
                   "at k=%d\n",
                   p.k);
      exit_code = 1;
    }
  }

  // Overhead probe: arming the GC machinery with a threshold that never
  // fires (1.0) measures pure bookkeeping cost — root tracking, gc_due()
  // polls — against a plain GC-off run. Reps run in off/armed pairs whose
  // order alternates, so drift on a shared host lands on both modes; each
  // pair yields one overhead in process CPU time, and the gate reads the
  // median pair. Probes at the largest sweep k <= YS_SCALING_OVERHEAD_K
  // (default 16): small ks finish in single-digit milliseconds where fixed
  // costs swamp the percentage, and the local k=32/48 points would make the
  // probe's 18 extra runs slower than the sweep itself.
  const int overhead_cap = env_int("YS_SCALING_OVERHEAD_K", 16);
  Overhead overhead;
  for (const SweepPoint& p : sweep) {
    if (p.k <= overhead_cap && p.k > overhead.k) overhead.k = p.k;
  }
  if (overhead.k == 0 && !sweep.empty()) overhead.k = sweep.front().k;
  if (overhead.k != 0) {
    topo::FatTree tree = topo::make_fat_tree({.k = overhead.k});
    routing::FibBuilder::compute_and_build(tree.network, tree.routing);
    bdd::BddManager trace_mgr(packet::kNumHeaderBits);
    ys::CoverageTracker tracker;
    {
      const dataplane::MatchSetIndex match_sets(trace_mgr, tree.network);
      const dataplane::Transfer transfer(match_sets);
      nettest::TestSuite suite("scaling");
      suite.add(std::make_unique<nettest::DefaultRouteCheck>());
      suite.add(std::make_unique<nettest::ToRContract>());
      (void)suite.run_all(transfer, tracker);
    }
    std::vector<double> off_s;
    std::vector<double> armed_s;
    std::vector<double> pct;
    for (int rep = 0; rep < kOverheadReps; ++rep) {
      const auto run = [&](double threshold) {
        return run_offline(tree, tracker.trace(), threads, threshold).cpu_s;
      };
      double off = 0.0;
      double armed = 0.0;
      if (rep % 2 == 0) {
        off = run(0.0);
        armed = run(1.0);
      } else {
        armed = run(1.0);
        off = run(0.0);
      }
      off_s.push_back(off);
      armed_s.push_back(armed);
      pct.push_back(off > 0.0 ? (armed / off - 1.0) * 100.0 : 0.0);
    }
    for (std::vector<double>* v : {&off_s, &armed_s, &pct}) std::sort(v->begin(), v->end());
    overhead.median_pct = quantile(pct, 0.5);
    overhead.iqr_pct = quantile(pct, 0.75) - quantile(pct, 0.25);
    overhead.off_cpu_s = quantile(off_s, 0.5);
    overhead.armed_cpu_s = quantile(armed_s, 0.5);
    std::printf("\n# GC machinery armed-but-idle overhead (k=%d, process CPU time, "
                "median of %d paired reps): off %.3fs, armed %.3fs, %+.2f%% "
                "(IQR %.2f points)\n",
                overhead.k, kOverheadReps, overhead.off_cpu_s, overhead.armed_cpu_s,
                overhead.median_pct, overhead.iqr_pct);
    const double max_overhead = env_f64("YS_SCALING_MAX_OVERHEAD_PCT", 0.0);
    if (max_overhead > 0.0 && overhead.median_pct > max_overhead) {
      std::fprintf(stderr,
                   "bench_scaling: FAIL — GC-disabled overhead %.2f%% (median) exceeds "
                   "%.2f%%\n",
                   overhead.median_pct, max_overhead);
      exit_code = 1;
    }
  }

  const int gate_k = env_int("YS_SCALING_GATE_K", 0);
  if (gate_k > 0) {
    const double min_reduction = env_f64("YS_SCALING_MIN_REDUCTION_PCT", 0.0);
    bool found = false;
    for (const SweepPoint& p : sweep) {
      if (p.k != gate_k) continue;
      found = true;
      if (p.gc_on.peak_arena_nodes >= p.gc_off.peak_arena_nodes ||
          p.reduction_pct < min_reduction) {
        std::fprintf(stderr,
                     "bench_scaling: FAIL — at k=%d GC-on peak %zu vs GC-off %zu "
                     "(%.1f%% reduction, need strict drop and >= %.1f%%)\n",
                     gate_k, p.gc_on.peak_arena_nodes, p.gc_off.peak_arena_nodes,
                     p.reduction_pct, min_reduction);
        exit_code = 1;
      }
    }
    if (!found) {
      std::fprintf(stderr, "bench_scaling: FAIL — gate k=%d not in sweep\n", gate_k);
      exit_code = 1;
    }
  }

  emit_json(sweep, threads, gc_threshold, overhead);
  return exit_code;
}
