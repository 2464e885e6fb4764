// yardstickd ingestion throughput: what the daemon boundary costs.
//
// Concurrent IngestClients stream batched mark events over a Unix socket
// at an in-process daemon, across the durability ladder: no journal, a
// journal without fsync, and the full durable-before-ack contract
// (fsync per batch). Reports events/second, batches, Busy rejections and
// peak RSS, so CI can watch for ingestion-path regressions.
//
// Knobs: YS_INGEST_EVENTS (per client, default 200000), YS_INGEST_CLIENTS
// (default 4), YS_INGEST_BATCH (events per batch, default 1024), and
// YS_INGEST_MIN_EPS — when set, the run exits nonzero if the fastest
// configuration falls below this events/second floor (the CI gate).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"

using namespace yardstick;

namespace {

size_t env_size(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const long long n = std::atoll(v);
  return n > 0 ? static_cast<size_t>(n) : fallback;
}

struct Config {
  const char* label;
  bool wal;
  bool fsync;
};

struct Result {
  double seconds = 0.0;
  double events_per_sec = 0.0;
  uint64_t events = 0;
  uint64_t batches = 0;
  uint64_t busy = 0;
};

Result run_config(const Config& cfg, size_t clients, size_t events_per_client,
                  size_t batch) {
  const std::string dir = "/tmp/ys_bench_ingest_" + std::to_string(::getpid());
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());

  service::DaemonOptions dopts;
  dopts.socket_path = dir + "/ys.sock";
  if (cfg.wal) dopts.wal_path = dir + "/ys.wal";
  dopts.wal_fsync = cfg.fsync;
  dopts.snapshot_path = dir + "/ys.trace";
  service::Daemon daemon(std::move(dopts));
  daemon.start();
  std::thread runner([&] { daemon.run(); });

  benchutil::Stopwatch watch;
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      service::ClientOptions copts;
      copts.socket_path = dir + "/ys.sock";
      copts.session_id = c + 1;
      copts.jitter_seed = (c + 1) * 0x9e3779b97f4a7c15ull;
      copts.batch_events = batch;
      // Distinct rule ids per client: every mark is a new event, so the
      // daemon-side count matches what the clients pushed.
      const uint32_t base = static_cast<uint32_t>(c * events_per_client);
      service::IngestClient client(copts);
      for (size_t i = 0; i < events_per_client; ++i) {
        client.mark_rule(net::RuleId{base + static_cast<uint32_t>(i)});
      }
      client.close();
    });
  }
  for (auto& w : workers) w.join();
  const double seconds = watch.seconds();

  daemon.request_stop();
  runner.join();
  daemon.shutdown();
  const service::DaemonStats stats = daemon.stats();

  Result r;
  r.seconds = seconds;
  r.events = stats.events;
  r.batches = stats.batches;
  r.busy = stats.busy_rejections;
  r.events_per_sec = seconds > 0.0 ? static_cast<double>(stats.events) / seconds : 0.0;
  std::system(("rm -rf " + dir).c_str());
  return r;
}

}  // namespace

int main() {
  const size_t clients = env_size("YS_INGEST_CLIENTS", 4);
  const size_t events_per_client = env_size("YS_INGEST_EVENTS", 200000);
  const size_t batch = env_size("YS_INGEST_BATCH", 1024);
  const size_t total = clients * events_per_client;

  std::printf("# bench_ingest: %zu clients x %zu events, batch %zu (%zu total)\n",
              clients, events_per_client, batch, total);
  std::printf("%-22s %10s %14s %10s %8s\n", "config", "time(s)", "events/s",
              "batches", "busy");

  const Config configs[] = {
      {"no-wal", false, false},
      {"wal-nofsync", true, false},
      {"wal-fsync (durable)", true, true},
  };
  double best_eps = 0.0;
  for (const Config& cfg : configs) {
    const Result r = run_config(cfg, clients, events_per_client, batch);
    if (r.events != total) {
      std::printf("!! %s merged %llu events, expected %zu\n", cfg.label,
                  static_cast<unsigned long long>(r.events), total);
      return 1;
    }
    if (r.events_per_sec > best_eps) best_eps = r.events_per_sec;
    std::printf("%-22s %10.3f %14.0f %10llu %8llu\n", cfg.label, r.seconds,
                r.events_per_sec, static_cast<unsigned long long>(r.batches),
                static_cast<unsigned long long>(r.busy));
  }
  std::printf("# peak RSS %.1f MiB\n",
              static_cast<double>(benchutil::peak_rss_kb()) / 1024.0);

  if (const char* floor = std::getenv("YS_INGEST_MIN_EPS")) {
    const double min_eps = std::atof(floor);
    if (best_eps < min_eps) {
      std::printf("!! best throughput %.0f events/s below floor %.0f\n", best_eps,
                  min_eps);
      return 1;
    }
    std::printf("# throughput floor %.0f events/s: ok\n", min_eps);
  }
  return 0;
}
