// yardstick — command-line front end.
//
// Builds a synthetic topology (fat-tree or multi-DC regional network),
// computes its forwarding state with the eBGP substrate, runs a test
// suite with coverage tracking, and prints the coverage report.
//
//   yardstick fattree --k 8 --suite fattree --paths
//   yardstick regional --suite original --json
//   yardstick regional --suite final --acl --save-trace trace.txt
//   yardstick regional --load-trace trace.txt
//
// Daemon mode (yardstickd, the fault-tolerant online phase):
//   yardstick serve --socket /run/ys.sock --wal ys.wal --snapshot ys.trace
//   yardstick ingest fattree --k 8 --socket /run/ys.sock --session 1
//   yardstick ingest-replay --wal ys.wal --save-trace recovered.trace
//
// Every subcommand parses argv against one flag table (flag_table below):
// a row names the subcommands that read its flag, so a subcommand rejects
// every flag it would ignore, and its usage text lists exactly the flags
// it accepts.
//
// Exit codes map the error taxonomy so scripts can dispatch on failures:
//   0 all tests passed          4 corrupt trace file
//   1 test failures             5 I/O error
//   2 usage error               6 resource budget exceeded
//   3 invalid input             7 cancelled
//                              10 internal error
#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/budget.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "netio/network_format.hpp"
#include "nettest/acl_checks.hpp"
#include "nettest/contract_checks.hpp"
#include "nettest/reachability.hpp"
#include "nettest/state_checks.hpp"
#include "nettest/transform_checks.hpp"
#include "routing/fib_builder.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "topo/acl.hpp"
#include "topo/fattree.hpp"
#include "topo/regional.hpp"
#include "topo/transforms.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/signal.hpp"
#include "yardstick/analysis.hpp"
#include "yardstick/engine.hpp"
#include "yardstick/optimize.hpp"
#include "yardstick/json.hpp"
#include "yardstick/persist.hpp"

using namespace yardstick;

namespace {

// --- strict numeric flag parsing ----------------------------------------
//
// atoi/atof silently turn garbage into 0 and saturate nothing: "--port
// 70000" used to pass a `> 0` check and wrap through a uint16_t cast to
// port 4464. Every numeric flag goes through these instead: the whole
// token must parse, and the value must sit inside the flag's range —
// anything else is a usage error (exit 2), never a silent reinterpretation.

/// Parse a complete base-10 integer token. Rejects empty strings, trailing
/// garbage ("5x"), and values outside long long.
bool parse_i64(const char* s, long long& out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoll(s, &end, 10);
  return errno == 0 && end != s && *end == '\0';
}

/// Parse a complete finite floating-point token.
bool parse_f64(const char* s, double& out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtod(s, &end);
  return errno == 0 && end != s && *end == '\0' && std::isfinite(out);
}

/// Integer token constrained to [lo, hi].
bool parse_range(const char* s, long long lo, long long hi, long long& out) {
  return parse_i64(s, out) && out >= lo && out <= hi;
}

struct CliOptions {
  std::string topology;       // "fattree" | "regional" | "file"
  std::string network_file;   // for topology == "file"
  int k = 4;
  topo::RegionalParams regional;
  std::string suite = "final";
  bool with_acl = false;
  bool json = false;
  bool paths = false;
  double path_budget_s = 60.0;
  bool analyze = false;
  size_t suggest = 0;
  std::optional<std::string> save_trace;
  std::optional<std::string> load_trace;
  double deadline_s = 0.0;       // 0 = unlimited
  size_t max_bdd_nodes = 0;      // 0 = unlimited
  unsigned threads = 0;          // offline-phase workers; 0 = all hardware threads
  double gc_threshold = 0.0;     // shard-manager GC dead-fraction trigger; 0 = off
  std::string cache_dir;         // incremental result cache; empty = off
  std::optional<std::string> trace_out;    // Chrome trace-event JSON
  std::optional<std::string> metrics_out;  // metrics JSON (+ FILE.prom)
  int transforms = 0;            // tunnels + NAT rules per WAN (regional only)
  // Scenario mode (the `scenarios` subcommand):
  std::string scenario_spec;     // spec file; mutually exclusive with random_links
  int random_links = 0;          // generate N random link-down scenarios
  uint64_t scenario_seed = 1;    // PRNG seed for --random-links
  int links_per_scenario = 1;    // failed links per random scenario
  // Optimize mode (the `optimize` subcommand):
  bool minimize = false;         // greedy set-cover suite minimization
  bool prioritize = false;       // cost-aware ordering + coverage/cost curve
  bool gap_report = false;       // exhaustive gap witnesses
  double min_coverage = 1.0;     // minimization slack knob (fraction of full)
  // Daemon subcommands: `serve` reads `daemon`, `ingest-replay` its
  // wal/snapshot paths, `ingest` reads `client` and the shard split.
  service::DaemonOptions daemon;
  service::ClientOptions client = [] {
    service::ClientOptions c;
    c.batch_events = 64;
    return c;
  }();
  size_t shard = 0;
  size_t shards = 1;
};

// --- the flag table ------------------------------------------------------

/// Subcommands as bits, so one flag row names every subcommand that reads it.
enum Command : unsigned {
  kRun = 1u << 0,
  kScenarios = 1u << 1,
  kOptimize = 1u << 2,
  kServe = 1u << 3,
  kIngest = 1u << 4,
  kIngestReplay = 1u << 5,
};
/// The subcommands that run a suite into a coverage engine.
constexpr unsigned kEngine = kRun | kScenarios | kOptimize;

/// A flag's value kind, as the parser sees it: how many argv tokens it
/// takes and the store that validates and records them. `store` gets the
/// tokens (null past the arity, and for an absent optional value) and
/// returns false for a value outside the flag's range.
struct Value {
  enum Arity { kNone, kOne, kOptional, kTwo } arity;
  std::function<bool(const char*, const char*)> store;
};

Value action(std::function<void()> act) {
  return {Value::kNone, [act = std::move(act)](const char*, const char*) {
            act();
            return true;
          }};
}

Value set_true(bool& dst) { return action([&dst] { dst = true; }); }

/// Any token: `S` is std::string or std::optional<std::string>.
template <class S>
Value text(S& dst) {
  return {Value::kOne, [&dst](const char* v, const char*) {
            dst = v;
            return true;
          }};
}

Value integer(long long lo, long long hi, std::function<void(long long)> set) {
  return {Value::kOne, [lo, hi, set = std::move(set)](const char* v, const char*) {
            long long n = 0;
            if (!parse_range(v, lo, hi, n)) return false;
            set(n);
            return true;
          }};
}

template <class T>
Value integer(T& dst, long long lo, long long hi) {
  return integer(lo, hi, [&dst](long long n) { dst = static_cast<T>(n); });
}

/// TCP port: 1..65535, no wrapping.
Value port(uint16_t& dst) { return integer(dst, 1, 65535); }

/// Finite double in (0, hi].
Value real(double& dst, double hi) {
  return {Value::kOne, [&dst, hi](const char* v, const char*) {
            return parse_f64(v, dst) && dst > 0.0 && dst <= hi;
          }};
}

/// One flag: name and metavar (empty for a switch) as the usage text
/// shows them, the subcommands that read it, its value, and its help
/// (a '\n' continues on an indented line).
struct Flag {
  const char* name;
  const char* metavar;
  unsigned commands;
  Value value;
  const char* help;
};

/// Every flag of every subcommand, storing into `o`.
std::vector<Flag> flag_table(CliOptions& o) {
  constexpr long long kInt = INT_MAX;
  constexpr long long kI64 = LLONG_MAX;
  constexpr long long kU32 = UINT32_MAX;
  constexpr double kUnbounded = HUGE_VAL;
  return {
      {"--k", "N", kEngine | kIngest, integer(o.k, 1, kInt), "fat-tree arity (default 4)"},
      {"--datacenters", "N", kEngine, integer(o.regional.datacenters, 1, kInt),
       "regional: datacenter count"},
      {"--pods", "N", kEngine, integer(o.regional.pods_per_dc, 1, kInt),
       "regional: pods per datacenter"},
      {"--tors", "N", kEngine, integer(o.regional.tors_per_pod, 1, kInt),
       "regional: ToRs per pod"},
      {"--transforms", "N", kEngine, integer(o.transforms, 1, kInt),
       "regional: N tunnels (VIP encap/decap across ToRs)\n"
       "and N NAT rules per WAN, plus their checks"},
      {"--suite", "NAME", kEngine | kIngest, text(o.suite),
       "original|new|final|fattree (default final)"},
      {"--acl", "", kEngine | kIngest, set_true(o.with_acl),
       "install ToR ingress ACLs and ACL tests"},
      {"--json", "", kEngine | kServe | kIngest | kIngestReplay, set_true(o.json),
       "machine-readable output"},
      {"--paths", "[SECONDS]", kRun,
       {Value::kOptional,
        [&o](const char* v, const char*) {
          o.paths = true;
          return v == nullptr || (parse_f64(v, o.path_budget_s) && o.path_budget_s > 0.0);
        }},
       "also compute path coverage (budget, default 60)"},
      {"--analyze", "", kRun, set_true(o.analyze), "per-test contributions + redundancy"},
      {"--suggest", "N", kRun, integer(o.suggest, 1, kI64),
       "synthesize probes for N untested rules"},
      {"--save-trace", "FILE", kRun | kIngestReplay, text(o.save_trace),
       "persist the coverage trace"},
      {"--load-trace", "FILE", kRun, text(o.load_trace),
       "skip testing; compute metrics from FILE"},
      {"--deadline", "SECONDS", kEngine, real(o.deadline_s, kUnbounded),
       "overall wall-clock budget (partial results)"},
      {"--max-bdd-nodes", "N", kEngine, integer(o.max_bdd_nodes, 1, kI64),
       "cap BDD arena size (partial results)"},
      {"--threads", "N", kEngine, integer(o.threads, 1, kInt),
       "offline-phase worker threads (default: all\n"
       "hardware threads; results are identical)"},
      {"--gc-threshold", "F", kEngine, real(o.gc_threshold, 1.0),
       "collect shard BDD arenas when the dead fraction\n"
       "may exceed F in (0,1] (default off; results are\n"
       "identical, peak memory shrinks)"},
      {"--incremental", "", kEngine,
       action([&o] {
         if (o.cache_dir.empty()) o.cache_dir = ".yardstick-cache";
       }),
       "cache offline-phase results in .yardstick-cache\n"
       "and recompute only what changed (bit-identical)"},
      {"--cache-dir", "DIR", kEngine, text(o.cache_dir),
       "like --incremental, with an explicit cache directory"},
      {"--trace-out", "FILE", kEngine, text(o.trace_out),
       "write a Chrome trace-event JSON span timeline\n"
       "(open in about:tracing or ui.perfetto.dev)"},
      {"--metrics-out", "FILE", kEngine | kServe, text(o.metrics_out),
       "write metrics as JSON to FILE and Prometheus\n"
       "text exposition to FILE.prom (serve: at exit)"},
      {"--scenario-spec", "FILE", kScenarios, text(o.scenario_spec),
       "named device/link failure sets (see DESIGN.md)"},
      {"--random-links", "N", kScenarios, integer(o.random_links, 1, kInt),
       "N seeded random link-down scenarios instead"},
      {"--seed", "S", kScenarios, integer(o.scenario_seed, 0, kI64),
       "PRNG seed for --random-links (default 1)"},
      {"--links-per-scenario", "L", kScenarios, integer(o.links_per_scenario, 1, kInt),
       "failed links per random scenario (default 1)"},
      {"--minimize", "", kOptimize, set_true(o.minimize),
       "smallest subset preserving full-suite coverage"},
      {"--min-coverage", "F", kOptimize, real(o.min_coverage, 1.0),
       "keep >= F of the full suite's fractional rule\n"
       "coverage, F in (0,1] (default 1.0 = exact)"},
      {"--prioritize", "", kOptimize, set_true(o.prioritize),
       "marginal-coverage-per-second order + cost curve"},
      {"--gap-report", "", kOptimize, set_true(o.gap_report),
       "witness packet (or state-only marker) for every\n"
       "uncovered rule, grouped by device"},
      {"--socket", "PATH", kServe, text(o.daemon.socket_path),
       "unix-domain listener (default: none)"},
      {"--tcp", "PORT", kServe, port(o.daemon.tcp_port), "TCP listener on 127.0.0.1"},
      {"--wal", "FILE", kServe | kIngestReplay, text(o.daemon.wal_path),
       "daemon write-ahead journal (durable-before-ack)"},
      {"--snapshot", "FILE", kServe | kIngestReplay, text(o.daemon.snapshot_path),
       "daemon snapshot (compaction + graceful shutdown)"},
      {"--queue", "N", kServe, integer(o.daemon.queue_capacity, 1, kI64),
       "ingress queue bound (default 1024)"},
      {"--compact-bytes", "N", kServe, integer(o.daemon.compact_wal_bytes, 1, kI64),
       "compact once the WAL exceeds N bytes"},
      {"--no-fsync", "", kServe, action([&o] { o.daemon.wal_fsync = false; }),
       "skip per-append fsync (throughput over durability)"},
      {"--socket", "PATH", kIngest, text(o.client.socket_path), "daemon unix socket"},
      {"--tcp-port", "PORT", kIngest, port(o.client.tcp_port), "daemon TCP port (127.0.0.1)"},
      {"--session", "ID", kIngest,
       integer(1, kI64,
               [&o](long long n) {
                 o.client.session_id = static_cast<uint64_t>(n);
                 o.client.jitter_seed = o.client.session_id * 0x9e3779b97f4a7c15ull + 1;
               }),
       "session identity (default 1)"},
      {"--shard", "I M", kIngest,
       {Value::kTwo,
        [&o](const char* i, const char* m) {
          long long index = 0, total = 0;
          if (!parse_range(i, 0, kI64, index) || !parse_range(m, 1, kI64, total) ||
              index >= total) {
            return false;
          }
          o.shard = static_cast<size_t>(index);
          o.shards = static_cast<size_t>(total);
          return true;
        }},
       "send only shard I of M (deterministic split)"},
      {"--batch-events", "N", kIngest, integer(o.client.batch_events, 1, kI64),
       "auto-flush threshold (default 64)"},
      {"--max-attempts", "N", kIngest, integer(o.client.max_attempts, 1, kU32),
       "per-batch retry cap (default 8)"},
      {"--backoff-base-ms", "N", kIngest, integer(o.client.backoff_base_ms, 1, kU32),
       "first retry delay (default 10)"},
      {"--ack-timeout-ms", "N", kIngest, integer(o.client.ack_timeout_ms, 1, kU32),
       "per-reply wait (default 5000)"},
  };
}

// --- subcommands ---------------------------------------------------------

/// Which topology positional a subcommand takes.
enum class Topology { kNone, kSynthetic, kAny };

/// A usage error: reported with the subcommand's usage text, exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require(bool condition, const char* message) {
  if (!condition) throw UsageError(message);
}

struct Subcommand {
  const char* name;       // argv[1]; null for run mode
  Command bit;
  Topology topology;
  const char* synopsis;   // after "usage: yardstick"
  const char* notes;      // printed after the flag list
  int (*run)(const CliOptions&);
};

int usage(const Subcommand& cmd, const char* argv0) {
  std::fprintf(stderr, "usage: %s %s\n", argv0, cmd.synopsis);
  CliOptions scratch;
  for (const Flag& f : flag_table(scratch)) {
    if ((f.commands & cmd.bit) == 0) continue;
    const std::string label = std::string(f.name) + (*f.metavar ? " " : "") + f.metavar;
    std::fprintf(stderr, "  %-20s ", label.c_str());
    for (const char* c = f.help; *c != '\0'; ++c) {
      std::fputc(*c, stderr);
      if (*c == '\n') std::fprintf(stderr, "%23s", "");
    }
    std::fputc('\n', stderr);
  }
  std::fputs(cmd.notes, stderr);
  return 2;
}

/// Parses the positionals and flags after the subcommand word; throws
/// UsageError on anything `cmd` does not read or a value out of range.
CliOptions parse(const Subcommand& cmd, int argc, char** argv) {
  CliOptions o;
  int i = cmd.name != nullptr ? 2 : 1;
  if (cmd.topology != Topology::kNone) {
    require(i < argc, "missing topology");
    o.topology = argv[i++];
    if (o.topology == "file" && cmd.topology == Topology::kAny) {
      require(i < argc, "file needs a network file path");
      o.network_file = argv[i++];
    } else {
      require(o.topology == "fattree" || o.topology == "regional", "unknown topology");
    }
  }
  const std::vector<Flag> flags = flag_table(o);
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag = std::find_if(flags.begin(), flags.end(), [&](const Flag& f) {
      return (f.commands & cmd.bit) != 0 && arg == f.name;
    });
    if (flag == flags.end()) {
      throw UsageError(arg + " is not an option of " +
                       (cmd.name != nullptr ? cmd.name : "run mode"));
    }
    const char* first = nullptr;
    const char* second = nullptr;
    switch (flag->value.arity) {
      case Value::kNone:
        break;
      case Value::kOptional:
        if (i + 1 < argc && argv[i + 1][0] != '-') first = argv[++i];
        break;
      case Value::kOne:
        require(i + 1 < argc, "missing option value");
        first = argv[++i];
        break;
      case Value::kTwo:
        require(i + 2 < argc, "missing option value");
        first = argv[++i];
        second = argv[++i];
        break;
    }
    if (!flag->value.store(first, second)) throw UsageError("bad value for " + arg);
  }
  return o;
}

// --- shared setup --------------------------------------------------------

/// Topology + routing config + optional transform plan, built from the CLI
/// options. Out-parameter style: the struct holds both the storage and the
/// interior pointers, so it must not be moved after building.
struct BuiltTopology {
  net::Network* network = nullptr;
  routing::RoutingConfig* routing = nullptr;
  std::vector<net::DeviceId> tors;
  topo::FatTree fattree;
  topo::RegionalNetwork regional;
  netio::LoadedNetwork from_file;
  bool state_loaded = false;
  topo::TransformState transforms;
};

void build_topology(const CliOptions& opts, BuiltTopology& t) {
  if (opts.topology == "fattree") {
    t.fattree = topo::make_fat_tree({.k = opts.k});
    t.network = &t.fattree.network;
    t.routing = &t.fattree.routing;
    t.tors = t.fattree.tors;
  } else if (opts.topology == "regional") {
    t.regional = topo::make_regional(opts.regional);
    t.network = &t.regional.network;
    t.routing = &t.regional.routing;
    t.tors = t.regional.tors;
  } else {
    t.from_file = netio::load_network_file(opts.network_file);
    t.network = &t.from_file.network;
    t.routing = &t.from_file.routing;
    t.tors = t.network->devices_with_role(net::Role::ToR);
    t.state_loaded = t.from_file.has_forwarding_state;
  }
  if (opts.transforms > 0) {
    if (opts.topology != "regional") {
      throw ys::InvalidInputError("--transforms requires the regional topology");
    }
    // Must run before FIB computation: tunnel endpoints are BGP-originated.
    t.transforms = topo::plan_transforms(
        t.regional, {.tunnels = opts.transforms, .nat_rules_per_wan = opts.transforms});
  }
}

/// Post-FIB state (ingress ACLs, transform rules) — everything that
/// FibBuilder::build wipes and that must be reinstalled per FIB rebuild.
void install_post_fib_state(const CliOptions& opts, const BuiltTopology& t,
                            net::Network& network,
                            const routing::RoutingConfig& routing) {
  if (opts.with_acl) {
    std::vector<net::DeviceId> alive;
    alive.reserve(t.tors.size());
    for (const net::DeviceId tor : t.tors) {
      if (!routing.failed_devices.contains(tor)) alive.push_back(tor);
    }
    topo::install_ingress_acls(network, alive);
  }
  if (!t.transforms.empty()) {
    topo::install_transform_rules(network, t.transforms, routing);
  }
}

/// The topology with its forwarding state: computed by the BGP substrate
/// unless a network file carried it.
void build_network(const CliOptions& opts, BuiltTopology& t) {
  build_topology(opts, t);
  if (!t.state_loaded) {
    routing::FibBuilder::compute_and_build(*t.network, *t.routing);
    install_post_fib_state(opts, t, *t.network, *t.routing);
  }
}

nettest::TestSuite build_suite(const CliOptions& opts,
                               const routing::RoutingConfig& routing) {
  // Devices the routing config leaves without a default route.
  const std::unordered_set<net::DeviceId> excluded(routing.no_default_devices.begin(),
                                                   routing.no_default_devices.end());
  nettest::TestSuite suite(opts.suite);
  const bool original = opts.suite == "original" || opts.suite == "final";
  const bool fresh = opts.suite == "new" || opts.suite == "final";
  if (opts.suite == "fattree") {
    suite.add(std::make_unique<nettest::DefaultRouteCheck>(excluded));
    suite.add(std::make_unique<nettest::ToRContract>());
    suite.add(std::make_unique<nettest::ToRReachability>());
    suite.add(std::make_unique<nettest::ToRPingmesh>());
  }
  if (original) {
    suite.add(std::make_unique<nettest::DefaultRouteCheck>(excluded));
    suite.add(std::make_unique<nettest::AggCanReachTorLoopback>());
  }
  if (fresh) {
    suite.add(std::make_unique<nettest::InternalRouteCheck>());
    suite.add(std::make_unique<nettest::ConnectedRouteCheck>());
  }
  if (opts.with_acl) {
    suite.add(std::make_unique<nettest::AclBlockCheck>());
    suite.add(std::make_unique<nettest::BlockedPortCheck>());
  }
  if (opts.transforms > 0) {
    suite.add(std::make_unique<nettest::TunnelRoundTripCheck>());
    suite.add(std::make_unique<nettest::NatTranslationCheck>());
  }
  return suite;
}

/// The --deadline / --max-bdd-nodes budget; null when neither was given.
/// The deadline clock starts here.
std::unique_ptr<ys::ResourceBudget> make_budget(const CliOptions& opts) {
  if (opts.deadline_s <= 0.0 && opts.max_bdd_nodes == 0) return nullptr;
  auto budget = std::make_unique<ys::ResourceBudget>();
  if (opts.deadline_s > 0.0) budget->with_deadline(opts.deadline_s);
  if (opts.max_bdd_nodes > 0) budget->with_max_bdd_nodes(opts.max_bdd_nodes);
  return budget;
}

ys::EngineOptions engine_options(const CliOptions& opts,
                                 const ys::ResourceBudget* budget) {
  return {budget, opts.threads, opts.cache_dir, opts.gc_threshold};
}

/// Maps the error taxonomy onto the documented exit codes.
int exit_code_for(ys::Error code) {
  switch (code) {
    case ys::Error::InvalidInput: return 3;
    case ys::Error::CorruptTrace: return 4;
    case ys::Error::IoError: return 5;
    case ys::Error::BudgetExceeded: return 6;
    case ys::Error::Cancelled: return 7;
    default: return 10;
  }
}

/// Writes `content` to `path`, mapping failure onto the I/O exit code.
void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  out.flush();
  if (!out) throw ys::IoError("cannot write " + path);
}

void write_metrics(const std::string& path) {
  write_file(path, obs::metrics().to_json());
  write_file(path + ".prom", obs::metrics().to_prometheus());
}

/// Runs an engine subcommand under the `cli.run` root span, then writes
/// the --trace-out / --metrics-out artifacts.
int observed(const CliOptions& opts, int (*body)(const CliOptions&)) {
  // The observability switch flips on only when an output was requested;
  // default runs keep the near-zero disabled-mode cost.
  if (opts.trace_out || opts.metrics_out) obs::set_enabled(true);
  int code = 0;
  {
    // Scoped so the root span is recorded before the trace is serialized.
    obs::Span root("cli.run", "cli");
    code = body(opts);
  }
  if (opts.trace_out) {
    write_file(*opts.trace_out, obs::Tracer::global().to_chrome_json());
    if (!opts.json) std::printf("trace timeline written to %s\n", opts.trace_out->c_str());
  }
  if (opts.metrics_out) {
    write_metrics(*opts.metrics_out);
    if (!opts.json) {
      std::printf("metrics written to %s (+ %s.prom)\n", opts.metrics_out->c_str(),
                  opts.metrics_out->c_str());
    }
  }
  return code;
}

// --- run mode ------------------------------------------------------------

int run_report(const CliOptions& opts) {
  BuiltTopology built;
  build_network(opts, built);
  net::Network* network = built.network;
  if (!opts.json) std::printf("%s\n", network->summary().c_str());

  bdd::BddManager mgr(packet::kNumHeaderBits);
  const std::unique_ptr<ys::ResourceBudget> budget = make_budget(opts);
  ys::CoverageTracker tracker;
  size_t failures = 0;

  if (opts.load_trace) {
    obs::Span span("trace.load", "io");
    coverage::CoverageTrace loaded = ys::load_trace(*opts.load_trace, mgr);
    tracker.mark_packet(loaded.marked_packets());
    for (const net::RuleId rid : loaded.marked_rules()) tracker.mark_rule(rid);
    if (!opts.json) std::printf("loaded trace from %s\n", opts.load_trace->c_str());
  } else {
    const dataplane::MatchSetIndex match_sets(mgr, *network);
    const dataplane::Transfer transfer(match_sets);
    const nettest::TestSuite suite = build_suite(opts, *built.routing);
    const auto results = [&] {
      obs::Span span("suite.run", "online");
      span.arg("tests", suite.size());
      return suite.run_all(transfer, tracker);
    }();
    for (const auto& r : results) failures += r.failures;
    if (opts.json) {
      std::printf("{\"tests\":%s,", ys::results_to_json(results).c_str());
    } else {
      for (const auto& r : results) {
        std::printf("test %-24s %s (%zu checks, %zu failures)\n", r.name.c_str(),
                    r.passed() ? "PASS" : "FAIL", r.checks, r.failures);
      }
    }
    if (opts.analyze && !opts.json) {
      const ys::SuiteAnalyzer analyzer(mgr, *network, budget.get(), opts.threads);
      const ys::SuiteAnalysis analysis = analyzer.analyze(transfer, suite);
      if (analysis.truncated) {
        std::fprintf(stderr, "warning: budget exhausted; suite analysis is partial\n");
      }
      std::printf("\nsuite analysis (fractional rule coverage, %.3fs):\n",
                  analysis.analyze_seconds);
      for (const auto& t : analysis.tests) {
        std::printf("  %-24s solo %6.1f%%  marginal %6.1f%%  %7.3fs  %s\n",
                    t.name.c_str(), t.solo * 100.0, t.marginal * 100.0, t.seconds,
                    t.redundant ? "REDUNDANT" : "keep");
      }
    }
  }

  const ys::CoverageEngine engine(mgr, *network, tracker.trace(),
                                  engine_options(opts, budget.get()));
  // Cache telemetry goes to stderr so stdout (human or JSON report) stays
  // byte-identical to a from-scratch run — which is what CI diffs.
  if (const ys::CacheStats* cs = engine.cache_stats()) {
    if (!cs->loaded) {
      std::fprintf(stderr, "cache: full rebuild (%s)\n", cs->fallback_reason.c_str());
    } else {
      std::fprintf(stderr,
                   "cache: %zu/%zu match records reused, %zu/%zu covered records "
                   "reused, %zu device(s) invalidated\n",
                   cs->match_hits, cs->devices, cs->cover_hits, cs->devices,
                   cs->invalidated);
    }
    if (!cs->save_error.empty()) {
      std::fprintf(stderr, "warning: cache not saved: %s\n", cs->save_error.c_str());
    }
  }
  const ys::CoverageReport report = engine.report();
  if (report.truncated && !opts.json) {
    std::fprintf(stderr, "warning: budget exhausted; coverage results are partial\n");
  }
  if (opts.json) {
    if (opts.load_trace) std::printf("{");
    std::printf("\"coverage\":%s", ys::report_to_json(report).c_str());
  } else {
    std::printf("\n%s", report.to_text().c_str());
  }

  if (opts.paths) {
    const ys::PathCoverageResult paths = engine.path_coverage({}, opts.path_budget_s);
    if (opts.json) {
      // JSON has no NaN/Infinity literals; a degraded ratio prints as 0.
      const double fractional = std::isfinite(paths.fractional) ? paths.fractional : 0.0;
      std::printf(",\"paths\":{\"total\":%llu,\"covered\":%llu,\"fractional\":%f,"
                  "\"truncated\":%s}",
                  static_cast<unsigned long long>(paths.total_paths),
                  static_cast<unsigned long long>(paths.covered_paths), fractional,
                  paths.truncated ? "true" : "false");
    } else {
      std::printf("path coverage: %llu/%llu covered (%.1f%%) in %.3fs%s\n",
                  static_cast<unsigned long long>(paths.covered_paths),
                  static_cast<unsigned long long>(paths.total_paths),
                  paths.fractional * 100.0, paths.seconds,
                  paths.truncated ? " [truncated]" : "");
    }
  }
  if (opts.json) std::printf("}\n");

  if (opts.suggest > 0 && !opts.json) {
    std::printf("\nsuggested probes for untested rules:\n");
    for (const ys::TestSuggestion& s : ys::suggest_tests(engine, opts.suggest)) {
      std::printf("  %s\n", s.to_string(*network).c_str());
    }
  }

  if (opts.save_trace) {
    obs::Span span("trace.save", "io");
    ys::save_trace(*opts.save_trace, tracker.trace(), mgr);
    if (!opts.json) std::printf("trace saved to %s\n", opts.save_trace->c_str());
  }
  return failures == 0 ? 0 : 1;
}

// --- scenario mode -------------------------------------------------------

/// `yardstick scenarios <topology> [...] --scenario-spec FILE | --random-links N`
///
/// The forwarding state is always recomputed per scenario, so hand-authored
/// state in `file` topologies is replaced by the BGP substrate's output.
int run_scenarios(const CliOptions& opts) {
  const bool have_spec = !opts.scenario_spec.empty();
  require(have_spec != (opts.random_links > 0),
          "scenarios needs exactly one of --scenario-spec / --random-links");

  BuiltTopology built;
  build_topology(opts, built);
  if (!opts.json) std::printf("%s\n", built.network->summary().c_str());

  const scenario::ScenarioSpec spec =
      have_spec ? scenario::ScenarioSpec::load(opts.scenario_spec)
                : scenario::random_link_scenarios(*built.network, opts.random_links,
                                                  opts.scenario_seed,
                                                  opts.links_per_scenario);

  const std::unique_ptr<ys::ResourceBudget> budget = make_budget(opts);
  scenario::ScenarioRunnerOptions ropts;
  ropts.engine = engine_options(opts, budget.get());
  const nettest::TestSuite suite = build_suite(opts, *built.routing);

  scenario::ScenarioRunner runner(*built.network, *built.routing, suite, ropts);
  runner.set_post_fib_hook(
      [&opts, &built](net::Network& network, const routing::RoutingConfig& routing) {
        install_post_fib_state(opts, built, network, routing);
      });
  const scenario::ScenarioReport report = runner.run(spec);

  if (report.truncated) {
    std::fprintf(stderr, "warning: budget exhausted; scenario results are partial\n");
  }
  if (opts.json) {
    std::printf("%s\n", scenario::report_to_json(report).c_str());
  } else {
    std::printf("%s", report.to_text().c_str());
  }
  return 0;
}

// --- optimize mode -------------------------------------------------------

/// `yardstick optimize <topology> [...] --minimize|--prioritize|--gap-report`
///
/// Runs the suite twice over the same match-set index: once per-test in
/// isolation (the coverage matrix the optimizers fold over) and once merged
/// (the engine the gap report and the recomputation cross-check read).
int run_optimize(const CliOptions& opts) {
  require(opts.minimize || opts.prioritize || opts.gap_report,
          "optimize needs at least one of --minimize / --prioritize / --gap-report");

  BuiltTopology built;
  build_network(opts, built);
  net::Network* network = built.network;
  if (!opts.json) std::printf("%s\n", network->summary().c_str());

  const std::unique_ptr<ys::ResourceBudget> budget = make_budget(opts);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  if (budget) mgr.set_budget(budget.get());
  const dataplane::MatchSetIndex match_sets(mgr, *network, budget.get());
  const dataplane::Transfer transfer(match_sets);
  const nettest::TestSuite suite = build_suite(opts, *built.routing);

  // Per-test coverage matrix: the substrate minimization/prioritization
  // fold over (bit-identical at any --threads value).
  const ys::SuiteCoverageMatrix matrix =
      ys::build_suite_matrix(transfer, suite, budget.get(), opts.threads);

  // Merged full-suite run for the engine-side artifacts.
  ys::CoverageTracker tracker;
  (void)suite.run_all(transfer, tracker);
  const ys::CoverageEngine engine(mgr, *network, tracker.trace(),
                                  engine_options(opts, budget.get()));

  std::optional<ys::MinimizeResult> minimized;
  std::optional<ys::PrioritizeResult> prioritized;
  std::optional<ys::GapReport> gaps;
  if (opts.minimize) {
    minimized = ys::minimize_suite(matrix, opts.min_coverage);
    // End-to-end cross-check: re-run only the retained tests and push the
    // merged trace through a fresh engine — the recomputed fractional rule
    // coverage must equal the full suite's bit-for-bit at min-coverage 1.
    ys::CoverageTracker subset_tracker;
    for (const ys::SelectedTest& s : minimized->selected) {
      (void)suite.test(s.index).run(transfer, subset_tracker);
    }
    ys::EngineOptions uncached = engine_options(opts, budget.get());
    uncached.cache_dir.clear();
    const ys::CoverageEngine subset_engine(mgr, *network, subset_tracker.trace(), uncached);
    minimized->recomputed_full = engine.metrics().rule_fractional;
    minimized->recomputed_subset = subset_engine.metrics().rule_fractional;
  }
  if (opts.prioritize) prioritized = ys::prioritize_suite(matrix);
  if (opts.gap_report) gaps = ys::build_gap_report(engine);

  const bool truncated = matrix.truncated || engine.truncated();
  if (truncated) {
    std::fprintf(stderr, "warning: budget exhausted; optimization results are partial\n");
  }
  if (opts.json) {
    std::printf("%s\n",
                ys::optimize_to_json(matrix, minimized ? &*minimized : nullptr,
                                     prioritized ? &*prioritized : nullptr,
                                     gaps ? &*gaps : nullptr)
                    .c_str());
  } else {
    if (minimized) std::printf("%s", minimized->to_text(matrix).c_str());
    if (prioritized) std::printf("%s", prioritized->to_text().c_str());
    if (gaps) std::printf("%s", gaps->to_text().c_str());
  }
  return 0;
}

// --- daemon-mode subcommands --------------------------------------------

int run_serve(const CliOptions& opts) {
  require(!opts.daemon.socket_path.empty() || opts.daemon.tcp_port != 0,
          "serve needs --socket or --tcp");
  if (opts.metrics_out) obs::set_enabled(true);

  service::ShutdownSignal& sig = service::ShutdownSignal::install();
  service::Daemon daemon(opts.daemon);
  daemon.start();
  const service::DaemonStats at_start = daemon.stats();
  // The readiness line is the CI handshake: once it appears (flushed),
  // clients may connect.
  std::printf("yardstickd ready");
  if (daemon.tcp_port() != 0) std::printf(" tcp=%u", daemon.tcp_port());
  std::printf(" recovered_records=%llu recovered_snapshot=%d\n",
              static_cast<unsigned long long>(at_start.recovered_records),
              at_start.recovered_snapshot ? 1 : 0);
  std::fflush(stdout);

  daemon.run(sig.fd());
  daemon.shutdown();

  const service::DaemonStats s = daemon.stats();
  if (opts.json) {
    std::printf("{\"connections\":%llu,\"frames\":%llu,\"batches\":%llu,"
                "\"events\":%llu,\"busy_rejections\":%llu,\"rejected_batches\":%llu,"
                "\"corrupt_frames\":%llu,\"accept_failures\":%llu,"
                "\"compactions\":%llu,\"sessions\":%llu,"
                "\"recovered_records\":%llu,\"recovered_torn_tail\":%s}\n",
                static_cast<unsigned long long>(s.connections),
                static_cast<unsigned long long>(s.frames),
                static_cast<unsigned long long>(s.batches),
                static_cast<unsigned long long>(s.events),
                static_cast<unsigned long long>(s.busy_rejections),
                static_cast<unsigned long long>(s.rejected_batches),
                static_cast<unsigned long long>(s.corrupt_frames),
                static_cast<unsigned long long>(s.accept_failures),
                static_cast<unsigned long long>(s.compactions),
                static_cast<unsigned long long>(s.sessions),
                static_cast<unsigned long long>(s.recovered_records),
                s.recovered_torn_tail ? "true" : "false");
  } else {
    std::printf("yardstickd drained: %llu batches (%llu events) from %llu "
                "connections, %llu sessions, %llu busy rejections\n",
                static_cast<unsigned long long>(s.batches),
                static_cast<unsigned long long>(s.events),
                static_cast<unsigned long long>(s.connections),
                static_cast<unsigned long long>(s.sessions),
                static_cast<unsigned long long>(s.busy_rejections));
  }
  if (opts.metrics_out) write_metrics(*opts.metrics_out);
  return 0;
}

int run_ingest(const CliOptions& opts) {
  require(!opts.client.socket_path.empty() || opts.client.tcp_port != 0,
          "ingest needs --socket or --tcp-port");

  // Run the suite locally into a trace, exactly like the in-process path.
  BuiltTopology built;
  build_network(opts, built);
  bdd::BddManager mgr(packet::kNumHeaderBits);
  ys::CoverageTracker tracker;
  const dataplane::MatchSetIndex match_sets(mgr, *built.network);
  const dataplane::Transfer transfer(match_sets);
  const nettest::TestSuite suite = build_suite(opts, *built.routing);
  size_t failures = 0;
  for (const auto& r : suite.run_all(transfer, tracker)) failures += r.failures;
  const coverage::CoverageTrace& trace = tracker.trace();

  // Stream the trace to the daemon, optionally as one deterministic
  // shard: locations in map order, then rules sorted — so shard i of m
  // from concurrent processes unions back to exactly the full trace.
  service::IngestClient client(opts.client);
  size_t index = 0;
  for (const auto& [loc, ps] : trace.marked_packets().entries()) {
    if (index++ % opts.shards == opts.shard) client.mark_packet(loc, ps);
  }
  std::vector<uint32_t> rules;
  rules.reserve(trace.marked_rules().size());
  for (const net::RuleId rid : trace.marked_rules()) rules.push_back(rid.value);
  std::sort(rules.begin(), rules.end());
  for (const uint32_t rid : rules) {
    if (index++ % opts.shards == opts.shard) client.mark_rule(net::RuleId{rid});
  }
  client.close();

  const service::ClientStats& cs = client.stats();
  if (opts.json) {
    std::printf("{\"flushes\":%llu,\"events_sent\":%llu,\"retries\":%llu,"
                "\"busy_backoffs\":%llu,\"reconnects\":%llu,\"test_failures\":%zu}\n",
                static_cast<unsigned long long>(cs.flushes),
                static_cast<unsigned long long>(cs.events_sent),
                static_cast<unsigned long long>(cs.retries),
                static_cast<unsigned long long>(cs.busy_backoffs),
                static_cast<unsigned long long>(cs.reconnects), failures);
  } else {
    std::printf("ingested %llu events in %llu batches (%llu retries, %llu busy, "
                "%llu connections)\n",
                static_cast<unsigned long long>(cs.events_sent),
                static_cast<unsigned long long>(cs.flushes),
                static_cast<unsigned long long>(cs.retries),
                static_cast<unsigned long long>(cs.busy_backoffs),
                static_cast<unsigned long long>(cs.reconnects));
  }
  return failures == 0 ? 0 : 1;
}

int run_ingest_replay(const CliOptions& opts) {
  const std::string& wal_path = opts.daemon.wal_path;
  const std::string& snapshot_path = opts.daemon.snapshot_path;
  require(!wal_path.empty() || !snapshot_path.empty(),
          "ingest-replay needs --wal or --snapshot");

  bdd::BddManager mgr(packet::kNumHeaderBits);
  service::DaemonStats stats;
  const coverage::CoverageTrace trace =
      service::recover_trace(snapshot_path, wal_path, mgr, &stats);
  const std::string out_path = opts.save_trace.value_or("");
  if (!out_path.empty()) ys::save_trace(out_path, trace, mgr);
  if (opts.json) {
    std::printf("{\"recovered_records\":%llu,\"sessions\":%llu,"
                "\"recovered_snapshot\":%s,\"torn_tail\":%s,"
                "\"rejected_records\":%llu}\n",
                static_cast<unsigned long long>(stats.recovered_records),
                static_cast<unsigned long long>(stats.sessions),
                stats.recovered_snapshot ? "true" : "false",
                stats.recovered_torn_tail ? "true" : "false",
                static_cast<unsigned long long>(stats.rejected_batches));
  } else {
    std::printf("replayed %llu journal records (%llu sessions%s%s)%s%s\n",
                static_cast<unsigned long long>(stats.recovered_records),
                static_cast<unsigned long long>(stats.sessions),
                stats.recovered_snapshot ? ", snapshot loaded" : "",
                stats.recovered_torn_tail ? ", torn tail discarded" : "",
                out_path.empty() ? "" : ", saved to ", out_path.c_str());
  }
  return 0;
}

constexpr Subcommand kSubcommands[] = {
    {nullptr, kRun, Topology::kAny, "<fattree|regional|file PATH> [options]",
     "Subcommands (run one without arguments for its options):\n"
     "  scenarios      coverage under failure (DESIGN.md §13)\n"
     "  optimize       suite minimization / prioritization / gap witnesses (§14)\n"
     "  serve, ingest, ingest-replay   the ingestion daemon and its clients (§10)\n",
     run_report},
    {"scenarios", kScenarios, Topology::kAny,
     "scenarios <fattree|regional|file PATH> [options]\n"
     "       (--scenario-spec FILE | --random-links N [--seed S])",
     "Exactly one of --scenario-spec / --random-links is required.\n", run_scenarios},
    {"optimize", kOptimize, Topology::kAny,
     "optimize <fattree|regional|file PATH> [options]\n"
     "       [--minimize [--min-coverage F]] [--prioritize] [--gap-report]",
     "At least one of --minimize / --prioritize / --gap-report is required.\n",
     run_optimize},
    {"serve", kServe, Topology::kNone, "serve [options]",
     "At least one of --socket/--tcp is required. SIGTERM/SIGINT drain\n"
     "accepted batches, snapshot, truncate the WAL and exit 0; a second\n"
     "signal aborts immediately.\n",
     run_serve},
    {"ingest", kIngest, Topology::kSynthetic, "ingest <fattree|regional> [options]",
     "At least one of --socket/--tcp-port is required.\n", run_ingest},
    {"ingest-replay", kIngestReplay, Topology::kNone, "ingest-replay [options]",
     "Offline recovery: rebuild the merged trace a daemon would\n"
     "recover from the snapshot plus journal (at least one of --wal /\n"
     "--snapshot), and persist it.\n",
     run_ingest_replay},
};

/// The subcommand argv[1] names; run mode when it names none.
const Subcommand& find_subcommand(int argc, char** argv) {
  for (const Subcommand& cmd : kSubcommands) {
    if (cmd.name != nullptr && argc >= 2 && std::strcmp(argv[1], cmd.name) == 0) return cmd;
  }
  return kSubcommands[0];
}

}  // namespace

int main(int argc, char** argv) {
  const Subcommand& cmd = find_subcommand(argc, argv);
  try {
    const CliOptions opts = parse(cmd, argc, argv);
    return (cmd.bit & kEngine) != 0 ? observed(opts, cmd.run) : cmd.run(opts);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage(cmd, argv[0]);
  } catch (const ys::StatusError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code_for(e.code());
  } catch (const ys::InvalidInputError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code_for(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 10;
  }
}
