// bellamy_serverd — the TCP serving daemon.
//
//   ./build/apps/bellamy_serverd [--port=N] [--store=DIR] [--workers=N]
//                                [--max-batch=N] [--deadline-us=N]
//                                [--max-queue=N]
//                                [--peer=HOST:PORT]... [--sync-ms=N]
//                                [--io-timeout-ms=N] [--peer-retries=N]
//                                [--auto-persist] [--refit-budget=N]
//                                [--refit-policy=NAME] [--drift-threshold=X]
//
// Wires ModelStore -> ModelRegistry -> PredictionService -> net::ServeServer
// and serves until drained (wire DrainRequest or console `drain`).  With
// --store, every stored model is opened at startup; clients can also publish
// models over the wire (bellamy_loadgen does).
//
// --peer (repeatable) joins this node to an exchange mesh: a request for a
// model this node lacks pulls it off a peer (or warm-starts from a same-job
// base), and a background anti-entropy loop (period --sync-ms) keeps the
// nodes converged.  --auto-persist writes every successful background-refit
// swap back to the --store directory.
//
// --refit-budget caps the run history every refit fine-tunes on: histories
// above the budget are reduced to a coreset first (--refit-policy picks the
// policy: uniform | recency | coverage | loss-aware; default coverage).  The
// daemon always runs a DriftMonitor so clients can stream observed runtimes
// back over the wire (ReportRun); --drift-threshold=X additionally queues an
// automatic reduced refit when a model's relative-error EWMA crosses X
// (0, the default, just monitors).
//
// --io-timeout-ms bounds every socket stall (server reads/writes AND peer
// dials/calls): a peer or client that goes silent mid-frame costs a typed
// timeout, never a hung thread.  0 (the default) = wait forever.
// --peer-retries is the per-call retry budget against peers (redial +
// exponential backoff); per-peer circuit breakers stop the sync loop from
// hammering a dead node regardless.
//
// stdin is an admin console (type `help`); EOF on stdin keeps serving — the
// daemon can run detached with stdin closed.  Exit code 0 after a graceful
// drain.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exchange/exchange.hpp"
#include "net/net.hpp"
#include "reduce/reduction.hpp"
#include "serve/serve.hpp"
#include "util/flags.hpp"

using namespace bellamy;

namespace {

void print_help() {
  std::fprintf(stderr,
               "admin console commands:\n"
               "  stats                                   server counters\n"
               "  stats <job> <context>                   per-model serving metrics\n"
               "  keys                                    registered model keys\n"
               "  set_qos <job> <ctx> <interactive|bulk> <weight> [max_lag_us]\n"
               "  refit <job> <context>                   background reset-to-base refit\n"
               "  erase <job> <context>                   retire a model\n"
               "  sync                                    run one exchange sync round now\n"
               "  exchange                                exchange-layer counters\n"
               "  drain                                   graceful drain, then exit\n"
               "  help                                    this text\n");
}

void print_drift(const serve::ServeMetrics& m) {
  std::fprintf(stderr,
               "  drift ewma %.4f over %llu report(s), %llu auto refit(s)\n"
               "  reductions %llu (last kept %llu, dropped %llu total)\n",
               m.drift_error_ewma, (unsigned long long)m.drift_reports,
               (unsigned long long)m.drift_refits, (unsigned long long)m.reductions,
               (unsigned long long)m.reduction_last_kept,
               (unsigned long long)m.reduction_runs_dropped);
}

void print_metrics(const serve::ServeMetrics& m) {
  std::fprintf(stderr,
               "  requests %llu  responses %llu  batches %llu (full %llu / deadline %llu "
               "/ drain %llu)\n"
               "  queue depth %llu (max %llu)\n"
               "  effective deadline %llu us  max lag %llu us  starved %llu\n"
               "  latency p50/p95/p99 %llu/%llu/%llu us over %llu responses\n",
               (unsigned long long)m.requests, (unsigned long long)m.responses,
               (unsigned long long)m.batches, (unsigned long long)m.coalesced,
               (unsigned long long)m.deadline_flushes, (unsigned long long)m.drain_flushes,
               (unsigned long long)m.queue_depth, (unsigned long long)m.max_queue_depth,
               (unsigned long long)m.effective_flush_deadline_us,
               (unsigned long long)m.max_dispatch_lag_us,
               (unsigned long long)m.starved_flushes, (unsigned long long)m.latency_p50_us,
               (unsigned long long)m.latency_p95_us, (unsigned long long)m.latency_p99_us,
               (unsigned long long)m.latency_count);
}

/// Console loop; returns when stdin hits EOF (keep serving) or after `drain`.
void console_loop(net::ServeServer& server, serve::ModelRegistry& registry,
                  serve::PredictionService& service, serve::DriftMonitor* drift,
                  exchange::ExchangeRegistry* exchange) {
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) continue;

    if (cmd == "help") {
      print_help();
    } else if (cmd == "keys") {
      for (const serve::ModelKey& key : registry.keys()) {
        std::fprintf(stderr, "  %s\n", key.str().c_str());
      }
    } else if (cmd == "stats") {
      std::string job, context;
      if (in >> job >> context) {
        const auto handle = registry.find({job, context});
        if (!handle.ok()) {
          std::fprintf(stderr, "  %s\n", handle.error_text().c_str());
          continue;
        }
        // The snapshot the wire MetricsResponse carries.
        const auto metrics = serve::model_metrics(service, registry, drift, handle.value());
        if (!metrics.ok()) {
          std::fprintf(stderr, "  %s\n", metrics.error_text().c_str());
          continue;
        }
        print_metrics(metrics.value());
        print_drift(metrics.value());
      } else {
        const net::ServerStats s = server.stats();
        std::fprintf(stderr,
                     "  connections %llu open / %llu accepted; frames %llu in / %llu "
                     "out; %llu protocol errors; %zu models%s\n",
                     (unsigned long long)s.connections_open,
                     (unsigned long long)s.connections_accepted,
                     (unsigned long long)s.frames_in, (unsigned long long)s.frames_out,
                     (unsigned long long)s.protocol_errors, registry.size(),
                     s.draining ? "; DRAINING" : "");
      }
    } else if (cmd == "set_qos") {
      std::string job, context, cls;
      double weight = 1.0;
      std::uint64_t max_lag_us = 0;
      if (!(in >> job >> context >> cls >> weight)) {
        std::fprintf(stderr, "  usage: set_qos <job> <ctx> <interactive|bulk> <weight> "
                             "[max_lag_us]\n");
        continue;
      }
      in >> max_lag_us;
      serve::HandleQos qos;
      qos.qos = cls == "bulk" ? serve::QosClass::kBulk : serve::QosClass::kInteractive;
      qos.weight = weight;
      qos.max_lag = std::chrono::microseconds(max_lag_us);
      const auto handle = registry.find({job, context});
      const auto result =
          handle.ok() ? service.set_qos(handle.value(), qos)
                      : serve::ServeResult<serve::Unit>::failure(handle.status(),
                                                                 handle.message());
      std::fprintf(stderr, "  %s\n", result.ok() ? "ok" : result.error_text().c_str());
    } else if (cmd == "refit") {
      std::string job, context;
      if (!(in >> job >> context)) {
        std::fprintf(stderr, "  usage: refit <job> <context>\n");
        continue;
      }
      const auto handle = registry.find({job, context});
      if (!handle.ok()) {
        std::fprintf(stderr, "  %s\n", handle.error_text().c_str());
        continue;
      }
      const std::string name = job + "/" + context;
      registry.refit_async(handle.value(), {}, core::FineTuneConfig{},
                           core::ReuseStrategy::kPartialUnfreeze,
                           [name](const serve::ServeResult<core::FineTuneResult>& r) {
                             std::fprintf(stderr, "  refit %s: %s\n", name.c_str(),
                                          r.ok() ? "done" : r.error_text().c_str());
                           });
      std::fprintf(stderr, "  refit %s queued\n", name.c_str());
    } else if (cmd == "erase") {
      std::string job, context;
      if (!(in >> job >> context)) {
        std::fprintf(stderr, "  usage: erase <job> <context>\n");
        continue;
      }
      const auto handle = registry.find({job, context});
      const auto result = handle.ok()
                              ? registry.erase(handle.value())
                              : serve::ServeResult<serve::Unit>::failure(handle.status(),
                                                                         handle.message());
      std::fprintf(stderr, "  %s\n", result.ok() ? "ok" : result.error_text().c_str());
    } else if (cmd == "sync") {
      if (exchange == nullptr) {
        std::fprintf(stderr, "  no peers configured (--peer=HOST:PORT)\n");
        continue;
      }
      exchange->sync_now();
      std::fprintf(stderr, "  sync round done; catalog %llu entries\n",
                   (unsigned long long)exchange->stats().catalog_size);
    } else if (cmd == "exchange") {
      if (exchange == nullptr) {
        std::fprintf(stderr, "  no peers configured (--peer=HOST:PORT)\n");
        continue;
      }
      const exchange::ExchangeStats x = exchange->stats();
      std::fprintf(stderr,
                   "  catalog %llu  peers %zu  pulls served/completed %llu/%llu\n"
                   "  warm starts %llu  sync rounds %llu  conflicts skipped %llu\n"
                   "  peer failures %llu  breaker skips %llu\n",
                   (unsigned long long)x.catalog_size, exchange->peer_count(),
                   (unsigned long long)x.pulls_served,
                   (unsigned long long)x.pulls_completed,
                   (unsigned long long)x.warm_starts, (unsigned long long)x.sync_rounds,
                   (unsigned long long)x.conflicts_skipped,
                   (unsigned long long)x.peer_failures,
                   (unsigned long long)x.breaker_skips);
      for (const exchange::PeerStats& p : x.peers) {
        std::fprintf(stderr,
                     "  peer %s: breaker %s  ok %llu  fail %llu  skip %llu  trips %llu  "
                     "probes %llu  retries %llu\n",
                     p.name.c_str(), p.breaker_state, (unsigned long long)p.successes,
                     (unsigned long long)p.failures, (unsigned long long)p.skips,
                     (unsigned long long)p.trips, (unsigned long long)p.probes,
                     (unsigned long long)p.retries);
      }
    } else if (cmd == "drain") {
      std::fprintf(stderr, "draining...\n");
      server.begin_drain();
      return;
    } else {
      std::fprintf(stderr, "unknown command '%s' (try help)\n", cmd.c_str());
    }
  }
  std::fprintf(stderr, "stdin closed; serving until a wire drain\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 7113;
  std::string store_dir;
  serve::ServeOptions options;
  options.workers = 2;
  std::vector<std::pair<std::string, std::uint16_t>> peers;
  exchange::ExchangeOptions exchange_options;
  bool auto_persist = false;
  std::chrono::milliseconds io_timeout{0};
  int peer_retries = 2;
  reduce::ReductionConfig reduction;
  reduction.policy = reduce::ReductionPolicy::kCoverage;  // used iff a budget is set
  serve::DriftOptions drift_options;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (util::int_flag(arg, "--port", 1, 65535, port) ||
        util::int_flag(arg, "--workers", 1, 256, options.workers) ||
        util::int_flag(arg, "--max-batch", 1, 65536, options.max_batch) ||
        util::int_flag(arg, "--max-queue", 1, 1 << 24, options.max_queue) ||
        util::int_flag(arg, "--deadline-us", 0, 3'600'000'000LL, options.flush_deadline) ||
        util::int_flag(arg, "--sync-ms", 1, 86'400'000, exchange_options.sync_interval) ||
        util::int_flag(arg, "--io-timeout-ms", 0, 86'400'000, io_timeout) ||
        util::int_flag(arg, "--peer-retries", 0, 100, peer_retries) ||
        util::int_flag(arg, "--refit-budget", 0, 1'000'000, reduction.budget)) {
      continue;
    }
    if (std::strncmp(argv[i], "--store=", 8) == 0) {
      store_dir = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--peer=", 7) == 0) {
      const std::string spec = argv[i] + 7;
      const auto colon = spec.rfind(':');
      long long peer_port = 0;
      if (colon == 0 || colon == std::string::npos ||
          !util::parse_int_in(spec.c_str() + colon + 1, 1, 65535, peer_port)) {
        std::fprintf(stderr, "--peer expects HOST:PORT, got '%s'\n", spec.c_str());
        return 2;
      }
      peers.emplace_back(spec.substr(0, colon), static_cast<std::uint16_t>(peer_port));
    } else if (std::strcmp(argv[i], "--auto-persist") == 0) {
      auto_persist = true;
    } else if (std::strncmp(argv[i], "--refit-policy=", 15) == 0) {
      const auto parsed = reduce::parse_policy(argv[i] + 15);
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "--refit-policy expects uniform | recency | coverage | loss-aware, "
                     "got '%s'\n",
                     argv[i] + 15);
        return 2;
      }
      reduction.policy = *parsed;
    } else if (std::strncmp(argv[i], "--drift-threshold=", 18) == 0) {
      char* end = nullptr;
      drift_options.threshold = std::strtod(argv[i] + 18, &end);
      if (end == argv[i] + 18 || *end != '\0' || !(drift_options.threshold >= 0.0)) {
        std::fprintf(stderr, "--drift-threshold expects a number >= 0, got '%s'\n",
                     argv[i] + 18);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port=N] [--store=DIR] [--workers=N] [--max-batch=N]\n"
                   "          [--deadline-us=N] [--max-queue=N]\n"
                   "          [--peer=HOST:PORT]... [--sync-ms=N] [--io-timeout-ms=N]\n"
                   "          [--peer-retries=N] [--auto-persist] [--refit-budget=N]\n"
                   "          [--refit-policy=NAME] [--drift-threshold=X]\n",
                   argv[0]);
      return 2;
    }
  }

  std::shared_ptr<core::ModelStore> store;
  if (!store_dir.empty()) store = std::make_shared<core::ModelStore>(store_dir);
  serve::ModelRegistry registry = store ? serve::ModelRegistry(store) : serve::ModelRegistry();
  // Before any model is opened/published: entries inherit the default
  // ReductionConfig at creation time.
  if (reduction.budget > 0) registry.set_default_reduction(reduction);
  if (store) {
    for (const std::string& key : store->list()) {
      const auto slash = key.find('/');
      const serve::ModelKey model_key{key.substr(0, slash), key.substr(slash + 1)};
      const auto opened = registry.open(model_key);
      std::fprintf(stderr, "open %s: %s\n", key.c_str(),
                   opened.ok() ? "ok" : opened.error_text().c_str());
    }
  }

  if (auto_persist) {
    if (!store) {
      std::fprintf(stderr, "--auto-persist needs --store=DIR\n");
      return 2;
    }
    registry.set_auto_persist(true);
  }

  serve::PredictionService service(registry, options);

  // The exchange node answers the wire's exchange messages (via
  // ServerOptions::peer_service) and drives this node's outbound gossip; it
  // must outlive the server.  It stamps from the registry's own record of
  // weight changes, so wire publishes and refits, console refits and drift-
  // triggered refits all reach the peers the same way.  It exists even with
  // zero --peer flags — a node must ANSWER digests and pulls to seed peers
  // that dial it; only the outbound sync loop needs peers.
  exchange::ExchangeRegistry exchange_node(registry, exchange_options);
  exchange::TransportOptions transport_options;
  transport_options.io_timeout = io_timeout;
  transport_options.retry.max_attempts = 1 + peer_retries;
  for (const auto& [host, peer_port] : peers) {
    exchange_node.add_peer(
        std::make_shared<exchange::TcpTransport>(host, peer_port, transport_options));
  }

  // Always present so ReportRun works even without --drift-threshold
  // (threshold 0 = monitor only); must outlive the server and any refit it
  // queues.
  serve::DriftMonitor drift_monitor(registry, drift_options);

  net::ServerOptions server_options;
  server_options.port = port;
  server_options.peer_service = &exchange_node;
  server_options.drift_monitor = &drift_monitor;
  server_options.io_timeout = io_timeout;
  net::ServeServer server(registry, service, server_options);
  std::string error;
  if (!server.start(error)) {
    std::fprintf(stderr, "cannot listen on port %u: %s\n", port, error.c_str());
    return 1;
  }
  if (!peers.empty()) exchange_node.start_sync();
  std::fprintf(stderr, "bellamy_serverd: serving %zu model(s) on 127.0.0.1:%u (%zu "
                       "dispatcher worker(s), max_batch %zu, %zu peer(s))\n",
               registry.size(), server.port(), options.workers, options.max_batch,
               exchange_node.peer_count());
  if (reduction.budget > 0) {
    std::fprintf(stderr, "bellamy_serverd: refits reduce history via %s @ budget %zu\n",
                 reduce::policy_name(reduction.policy), reduction.budget);
  }
  std::fprintf(stderr, "bellamy_serverd: drift monitor %s (threshold %.3f)\n",
               drift_options.threshold > 0.0 ? "auto-refit" : "monitor-only",
               drift_options.threshold);

  // The console thread may sit in getline() forever when nothing arrives on
  // stdin; it is detached so a wire-initiated drain can exit the process.
  std::thread console(
      [&] { console_loop(server, registry, service, &drift_monitor, &exchange_node); });
  console.detach();

  server.wait_drained();
  // Stop gossip before the server: a sync round mid-teardown would dial
  // peers and publish into a registry the server still references.
  exchange_node.stop();
  server.stop();
  std::fprintf(stderr, "bellamy_serverd: drained, exiting\n");
  std::fflush(nullptr);
  // _Exit instead of return: the detached console thread may still be parked
  // in getline() holding references to the stack objects above; skipping
  // their destructors (everything is already stopped and joined) is safer
  // than racing it.
  std::_Exit(0);
}
