#pragma once
// ServeServer: the TCP front door over ModelRegistry + PredictionService.
//
// Threading model — deliberately boring, so the backpressure story is
// auditable:
//
//   * ONE accept thread hands each connection to
//   * ONE reader thread per connection: reads frames, decodes requests,
//     dispatches.  Predict traffic calls PredictionService::predict_async,
//     which BLOCKS when the handle's bounded lane is full — service-level
//     backpressure propagates to exactly the connections producing it.
//   * ONE writer thread per connection: pops a bounded outbound queue in
//     FIFO order.  Predict entries carry futures; the writer harvests them
//     (waiting for the micro-batch) and encodes responses.  A SLOW CLIENT
//     fills its own outbound queue and blocks only its own reader — other
//     connections never notice.
//
// Responses to request-driven traffic leave in request order.  Two message
// classes are event-style instead:
//
//   * RefitResponse is pushed when the background refit completes (the
//     registry's on_complete callback, bounced off a weak_ptr so a closed
//     connection drops the event instead of resurrecting itself);
//   * DrainResponse is written only after every response queued before it
//     has been flushed.
//
// Graceful drain (wire DrainRequest or begin_drain()): stop accepting,
// PredictionService::stop() — which by contract resolves EVERY accepted
// request — then flush-and-close every connection.  Nothing accepted is
// lost, nothing is answered twice.
//
// Protocol errors (malformed frame, version mismatch, unknown type) close
// the offending connection: a peer speaking the wrong protocol cannot be
// answered in the right one.  parse errors are counted in ServerStats.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "serve/drift_monitor.hpp"
#include "serve/model_registry.hpp"
#include "serve/prediction_service.hpp"

namespace bellamy::net {

/// Server-side hook for the exchange layer (src/exchange/): answers the
/// node-to-node wire messages (digest / pull / advertise) and supplies the
/// pull-on-miss path for serving traffic.  Implemented by
/// exchange::ExchangeRegistry, which learns of local weight changes from the
/// registry itself; the server stays ignorant of sync policy.  All methods
/// must be thread-safe — they are called from per-connection reader
/// threads.  on_advertise() must not block on peer I/O (schedule the
/// follow-up pulls instead); open_on_miss() MAY block on peer I/O, which
/// stalls only the requesting connection's reader.
class PeerService {
 public:
  virtual ~PeerService() = default;
  /// This node's catalog, served to a DigestRequest.
  virtual std::vector<DigestEntry> digest_entries() = 0;
  /// Serve a PullRequest: catalog stamp + checkpoint text for `key`.
  virtual serve::ServeResult<PulledCheckpoint> pull_model(const serve::ModelKey& key) = 0;
  /// A peer pushed its catalog at us (fire-and-forget gossip).
  virtual void on_advertise(const std::vector<DigestEntry>& entries) = 0;
  /// A request referenced a key unknown to the local registry: try to
  /// materialize it off a peer (pull-on-miss warm start).
  virtual serve::ServeResult<serve::ModelHandle> open_on_miss(const serve::ModelKey& key) = 0;
};

struct ServerOptions {
  /// Port to listen on (loopback only); 0 = kernel-assigned ephemeral port,
  /// readable via port() after start().
  std::uint16_t port = 0;
  /// Optional exchange-layer hook.  Null = this node answers digest/pull/
  /// advertise with kInvalidArgument and misses stay misses.  Must outlive
  /// the server.
  PeerService* peer_service = nullptr;
  /// Optional drift monitor answering ReportRunRequest (observed-runtime
  /// feedback -> error EWMA -> auto-queued reduced refits).  Null = the
  /// report_run path answers kInvalidArgument.  Must outlive the server.
  serve::DriftMonitor* drift_monitor = nullptr;
  /// Stall budget of every read and write on an accepted connection; 0 (the
  /// default) = wait forever.  An idle client is fine — the reader waits for
  /// the FIRST byte of a frame without budget — but a peer that goes silent
  /// mid-frame, or stops draining its responses, is cut off after it.
  std::chrono::milliseconds io_timeout{0};
};

/// Monotonic counters; draining flips once and stays.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t accept_retries = 0;  ///< transient accept failures survived
  std::uint64_t io_timeouts = 0;     ///< connections cut for stalling mid-frame
  bool draining = false;
};

class ServeServer {
 public:
  /// Registry and service must outlive the server.
  ServeServer(serve::ModelRegistry& registry, serve::PredictionService& service,
              ServerOptions options = {});
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Bind + listen + start accepting.  False (with the reason in `error`)
  /// when the port is taken.
  bool start(std::string& error);

  /// Actual listening port (after start()).
  std::uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, drain the service (every accepted
  /// request resolves), then flush-and-close every connection.  Returns
  /// after the service drain; connections finish asynchronously —
  /// wait_drained() blocks for them.  Idempotent; also triggered by a wire
  /// DrainRequest.
  void begin_drain();

  /// Block until begin_drain() has happened AND every connection closed.
  void wait_drained();

  /// begin_drain() + force-close all sockets + join every thread.
  /// Idempotent; the destructor calls it.
  void stop();

  ServerStats stats() const;

 private:
  struct Connection;

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void writer_loop(const std::shared_ptr<Connection>& conn);
  /// Decode + dispatch one frame body; false = protocol error, close.
  bool dispatch(const std::shared_ptr<Connection>& conn, const FrameView& frame);
  /// registry_.find, falling back to PeerService::open_on_miss for serving
  /// traffic when an exchange layer is attached (pull-on-miss).
  serve::ServeResult<serve::ModelHandle> resolve_key(const serve::ModelKey& key);
  /// Encode `resp` and queue it on `conn` (pipeline-bounded); false when the
  /// connection is closing.
  template <typename Resp>
  bool reply(const std::shared_ptr<Connection>& conn, const Resp& resp);
  /// Count a protocol violation; returns false for `return protocol_error();`.
  bool protocol_error();
  /// Join and drop connections that finished (accept thread + stop only).
  void reap_connections(bool join_all);
  void note_connection_closed();

  serve::ModelRegistry& registry_;
  serve::PredictionService& service_;
  ServerOptions options_;

  Socket listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex mutex_;  ///< guards connections_ and drain bookkeeping
  std::condition_variable drained_cv_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::atomic<bool> draining_{false};
  std::once_flag drain_once_;
  std::once_flag stop_once_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> open_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> accept_retries_{0};
  std::atomic<std::uint64_t> io_timeouts_{0};
};

}  // namespace bellamy::net
