#pragma once
// NetClient: the typed client of the Bellamy wire protocol.
//
// One TCP connection, full-duplex: a send mutex serializes frame writes, a
// background reader thread correlates every inbound response to its pending
// request by request_id.  That makes the client PIPELINED by construction —
// predict_async() keeps any number of requests in flight (the loadgen's
// closed-loop windows), while the sync calls are just async + wait.
//
// Error contract mirrors the serve layer: every operation returns a
// ServeResult.  Server-side failures arrive as the response's ServeStatus;
// transport failures (connection lost, protocol garbage) surface as
// kShutdown / kInternalError with the transport reason in the message, and
// a lost connection fails ALL pending requests — nothing hangs.
//
// DEADLINES (ClientOptions::io_timeout): one budget bounds the dial, every
// socket stall, and each request end to end — a request whose response has
// not been matched within it fails with the typed kTimeout (the eventual
// late response, if any, is dropped by id).  Expiry is checked at budget
// granularity, so a timed-out request resolves within 2x the budget in the
// worst case.  The socket stall bound matters as much as the request one:
// without it a mid-frame stall (e.g. a corrupted length prefix) would park
// the reader, and with it every pending deadline.  connect() dials once;
// redialing is the caller's policy (exchange::TcpTransport::with_retry).
//
// refit() is synchronous from the caller's view but non-blocking on the
// server: the RefitResponse is pushed when the background fine-tune lands,
// and may arrive long after (and out of order with) later predict traffic.

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/bellamy_model.hpp"
#include "core/trainer.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "serve/drift_monitor.hpp"
#include "serve/model_registry.hpp"
#include "serve/prediction_service.hpp"
#include "serve/serve_result.hpp"

namespace bellamy::net {

struct ClientOptions {
  /// Budget of the dial, of every socket stall and of each request end to
  /// end; 0 (the default) = unbounded.
  std::chrono::milliseconds io_timeout{0};
};

class NetClient {
 public:
  NetClient() = default;
  explicit NetClient(ClientOptions options) : options_(std::move(options)) {}
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connect to host:port (hostname or numeric address; resolved via
  /// getaddrinfo, IPv4 preferred), bounded by the I/O timeout.  False
  /// with the reason in `error`.  A NetClient connects once; make a new one
  /// to reconnect.
  bool connect(const std::string& host, std::uint16_t port, std::string& error);
  bool connected() const;

  /// Close the connection; every pending request fails with kShutdown.
  /// Idempotent; the destructor calls it.
  void close();

  // -- serving calls (any thread; sync calls block until the response) --

  serve::ServeResult<double> predict(const serve::ModelKey& key, const data::JobRun& query);
  std::future<serve::ServeResult<double>> predict_async(const serve::ModelKey& key,
                                                        const data::JobRun& query);
  serve::ServeResult<std::vector<double>> predict_many(
      const serve::ModelKey& key, const std::vector<data::JobRun>& queries);
  std::future<serve::ServeResult<std::vector<double>>> predict_many_async(
      const serve::ModelKey& key, const std::vector<data::JobRun>& queries);

  /// Serialize the model's checkpoint and install it under `key` on the
  /// server (same text format as the ModelStore: the server-side model is
  /// bit-identical to `model`).
  serve::ServeResult<serve::Unit> publish(const serve::ModelKey& key,
                                          const core::BellamyModel& model);

  /// Queue a background refit on the server and WAIT for its completion
  /// event.  Other traffic on this connection proceeds meanwhile.
  serve::ServeResult<core::FineTuneResult> refit(
      const serve::ModelKey& key, const std::vector<data::JobRun>& runs,
      const core::FineTuneConfig& config,
      core::ReuseStrategy strategy = core::ReuseStrategy::kPartialUnfreeze);

  serve::ServeResult<serve::ServeMetrics> metrics(const serve::ModelKey& key);

  /// Report an OBSERVED runtime for `key` (run.runtime_s = ground truth):
  /// feeds the server's drift monitor, which may auto-queue a reduced refit.
  /// kInvalidArgument when the server has no drift monitor configured.
  serve::ServeResult<serve::DriftObservation> report_run(const serve::ModelKey& key,
                                                         const data::JobRun& run);
  serve::ServeResult<serve::Unit> set_qos(const serve::ModelKey& key,
                                          const serve::HandleQos& qos);
  serve::ServeResult<serve::Unit> erase(const serve::ModelKey& key);

  /// Ask the server to drain: resolves once the DrainResponse arrives,
  /// i.e. after every response this connection was owed has been received.
  serve::ServeResult<serve::Unit> drain();

  // -- exchange calls (node-to-node checkpoint gossip; the server answers
  //    kInvalidArgument when it has no exchange layer attached) --

  /// The peer's catalog: every (key, stamp) it can serve a pull for.
  serve::ServeResult<std::vector<DigestEntry>> digest();

  /// Fetch the peer's current checkpoint for `key` (stamp + exact text).
  serve::ServeResult<PulledCheckpoint> pull_model(const serve::ModelKey& key);

  /// Push this node's catalog at the peer (anti-entropy gossip).
  serve::ServeResult<serve::Unit> advertise(const std::vector<DigestEntry>& entries);

 private:
  /// Delivery hook of one pending request: called with the response frame,
  /// or with nullptr and the typed failure (kShutdown: connection died;
  /// kTimeout: the request budget elapsed) when no response will come.
  using Deliver = std::function<void(const FrameView*, serve::ServeStatus)>;

  struct Pending {
    Deliver deliver;
    std::chrono::steady_clock::time_point deadline;  ///< max() = no budget
  };

  std::uint64_t next_id();
  /// Register `deliver` under a fresh id, send the frame.  On send failure
  /// the hook fires immediately with nullptr.
  template <typename Req>
  void send_request(Req& req, Deliver deliver);
  /// Every serving call: send `req`, and resolve the future with
  /// convert(Resp&) on an ok response, the head's status on a server-side
  /// failure, kInternalError on an undecodable response, or the transport
  /// failure (kShutdown / kTimeout).
  template <typename Resp, typename Req, typename Convert>
  auto call(Req req, Convert convert)
      -> std::future<serve::ServeResult<std::invoke_result_t<Convert&, Resp&>>>;
  void reader_loop();
  /// How long the reader may sleep before the nearest pending deadline.
  std::chrono::milliseconds reader_wait() const;
  /// Fail pending requests whose deadline passed with kTimeout.
  void expire_overdue();
  /// Fail every pending request (connection lost / read stalled out).
  void fail_all_pending(serve::ServeStatus status);

  ClientOptions options_;
  Socket sock_;
  std::thread reader_;
  mutable std::mutex send_mutex_;   ///< serializes frame writes
  mutable std::mutex state_mutex_;  ///< guards pending_ / open_
  std::map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;
  bool open_ = false;
};

}  // namespace bellamy::net
