// Deadline and robustness tests for the socket/client layer:
//
//   * THE acceptance invariant of the deadline work: a peer that accepts a
//     connection and then never responds costs a typed kTimeout within 2x
//     the configured request budget — never a hung caller,
//   * a checksum-valid response too short to carry a request id fails the
//     pending request even with no request budget set,
//   * read/write stall budgets on raw sockets return kTimeout,
//   * a write to a peer that closed returns kClosed and cannot kill the
//     process via SIGPIPE.
//
// Runs under ASan/UBSan in CI (label "net").

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/socket.hpp"

namespace bellamy::net {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// A listener that ACCEPTS every connection and then sits on it forever —
/// the silent-peer fixture.  Sockets are parked until teardown.
struct SilentPeer {
  SilentPeer() {
    std::string error;
    listener = tcp_listen(0, port, error);
    if (!listener) throw std::runtime_error("listen: " + error);
    acceptor = std::thread([this] {
      while (true) {
        Socket accepted = tcp_accept(listener);
        if (!accepted) break;
        std::lock_guard<std::mutex> lock(mutex);
        parked.push_back(std::move(accepted));
      }
    });
  }

  ~SilentPeer() {
    listener.shutdown_both();
    acceptor.join();
    listener.close();
  }

  Socket listener;
  std::uint16_t port = 0;
  std::thread acceptor;
  std::mutex mutex;
  std::vector<Socket> parked;
};

/// A peer that answers the first request with a checksum-valid
/// kPredictResponse frame whose 4-byte payload cannot hold the u64 request
/// id, then holds the connection open: only the runt frame itself can
/// resolve the client's pending request.
struct RuntResponder {
  RuntResponder() {
    std::string error;
    listener = tcp_listen(0, port, error);
    if (!listener) throw std::runtime_error("listen: " + error);
    responder = std::thread([this] {
      Socket conn = tcp_accept(listener);
      if (!conn) return;
      std::uint32_t len = 0;
      if (conn.read_exact(reinterpret_cast<std::uint8_t*>(&len), sizeof len) != IoStatus::kOk)
        return;
      std::vector<std::uint8_t> request(len);
      if (conn.read_exact(request.data(), len) != IoStatus::kOk) return;
      WireWriter w;
      w.u32(4 + 4 + kFrameChecksumBytes);  // version + type, payload, trailer
      w.u16(kWireVersion);
      w.u16(static_cast<std::uint16_t>(MsgType::kPredictResponse));
      w.u32(0xDEADBEEFu);  // the runt payload
      w.u64(util::fnv1a64_bytes(w.bytes().data() + 4, w.size() - 4));
      conn.write_all(w.bytes().data(), w.size());
      release.get_future().wait();
    });
  }

  ~RuntResponder() {
    release.set_value();
    listener.shutdown_both();
    responder.join();
    listener.close();
  }

  Socket listener;
  std::uint16_t port = 0;
  std::promise<void> release;
  std::thread responder;
};

TEST(Deadline, SilentPeerCostsTypedTimeoutWithinTwiceTheBudget) {
  SilentPeer peer;

  ClientOptions options;
  options.io_timeout = milliseconds(500);
  NetClient client(options);
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", peer.port, error)) << error;

  const auto t0 = steady_clock::now();
  const auto result = client.predict({"sgd", "ctx"}, data::JobRun{});
  const auto elapsed =
      std::chrono::duration_cast<milliseconds>(steady_clock::now() - t0);

  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status(), serve::ServeStatus::kTimeout) << result.message();
  // The acceptance bound: resolved within 2x the configured deadline.
  EXPECT_LT(elapsed.count(), 1000) << "timeout detection took " << elapsed.count() << "ms";
  EXPECT_GE(elapsed.count(), 450);  // and not before the budget elapsed

  client.close();
}

TEST(Deadline, PipelinedRequestsAllTimeOutIndependently) {
  SilentPeer peer;

  ClientOptions options;
  options.io_timeout = milliseconds(300);
  NetClient client(options);
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", peer.port, error)) << error;

  std::vector<std::future<serve::ServeResult<double>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(client.predict_async({"sgd", "ctx"}, data::JobRun{}));
  }
  const auto t0 = steady_clock::now();
  for (auto& future : futures) {
    const auto result = future.get();
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status(), serve::ServeStatus::kTimeout);
  }
  const auto elapsed =
      std::chrono::duration_cast<milliseconds>(steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 1500);  // concurrently, not 8 x 300ms serially

  client.close();
}

TEST(Robustness, RuntResponseFailsThePendingRequestWithoutABudget) {
  RuntResponder peer;
  NetClient client;  // default options: no request budget, nothing expires
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", peer.port, error)) << error;

  auto future = client.predict_async({"sgd", "ctx"}, data::JobRun{});
  const bool resolved = future.wait_for(milliseconds(2000)) == std::future_status::ready;
  ASSERT_TRUE(resolved) << "a runt response left the pending request hanging";
  const auto result = future.get();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status(), serve::ServeStatus::kShutdown) << result.message();
  EXPECT_FALSE(client.connected());
}

TEST(Deadline, ReadStallBudgetReturnsTimeout) {
  SilentPeer peer;
  std::string error;
  Socket sock = tcp_connect("127.0.0.1", peer.port, milliseconds(2000), error);
  ASSERT_TRUE(sock) << error;

  sock.set_io_timeout(milliseconds(150));

  std::uint8_t byte = 0;
  const auto t0 = steady_clock::now();
  EXPECT_EQ(sock.read_exact(&byte, 1), IoStatus::kTimeout);
  const auto elapsed =
      std::chrono::duration_cast<milliseconds>(steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 140);
  EXPECT_LT(elapsed.count(), 1000);
}

TEST(Deadline, WriteStallBudgetReturnsTimeoutWhenThePeerNeverReads) {
  SilentPeer peer;
  std::string error;
  Socket sock = tcp_connect("127.0.0.1", peer.port, milliseconds(2000), error);
  ASSERT_TRUE(sock) << error;

  sock.set_io_timeout(milliseconds(150));

  // Far more than loopback buffering absorbs: the send buffer fills, the
  // peer never drains it, and the stall budget fires.
  const std::vector<std::uint8_t> payload(64 * 1024 * 1024, 0xAB);
  EXPECT_EQ(sock.write_all(payload.data(), payload.size()), IoStatus::kTimeout);
}

TEST(Deadline, WaitReadableHonorsTimeoutAndForever) {
  SilentPeer peer;
  std::string error;
  Socket sock = tcp_connect("127.0.0.1", peer.port, milliseconds(2000), error);
  ASSERT_TRUE(sock) << error;

  EXPECT_EQ(sock.wait_readable(milliseconds(50)), IoStatus::kTimeout);

  // kWaitForever returns as soon as the stream has an event (here: EOF
  // after a local shutdown from another thread).
  std::thread closer([&] {
    std::this_thread::sleep_for(milliseconds(50));
    sock.shutdown_both();
  });
  EXPECT_EQ(sock.wait_readable(kWaitForever), IoStatus::kOk);
  closer.join();
}

TEST(Robustness, WriteToClosedPeerReturnsClosedWithoutSigpipeDeath) {
  std::string error;
  std::uint16_t port = 0;
  Socket listener = tcp_listen(0, port, error);
  ASSERT_TRUE(listener) << error;

  Socket client = tcp_connect("127.0.0.1", port, milliseconds(2000), error);
  ASSERT_TRUE(client) << error;
  {
    Socket accepted = tcp_accept(listener);
    ASSERT_TRUE(accepted);
    // accepted closes here: the peer is gone.
  }

  // Keep writing until the kernel notices the dead peer (the first write
  // after the RST raises EPIPE — which must surface as kClosed, not as a
  // SIGPIPE that kills the test binary).
  const std::vector<std::uint8_t> chunk(64 * 1024, 0x5A);
  IoStatus status = IoStatus::kOk;
  for (int i = 0; i < 64 && status == IoStatus::kOk; ++i) {
    status = client.write_all(chunk.data(), chunk.size());
  }
  EXPECT_EQ(status, IoStatus::kClosed);
}

}  // namespace
}  // namespace bellamy::net
