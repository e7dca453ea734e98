#include "support/fault_proxy.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <utility>

namespace bellamy::net {

FaultProxy::FaultProxy(std::uint16_t upstream_port, std::shared_ptr<FaultInjector> faults)
    : upstream_port_(upstream_port), faults_(std::move(faults)) {}

FaultProxy::~FaultProxy() { stop(); }

bool FaultProxy::start(std::string& error) {
  listener_ = tcp_listen(0, port_, error);
  if (!listener_) return false;
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void FaultProxy::accept_loop() {
  while (!stopping_.load()) {
    AcceptStatus status = AcceptStatus::kOk;
    Socket down = tcp_accept(listener_, &status);
    if (!down) {
      if (status != AcceptStatus::kTransient) return;  // listener shut down
      // Resource pressure (EMFILE, ECONNABORTED, ...): back off and retry,
      // as ServeServer's accept loop does.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    std::string error;
    Socket up = tcp_connect("127.0.0.1", upstream_port_, error);
    if (!up) continue;  // upstream gone: the client sees its stream close
    reap(false);
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_.load()) return;
    auto link = std::make_unique<Link>();
    link->down = std::move(down);
    link->up = std::move(up);
    Link& l = *link;
    l.to_up = std::thread([this, &l] { pump(l.down, l.up, l); });
    l.to_down = std::thread([this, &l] { pump(l.up, l.down, l); });
    links_.push_back(std::move(link));
  }
}

void FaultProxy::pump(const Socket& from, const Socket& to, Link& link) {
  std::vector<std::uint8_t> buf(64 * 1024);
  while (true) {
    const ssize_t n = ::recv(from.fd(), buf.data(), buf.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, reset, or the link was cut
    std::size_t size = static_cast<std::size_t>(n);
    bool cut = false;
    const Fault fault = faults_->next();
    switch (fault.kind) {
      case FaultKind::kNone: break;
      case FaultKind::kDelay: std::this_thread::sleep_for(fault.delay); break;
      case FaultKind::kDrop: continue;
      case FaultKind::kTruncate:
        size /= 2;
        cut = true;
        break;
      case FaultKind::kGarble: faults_->garble(buf.data(), size); break;
      case FaultKind::kDisconnect:
        size = 0;
        cut = true;
        break;
    }
    if (size > 0 && to.write_all(buf.data(), size) != IoStatus::kOk) break;
    if (cut) break;
  }
  // One direction over means the connection is over: the other pump's recv
  // returns once both sockets are shut down.
  link.cut();
  link.pumps_done.fetch_add(1);
}

void FaultProxy::reap(bool all) {
  std::vector<std::unique_ptr<Link>> done;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = links_.begin(); it != links_.end();) {
      if (all || (*it)->pumps_done.load() == 2) {
        done.push_back(std::move(*it));
        it = links_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& link : done) {
    link->cut();
    link->to_up.join();
    link->to_down.join();
  }
}

void FaultProxy::stop() {
  if (stopping_.exchange(true)) return;
  listener_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();
  reap(true);
  listener_.close();
}

}  // namespace bellamy::net
