#include "exchange/tcp_transport.hpp"

#include <utility>

namespace bellamy::exchange {

TcpTransport::TcpTransport(std::string host, std::uint16_t port, TransportOptions options)
    : host_(std::move(host)), port_(port), options_(std::move(options)) {}

std::shared_ptr<net::NetClient> TcpTransport::ensure_connected(std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (client_ && client_->connected()) return client_;
  net::ClientOptions client_options;
  client_options.io_timeout = options_.io_timeout;
  auto fresh = std::make_shared<net::NetClient>(std::move(client_options));
  if (!fresh->connect(host_, port_, error)) return nullptr;
  client_ = std::move(fresh);
  return client_;
}

void TcpTransport::drop(const std::shared_ptr<net::NetClient>& client) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (client_ == client) client_.reset();
}

serve::ServeResult<std::vector<DigestEntry>> TcpTransport::digest() {
  return with_retry<std::vector<DigestEntry>>(
      [](net::NetClient& client) { return client.digest(); });
}

serve::ServeResult<PulledCheckpoint> TcpTransport::pull(const serve::ModelKey& key) {
  return with_retry<PulledCheckpoint>(
      [&key](net::NetClient& client) { return client.pull_model(key); });
}

serve::ServeResult<serve::Unit> TcpTransport::advertise(
    const std::vector<DigestEntry>& entries) {
  return with_retry<serve::Unit>(
      [&entries](net::NetClient& client) { return client.advertise(entries); });
}

std::string TcpTransport::name() const { return host_ + ":" + std::to_string(port_); }

}  // namespace bellamy::exchange
