#include "exchange/transport.hpp"

namespace bellamy::exchange {

bool is_transport_failure(serve::ServeStatus status) {
  return status == serve::ServeStatus::kShutdown ||
         status == serve::ServeStatus::kInternalError ||
         status == serve::ServeStatus::kTimeout;
}

}  // namespace bellamy::exchange
