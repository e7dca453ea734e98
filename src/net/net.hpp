#pragma once
// bellamy::net — the serving stack's network front-end.
//
//   wire.hpp    versioned, typed, length-prefixed binary protocol
//   socket.hpp  RAII POSIX TCP (listen / connect / exact I/O)
//   server.hpp  ServeServer: multi-client TCP listener over
//               ModelRegistry + PredictionService
//   client.hpp  NetClient: pipelined typed client (sync + async)
//
// Typical wiring (what apps/bellamy_serverd.cpp does):
//
//   serve::ModelRegistry registry(store);
//   serve::PredictionService service(registry, options);
//   net::ServeServer server(registry, service, {.port = 7113});
//   std::string err;
//   if (!server.start(err)) die(err);
//   server.wait_drained();         // until a wire DrainRequest (or console)
//
// and the client side (what apps/bellamy_loadgen.cpp does):
//
//   net::NetClient client;
//   client.connect("127.0.0.1", 7113, err);
//   client.publish({"sgd", "prod"}, model).expect();
//   double seconds = client.predict({"sgd", "prod"}, query).unwrap();
//
// The server must be stopped/destroyed before the service, the service
// before the registry (same ordering rule as the in-process stack).

#include "net/client.hpp"          // IWYU pragma: export
#include "net/server.hpp"          // IWYU pragma: export
#include "net/socket.hpp"          // IWYU pragma: export
#include "net/wire.hpp"            // IWYU pragma: export
