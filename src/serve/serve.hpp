#pragma once
// bellamy::serve — the repo's serving front door.
//
//   ModelStore (disk)  ->  ModelRegistry (handles, hot-swap of one shared,
//   immutable model per handle)  ->  PredictionService (micro-batching)
//
// Typical wiring:
//
//   auto store = std::make_shared<core::ModelStore>("/models");
//   serve::ModelRegistry registry(store);
//   serve::PredictionService service(registry);          // default config
//
//   auto handle = registry.open({"sgd", "c3o-v1"}).unwrap();   // or publish()
//   service.set_qos(handle, {QosClass::kInteractive, 4.0}).expect();
//   auto refit = registry.refit_async(handle, observed, fine); // background
//   double seconds = service.predict(handle, query).unwrap();  // any thread
//
// Every operation returns a ServeResult instead of throwing.  The evaluation
// harness and the resource selector do not go through this layer: they call
// the exception-based data::RuntimeModel interface (fit / predict_batch)
// directly, Bellamy through core::BellamyPredictor; a refit and
// BellamyPredictor::fit run one reuse recipe (core::reuse_pretrained).  The
// scheduler (static flush deadline, QoS lanes, cross-handle EDF dispatch,
// background refits) is documented in docs/ARCHITECTURE.md.
//
// The service must be stopped/destroyed before the registry, and the
// registry before the store.

#include "serve/drift_monitor.hpp"       // IWYU pragma: export
#include "serve/model_registry.hpp"      // IWYU pragma: export
#include "serve/prediction_service.hpp"  // IWYU pragma: export
#include "serve/serve_result.hpp"        // IWYU pragma: export
