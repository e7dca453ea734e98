#include "support/registry_testing.hpp"

#include <mutex>

namespace bellamy::serve {

ModelHandle unfitted_entry(ModelRegistry& registry, const ModelKey& key) {
  const ModelHandle handle =
      registry.publish(key, core::BellamyModel(core::BellamyConfig{}, 1)).unwrap();
  const auto entry = registry.resolve(handle);
  std::lock_guard<std::mutex> lock(entry->mutex);
  entry->base.reset();
  entry->model.reset();
  entry->version = 0;
  return handle;
}

}  // namespace bellamy::serve
