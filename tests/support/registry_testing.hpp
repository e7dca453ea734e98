#pragma once
// A registry state the public API reaches only in a race.

#include "serve/model_registry.hpp"

namespace bellamy::serve {

/// Register `key` as an entry that has a handle but no weights yet (no base
/// checkpoint, no model, weight version 0): the state a request can race
/// into while a publish or open is still filling a new entry.  Publishes a
/// fresh model, then clears the entry through resolve().
ModelHandle unfitted_entry(ModelRegistry& registry, const ModelKey& key);

}  // namespace bellamy::serve
