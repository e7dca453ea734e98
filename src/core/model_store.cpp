#include "core/model_store.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

namespace fs = std::filesystem;

namespace bellamy::core {

namespace {
constexpr const char* kExtension = ".bellamy";
}

ModelStore::ModelStore(std::string directory) : directory_(std::move(directory)) {
  fs::create_directories(directory_);
}

void ModelStore::validate_key_part(const std::string& part, const char* what) {
  if (part.empty()) throw std::invalid_argument(std::string("ModelStore: empty ") + what);
  for (char c : part) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) {
      throw std::invalid_argument(std::string("ModelStore: invalid character in ") + what +
                                  " '" + part + "'");
    }
  }
}

std::string ModelStore::path_for(const std::string& algorithm, const std::string& tag) const {
  validate_key_part(algorithm, "algorithm");
  validate_key_part(tag, "tag");
  return (fs::path(directory_) / (algorithm + "__" + tag + kExtension)).string();
}

void ModelStore::save(const BellamyModel& model, const std::string& algorithm,
                      const std::string& tag) {
  const std::string path = path_for(algorithm, tag);
  // Crash-safe: write the checkpoint to a temp file in the SAME directory
  // (rename is only atomic within a filesystem), then rename over the
  // target.  A crash mid-write leaves the previous checkpoint intact; a
  // reader never observes a half-written file.
  const std::string temp = path + ".tmp";
  try {
    model.to_checkpoint().save_file(temp);
    fs::rename(temp, path);
  } catch (const std::exception& e) {
    std::error_code discard;
    fs::remove(temp, discard);
    throw std::runtime_error("ModelStore::save: cannot write '" + algorithm + "/" + tag +
                             "' (temp " + temp + ", target " + path + "): " + e.what());
  }
}

BellamyModel ModelStore::load(const std::string& algorithm, const std::string& tag) const {
  return BellamyModel::from_checkpoint(load_checkpoint(algorithm, tag));
}

nn::Checkpoint ModelStore::load_checkpoint(const std::string& algorithm,
                                           const std::string& tag) const {
  const std::string path = path_for(algorithm, tag);
  if (!fs::exists(path)) {
    throw std::runtime_error("ModelStore::load: no model for '" + algorithm + "/" + tag +
                             "' (expected " + path + ")");
  }
  try {
    return nn::Checkpoint::load_file(path);
  } catch (const std::exception& e) {
    throw std::runtime_error("ModelStore::load: cannot read '" + algorithm + "/" + tag +
                             "' from " + path + ": " + e.what());
  }
}

bool ModelStore::contains(const std::string& algorithm, const std::string& tag) const {
  return fs::exists(path_for(algorithm, tag));
}

void ModelStore::remove(const std::string& algorithm, const std::string& tag) {
  fs::remove(path_for(algorithm, tag));
}

std::vector<std::string> ModelStore::list() const {
  std::vector<std::string> keys;
  if (!fs::exists(directory_)) return keys;
  for (const auto& entry : fs::directory_iterator(directory_)) {
    if (!entry.is_regular_file() || entry.path().extension() != kExtension) continue;
    std::string stem = entry.path().stem().string();
    const auto sep = stem.find("__");
    if (sep == std::string::npos) continue;
    keys.push_back(stem.substr(0, sep) + "/" + stem.substr(sep + 2));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace bellamy::core
