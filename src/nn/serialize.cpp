#include "nn/serialize.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace bellamy::nn {

namespace {
constexpr const char* kMagic = "bellamy-checkpoint v1";

std::string double_to_hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

double hex_to_double(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    throw std::runtime_error("Checkpoint: cannot parse float '" + s + "'");
  }
  return v;
}
}  // namespace

void Checkpoint::save(std::ostream& out) const {
  out << kMagic << '\n';
  out << "meta " << meta.size() << '\n';
  for (const auto& [k, v] : meta) {
    if (k.find_first_of(" \t\n") != std::string::npos) {
      throw std::invalid_argument("Checkpoint: meta key '" + k + "' contains whitespace");
    }
    if (v.find('\n') != std::string::npos) {
      throw std::invalid_argument("Checkpoint: meta value for '" + k + "' contains newline");
    }
    out << k << '\t' << v << '\n';
  }
  out << "matrices " << matrices.size() << '\n';
  for (const auto& [name, m] : matrices) {
    if (name.find_first_of(" \t\n") != std::string::npos) {
      throw std::invalid_argument("Checkpoint: matrix name '" + name + "' contains whitespace");
    }
    out << name << ' ' << m.rows() << ' ' << m.cols() << '\n';
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        if (c) out << ' ';
        out << double_to_hex(m(r, c));
      }
      out << '\n';
    }
  }
}

void Checkpoint::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Checkpoint::save_file: cannot open '" + path + "'");
  save(out);
  if (!out) throw std::runtime_error("Checkpoint::save_file: write failed for '" + path + "'");
}

Checkpoint Checkpoint::load(std::istream& in) {
  Checkpoint ckpt;
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    throw std::runtime_error("Checkpoint::load: bad magic line");
  }
  std::size_t n_meta = 0;
  in >> line >> n_meta;
  if (line != "meta") throw std::runtime_error("Checkpoint::load: expected 'meta'");
  in.ignore();  // rest of line
  for (std::size_t i = 0; i < n_meta; ++i) {
    if (!std::getline(in, line)) throw std::runtime_error("Checkpoint::load: truncated meta");
    const auto tab = line.find('\t');
    if (tab == std::string::npos) throw std::runtime_error("Checkpoint::load: malformed meta");
    ckpt.meta[line.substr(0, tab)] = line.substr(tab + 1);
  }
  std::size_t n_matrices = 0;
  in >> line >> n_matrices;
  if (line != "matrices") throw std::runtime_error("Checkpoint::load: expected 'matrices'");
  for (std::size_t i = 0; i < n_matrices; ++i) {
    std::string name;
    std::size_t rows = 0;
    std::size_t cols = 0;
    if (!(in >> name >> rows >> cols)) {
      throw std::runtime_error("Checkpoint::load: truncated matrix header");
    }
    if (cols != 0 && rows > std::numeric_limits<std::size_t>::max() / cols) {
      throw std::runtime_error("Checkpoint::load: matrix '" + name + "' shape " +
                               std::to_string(rows) + "x" + std::to_string(cols) +
                               " overflows");
    }
    // Grown value by value, so a header cannot reserve memory the text does
    // not back with values.
    std::vector<double> values;
    std::string tok;
    for (std::size_t j = 0; j < rows * cols; ++j) {
      if (!(in >> tok)) throw std::runtime_error("Checkpoint::load: truncated matrix data");
      values.push_back(hex_to_double(tok));
    }
    ckpt.matrices.emplace(std::move(name), Matrix(rows, cols, std::move(values)));
  }
  return ckpt;
}

Checkpoint Checkpoint::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Checkpoint::load_file: cannot open '" + path + "'");
  return load(in);
}

const Matrix& Checkpoint::matrix(const std::string& name) const {
  const auto it = matrices.find(name);
  if (it == matrices.end()) {
    throw std::runtime_error("Checkpoint: missing matrix '" + name + "'");
  }
  return it->second;
}

const std::string& Checkpoint::meta_value(const std::string& key) const {
  const auto it = meta.find(key);
  if (it == meta.end()) throw std::runtime_error("Checkpoint: missing meta '" + key + "'");
  return it->second;
}

void store_parameters(Checkpoint& ckpt, Module& module) {
  for (Parameter* p : module.parameters()) {
    if (ckpt.matrices.count(p->name)) {
      throw std::runtime_error("store_parameters: duplicate parameter name '" + p->name + "'");
    }
    ckpt.matrices.emplace(p->name, p->value);
  }
}

void restore_parameters(const Checkpoint& ckpt, Module& module) {
  for (Parameter* p : module.parameters()) {
    const Matrix& stored = ckpt.matrix(p->name);
    if (!stored.same_shape(p->value)) {
      throw std::runtime_error("restore_parameters: shape mismatch for '" + p->name + "': " +
                               stored.shape_str() + " vs " + p->value.shape_str());
    }
    p->value = stored;
    p->zero_grad();
  }
}

}  // namespace bellamy::nn
