#include "nn/sequential.hpp"

namespace bellamy::nn {

const Matrix& Sequential::forward(const Matrix& input) {
  if (modules_.empty()) {
    output_ = input;
    return output_;
  }
  const Matrix* x = &input;
  for (auto& m : modules_) x = &m->forward(*x);
  return *x;
}

Matrix Sequential::infer(const Matrix& input) const {
  Matrix x = input;
  for (const auto& m : modules_) x = m->infer(x);
  return x;
}

const Matrix& Sequential::backward(const Matrix& grad_output) {
  if (modules_.empty()) {
    grad_input_ = grad_output;
    return grad_input_;
  }
  const Matrix* g = &grad_output;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) g = &(*it)->backward(*g);
  return *g;
}

void Sequential::backward_params(const Matrix& grad_output) {
  std::size_t lowest = 0;
  while (lowest < modules_.size() && !modules_[lowest]->has_trainable()) ++lowest;
  if (lowest == modules_.size()) return;
  const Matrix* g = &grad_output;
  for (std::size_t i = modules_.size() - 1; i > lowest; --i) g = &modules_[i]->backward(*g);
  modules_[lowest]->backward_params(*g);
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> ps;
  for (auto& m : modules_) {
    auto sub = m->parameters();
    ps.insert(ps.end(), sub.begin(), sub.end());
  }
  return ps;
}

bool Sequential::has_trainable() {
  for (auto& m : modules_) {
    if (m->has_trainable()) return true;
  }
  return false;
}

void Sequential::release_buffers() {
  Module::release_buffers();
  for (auto& m : modules_) m->release_buffers();
}

void Sequential::set_training(bool training) {
  Module::set_training(training);
  for (auto& m : modules_) m->set_training(training);
}

std::string Sequential::describe() const {
  std::string s = "Sequential(";
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    if (i) s += ", ";
    s += modules_[i]->describe();
  }
  s += ")";
  return s;
}

}  // namespace bellamy::nn
