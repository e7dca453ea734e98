#include "nn/sequential.hpp"

namespace bellamy::nn {

Matrix Sequential::forward(const Matrix& input) {
  Matrix x = input;
  for (auto& m : modules_) x = m->forward(x);
  return x;
}

Matrix Sequential::infer(const Matrix& input) const {
  Matrix x = input;
  for (const auto& m : modules_) x = m->infer(x);
  return x;
}

Matrix Sequential::backward(const Matrix& grad_output) {
  Matrix g = grad_output;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> ps;
  for (auto& m : modules_) {
    auto sub = m->parameters();
    ps.insert(ps.end(), sub.begin(), sub.end());
  }
  return ps;
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
