#include "nn/linear.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace bellamy::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, bool with_bias, Init init,
               util::Rng& rng, std::string name)
    : in_(in_features),
      out_(out_features),
      with_bias_(with_bias),
      weight_(name + ".weight", make_weights(init, out_features, in_features, rng)) {
  if (with_bias_) bias_ = Parameter(name + ".bias", Matrix::zeros(1, out_features));
}

Matrix Linear::forward(const Matrix& input) {
  Matrix out = infer(input);  // validates the shape before anything is cached
  cached_input_ = input;
  return out;
}

Matrix Linear::infer(const Matrix& input) const {
  if (input.cols() != in_) {
    throw std::invalid_argument("Linear: input " + input.shape_str() +
                                " incompatible with in_features=" + std::to_string(in_));
  }
  Matrix out = Matrix::matmul_nt(input, weight_.value);  // (B x in)(out x in)ᵀ
  if (with_bias_) out = out.add_row_broadcast(bias_.value);
  return out;
}

Matrix Linear::backward(const Matrix& grad_output) {
  if (grad_output.rows() != cached_input_.rows() || grad_output.cols() != out_) {
    throw std::invalid_argument("Linear::backward: grad " + grad_output.shape_str() +
                                " does not match forward output shape");
  }
  // dL/dW = gradᵀ X  -> (out x B)(B x in) = (out x in)
  weight_.grad += Matrix::matmul_tn(grad_output, cached_input_);
  if (with_bias_) bias_.grad += grad_output.colwise_sum();
  // dL/dX = grad W -> (B x out)(out x in) = (B x in)
  return Matrix::matmul(grad_output, weight_.value);
}

std::vector<Parameter*> Linear::parameters() {
  std::vector<Parameter*> ps{&weight_};
  if (with_bias_) ps.push_back(&bias_);
  return ps;
}

Parameter& Linear::bias() {
  if (!with_bias_) throw std::logic_error("Linear::bias: layer has no bias");
  return bias_;
}

void Linear::reinitialize(Init init, util::Rng& rng) {
  weight_.value = make_weights(init, out_, in_, rng);
  weight_.zero_grad();
  if (with_bias_) {
    bias_.value.setZero();
    bias_.zero_grad();
  }
}

std::string Linear::describe() const {
  return "Linear(" + std::to_string(in_) + " -> " + std::to_string(out_) +
         (with_bias_ ? ", bias)" : ", no bias)");
}

}  // namespace bellamy::nn
