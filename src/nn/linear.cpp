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

const Matrix& Linear::forward(const Matrix& input) {
  check_input(input);
  input_ = input;  // a copy: the caller may reuse its matrix at once
  affine(input_, output_);
  return output_;
}

Matrix Linear::infer(const Matrix& input) const {
  check_input(input);
  Matrix out;
  affine(input, out);
  return out;
}

void Linear::check_input(const Matrix& input) const {
  if (input.cols() != in_) {
    throw std::invalid_argument("Linear: input " + input.shape_str() +
                                " incompatible with in_features=" + std::to_string(in_));
  }
}

void Linear::affine(const Matrix& input, Matrix& out) const {
  Matrix::matmul_nt_into(input, weight_.value, out);  // (B x in)(out x in)ᵀ
  if (with_bias_) out.add_row_inplace(bias_.value);
}

const Matrix& Linear::backward(const Matrix& grad_output) {
  backward_params(grad_output);
  // dL/dX = grad W -> (B x out)(out x in) = (B x in)
  Matrix::matmul_into(grad_output, weight_.value, grad_input_);
  return grad_input_;
}

void Linear::backward_params(const Matrix& grad_output) {
  if (grad_output.rows() != input_.rows() || grad_output.cols() != out_) {
    throw std::invalid_argument("Linear::backward: grad " + grad_output.shape_str() +
                                " does not match forward output shape");
  }
  // dL/dW = gradᵀ X  -> (out x B)(B x in) = (out x in).  The step's product
  // is formed whole, then added, so a gradient accumulated over several
  // steps rounds as a sum of per-step products.
  if (weight_.trainable) {
    Matrix::matmul_tn_into(grad_output, input_, step_grad_);
    weight_.grad += step_grad_;
  }
  if (with_bias_ && bias_.trainable) {
    grad_output.colwise_sum_into(step_grad_);
    bias_.grad += step_grad_;
  }
}

bool Linear::has_trainable() { return weight_.trainable || (with_bias_ && bias_.trainable); }

void Linear::release_buffers() {
  Module::release_buffers();
  input_ = Matrix();
  step_grad_ = Matrix();
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
