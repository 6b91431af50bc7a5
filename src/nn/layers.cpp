#include "nn/layers.hpp"

#include <stdexcept>

namespace spider::nn {

void Layer::zero_grad() {
    for (ParamRef ref : params()) {
        ref.grad->zero();
    }
}

Linear::Linear(std::size_t in_features, std::size_t out_features,
               util::Rng& rng)
    : weight_{in_features, out_features},
      bias_{1, out_features},
      weight_grad_{in_features, out_features},
      bias_grad_{1, out_features} {
    weight_.randomize_kaiming(rng, in_features);
}

void Linear::forward(const tensor::Matrix& input, tensor::Matrix& output) {
    cached_input_ = input;
    tensor::matmul(input, weight_, output);
    tensor::add_row_vector(output, bias_.row(0));
}

void Linear::backward(const tensor::Matrix& grad_output,
                      tensor::Matrix* grad_input) {
    // dW += X^T @ dY ; db += column sums of dY ; dX = dY @ W^T.
    tensor::matmul_at_b(cached_input_, grad_output, dw_);
    tensor::axpy(1.0F, dw_, weight_grad_);

    for (std::size_t i = 0; i < grad_output.rows(); ++i) {
        const std::span<const float> row = grad_output.row(i);
        const std::span<float> bg = bias_grad_.row(0);
        for (std::size_t j = 0; j < row.size(); ++j) {
            bg[j] += row[j];
        }
    }

    if (grad_input != nullptr) {
        tensor::matmul_a_bt(grad_output, weight_, *grad_input);
    }
}

std::vector<ParamRef> Linear::params() {
    return {{&weight_, &weight_grad_}, {&bias_, &bias_grad_}};
}

void Relu::forward(const tensor::Matrix& input, tensor::Matrix& output) {
    cached_input_ = input;
    tensor::relu(input, output);
}

void Relu::backward(const tensor::Matrix& grad_output,
                    tensor::Matrix* grad_input) {
    if (grad_input != nullptr) {
        tensor::relu_backward(cached_input_, grad_output, *grad_input);
    }
}

Dropout::Dropout(double drop_probability, util::Rng rng)
    : drop_probability_{drop_probability}, rng_{rng} {
    if (drop_probability < 0.0 || drop_probability >= 1.0) {
        throw std::invalid_argument{"Dropout: p must be in [0, 1)"};
    }
}

void Dropout::forward(const tensor::Matrix& input, tensor::Matrix& output) {
    if (!training_ || drop_probability_ == 0.0) {
        output = input;
        // Identity mask so a backward after an eval forward stays correct.
        mask_ = tensor::Matrix{input.rows(), input.cols(), 1.0F};
        return;
    }
    mask_ = tensor::Matrix{input.rows(), input.cols()};
    const auto scale = static_cast<float>(1.0 / (1.0 - drop_probability_));
    for (float& m : mask_.flat()) {
        m = rng_.uniform() < drop_probability_ ? 0.0F : scale;
    }
    output = tensor::Matrix{input.rows(), input.cols()};
    const std::span<const float> in = input.flat();
    const std::span<const float> mask = mask_.flat();
    const std::span<float> out = output.flat();
    for (std::size_t i = 0; i < in.size(); ++i) {
        out[i] = in[i] * mask[i];
    }
}

void Dropout::backward(const tensor::Matrix& grad_output,
                       tensor::Matrix* grad_input) {
    if (grad_input == nullptr) return;
    *grad_input = tensor::Matrix{grad_output.rows(), grad_output.cols()};
    const std::span<const float> grad = grad_output.flat();
    const std::span<const float> mask = mask_.flat();
    const std::span<float> out = grad_input->flat();
    for (std::size_t i = 0; i < grad.size(); ++i) {
        out[i] = grad[i] * mask[i];
    }
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
    if (!layers_.empty()) input_grads_.emplace_back();
    layers_.push_back(std::move(layer));
    activations_.emplace_back();
    return *this;
}

void Sequential::forward(const tensor::Matrix& input, tensor::Matrix& output) {
    if (layers_.empty()) {
        throw std::logic_error{"Sequential::forward on empty stack"};
    }
    const tensor::Matrix* current = &input;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        layers_[i]->forward(*current, activations_[i]);
        current = &activations_[i];
    }
    output = activations_.back();
}

void Sequential::backward(const tensor::Matrix& grad_output,
                          tensor::Matrix* grad_input) {
    if (layers_.empty()) {
        throw std::logic_error{"Sequential::backward on empty stack"};
    }
    // Layer 0 writes straight into the caller's grad_input (or skips dX
    // when that is null); the others write into per-layer buffers that keep
    // their shape from step to step.
    const tensor::Matrix* incoming = &grad_output;
    for (std::size_t i = layers_.size(); i-- > 1;) {
        layers_[i]->backward(*incoming, &input_grads_[i - 1]);
        incoming = &input_grads_[i - 1];
    }
    layers_[0]->backward(*incoming, grad_input);
}

std::vector<ParamRef> Sequential::params() {
    std::vector<ParamRef> all;
    for (const auto& layer : layers_) {
        for (ParamRef ref : layer->params()) {
            all.push_back(ref);
        }
    }
    return all;
}

void Sequential::set_training(bool training) {
    for (const auto& layer : layers_) {
        layer->set_training(training);
    }
}

const tensor::Matrix& Sequential::activation(std::size_t index) const {
    return activations_.at(index);
}

}  // namespace spider::nn
