#pragma once

// Minimal trainable-layer abstraction: enough to build the MLP classifiers
// that stand in for the paper's CNNs. Layers cache what they need for the
// backward pass; parameters/gradients are exposed as (param, grad) pairs so
// the optimizer stays layer-agnostic.

#include <memory>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace spider::nn {

/// A named view of one parameter tensor and its gradient accumulator.
struct ParamRef {
    tensor::Matrix* value;
    tensor::Matrix* grad;
};

class Layer {
public:
    virtual ~Layer() = default;

    /// Computes output activations; must cache inputs needed by backward.
    virtual void forward(const tensor::Matrix& input, tensor::Matrix& output) = 0;

    /// Consumes dL/d(output), accumulates parameter gradients and, when
    /// `grad_input` is non-null, writes dL/d(input) there. A null
    /// `grad_input` means no caller reads it, so it is not computed; the
    /// parameter gradients are the same either way. Must be called after
    /// the matching forward.
    virtual void backward(const tensor::Matrix& grad_output,
                          tensor::Matrix* grad_input) = 0;

    /// Parameter/gradient pairs (empty for stateless layers).
    virtual std::vector<ParamRef> params() { return {}; }

    /// Train/eval mode switch (only stochastic layers care).
    virtual void set_training(bool training) { (void)training; }

    /// Zeroes all gradient accumulators.
    void zero_grad();
};

/// Fully-connected layer: out = in @ W + b.  W: [in, out], b: [1, out].
class Linear : public Layer {
public:
    Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng);

    void forward(const tensor::Matrix& input, tensor::Matrix& output) override;
    void backward(const tensor::Matrix& grad_output,
                  tensor::Matrix* grad_input) override;
    std::vector<ParamRef> params() override;

    [[nodiscard]] std::size_t in_features() const { return weight_.rows(); }
    [[nodiscard]] std::size_t out_features() const { return weight_.cols(); }
    [[nodiscard]] tensor::Matrix& weight() { return weight_; }
    [[nodiscard]] tensor::Matrix& bias() { return bias_; }

private:
    tensor::Matrix weight_;
    tensor::Matrix bias_;
    tensor::Matrix weight_grad_;
    tensor::Matrix bias_grad_;
    tensor::Matrix cached_input_;
    tensor::Matrix dw_;  // one backward's dW, before it is accumulated
};

class Relu : public Layer {
public:
    void forward(const tensor::Matrix& input, tensor::Matrix& output) override;
    void backward(const tensor::Matrix& grad_output,
                  tensor::Matrix* grad_input) override;

private:
    tensor::Matrix cached_input_;
};

/// Inverted dropout: at train time each activation is zeroed with
/// probability p and survivors are scaled by 1/(1-p), so eval needs no
/// rescaling. Adds the stochastic regularization CNN training pipelines
/// rely on (and one more source of the per-view loss churn that breaks
/// loss-rank importance scores).
class Dropout : public Layer {
public:
    Dropout(double drop_probability, util::Rng rng);

    void forward(const tensor::Matrix& input, tensor::Matrix& output) override;
    void backward(const tensor::Matrix& grad_output,
                  tensor::Matrix* grad_input) override;
    void set_training(bool training) override { training_ = training; }
    [[nodiscard]] bool training() const { return training_; }

private:
    double drop_probability_;
    util::Rng rng_;
    bool training_ = true;
    tensor::Matrix mask_;  // keep-mask scaled by 1/(1-p)
};

/// Ordered layer stack with intermediate-activation plumbing. Exposes the
/// activation produced by any layer index so the classifier can read the
/// penultimate ("embedding") activations the semantic scorer consumes.
class Sequential : public Layer {
public:
    Sequential() = default;

    Sequential& add(std::unique_ptr<Layer> layer);
    [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }

    void forward(const tensor::Matrix& input, tensor::Matrix& output) override;
    void backward(const tensor::Matrix& grad_output,
                  tensor::Matrix* grad_input) override;
    std::vector<ParamRef> params() override;
    void set_training(bool training) override;

    /// Output activation of layers_[index] from the last forward pass.
    [[nodiscard]] const tensor::Matrix& activation(std::size_t index) const;

private:
    std::vector<std::unique_ptr<Layer>> layers_;
    std::vector<tensor::Matrix> activations_;  // activations_[i] = layer i output
    // input_grads_[i - 1] = dL/d(layer i input) for i >= 1; layer 0 writes
    // into the caller's grad_input.
    std::vector<tensor::Matrix> input_grads_;
};

}  // namespace spider::nn
