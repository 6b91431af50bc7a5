#include "nn/mlp_classifier.hpp"

#include <memory>
#include <stdexcept>

namespace spider::nn {

namespace {

std::vector<ParamRef> gather_params(Sequential& trunk, Linear& head) {
    std::vector<ParamRef> all = trunk.params();
    for (ParamRef ref : head.params()) {
        all.push_back(ref);
    }
    return all;
}

Sequential build_trunk(const MlpConfig& config, util::Rng& rng) {
    if (config.hidden_dims.empty()) {
        throw std::invalid_argument{"MlpClassifier: need at least one hidden layer"};
    }
    Sequential trunk;
    std::size_t in_dim = config.input_dim;
    for (std::size_t width : config.hidden_dims) {
        trunk.add(std::make_unique<Linear>(in_dim, width, rng));
        trunk.add(std::make_unique<Relu>());
        if (config.dropout > 0.0) {
            trunk.add(std::make_unique<Dropout>(config.dropout, rng.split()));
        }
        in_dim = width;
    }
    return trunk;
}

}  // namespace

MlpClassifier::MlpClassifier(MlpConfig config)
    : config_{std::move(config)},
      embedding_dim_{config_.hidden_dims.empty() ? 0 : config_.hidden_dims.back()},
      rng_{config_.seed},
      trunk_{build_trunk(config_, rng_)},
      head_{embedding_dim_, config_.num_classes, rng_},
      optimizer_{gather_params(trunk_, head_), config_.sgd} {}

ForwardResult MlpClassifier::forward(const tensor::Matrix& inputs,
                                     std::span<const std::uint32_t> labels) {
    if (inputs.cols() != config_.input_dim) {
        throw std::invalid_argument{"MlpClassifier::forward: bad input dim"};
    }
    trunk_.forward(inputs, embeddings_);
    head_.forward(embeddings_, logits_);
    tensor::softmax_rows(logits_, probs_);

    ForwardResult result;
    result.per_sample_loss = tensor::cross_entropy_per_row(probs_, labels);
    double total = 0.0;
    for (double l : result.per_sample_loss) total += l;
    result.mean_loss =
        result.per_sample_loss.empty()
            ? 0.0
            : total / static_cast<double>(result.per_sample_loss.size());
    result.embeddings = embeddings_;
    result.predictions = tensor::argmax_rows(probs_);
    return result;
}

void MlpClassifier::backward_and_step(
    std::span<const std::uint32_t> labels,
    std::span<const std::uint8_t> train_mask) {
    if (probs_.rows() != labels.size()) {
        throw std::logic_error{
            "MlpClassifier::backward_and_step without matching forward"};
    }
    tensor::softmax_cross_entropy_backward(probs_, labels, dlogits_);

    if (!train_mask.empty()) {
        if (train_mask.size() != dlogits_.rows()) {
            throw std::invalid_argument{"train_mask size mismatch"};
        }
        for (std::size_t i = 0; i < dlogits_.rows(); ++i) {
            if (train_mask[i] == 0) {
                for (float& g : dlogits_.row(i)) g = 0.0F;
            }
        }
    }

    head_.backward(dlogits_, &dembed_);
    // Nothing reads the gradient of the inputs, so it is not computed.
    trunk_.backward(dembed_, nullptr);
    optimizer_.step();
}

double MlpClassifier::evaluate(const tensor::Matrix& inputs,
                               std::span<const std::uint32_t> labels) {
    if (inputs.rows() != labels.size()) {
        throw std::invalid_argument{"evaluate: rows/labels mismatch"};
    }
    if (inputs.rows() == 0) return 0.0;
    // Reuses the forward path; training state (cached activations) is
    // clobbered, so callers evaluate between batches, not inside them.
    // Stochastic layers (dropout) run in eval mode for the measurement.
    trunk_.set_training(false);
    tensor::Matrix embeddings;
    trunk_.forward(inputs, embeddings);
    tensor::Matrix logits;
    head_.forward(embeddings, logits);
    trunk_.set_training(true);
    const std::vector<std::uint32_t> preds = tensor::argmax_rows(logits);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < preds.size(); ++i) {
        if (preds[i] == labels[i]) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(preds.size());
}

}  // namespace spider::nn
