#pragma once

// MLP classifier with an explicit "feature extraction" trunk and a linear
// classification head. The trunk's final activation is the *embedding* that
// SpiderCache's graph-based importance scorer consumes — mirroring how the
// paper taps the feature-extraction layer of its CNNs (Section 4.1).

#include <cstdint>
#include <span>
#include <vector>

#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "tensor/matrix.hpp"

namespace spider::nn {

struct MlpConfig {
    std::size_t input_dim = 32;
    /// Hidden widths; the last entry is the embedding dimension.
    std::vector<std::size_t> hidden_dims = {64, 32};
    std::size_t num_classes = 10;
    /// Dropout probability after each hidden ReLU (0 = no dropout layers).
    double dropout = 0.0;
    SgdConfig sgd;
    std::uint64_t seed = 1;
};

/// Everything the data-loading / caching stack needs from one forward pass.
struct ForwardResult {
    double mean_loss = 0.0;
    std::vector<double> per_sample_loss;       // loss-based IS input
    tensor::Matrix embeddings;                 // [batch, embedding_dim]
    std::vector<std::uint32_t> predictions;    // argmax per row
};

class MlpClassifier {
public:
    explicit MlpClassifier(MlpConfig config);

    [[nodiscard]] std::size_t embedding_dim() const { return embedding_dim_; }
    [[nodiscard]] std::size_t num_classes() const { return config_.num_classes; }

    /// Forward pass; caches activations/probabilities for a following
    /// backward_and_step on the same batch.
    ForwardResult forward(const tensor::Matrix& inputs,
                          std::span<const std::uint32_t> labels);

    /// Backward pass + SGD step for the batch most recently given to
    /// forward(). `train_mask`, when non-empty, selects which rows
    /// contribute gradient — this is how iCache-style compute-bound IS
    /// skips backpropagation for well-learned samples.
    void backward_and_step(std::span<const std::uint32_t> labels,
                           std::span<const std::uint8_t> train_mask = {});

    /// Top-1 accuracy on a labelled set (no gradient side effects).
    [[nodiscard]] double evaluate(const tensor::Matrix& inputs,
                                  std::span<const std::uint32_t> labels);

    void set_learning_rate(float lr) { optimizer_.set_learning_rate(lr); }

private:
    MlpConfig config_;
    std::size_t embedding_dim_;
    util::Rng rng_;        // Must precede trunk_/head_: they draw init weights.
    Sequential trunk_;     // Linear/ReLU stack ending at the embedding.
    Linear head_;          // embedding -> logits
    SgdOptimizer optimizer_;

    // Cached state from the last forward pass.
    tensor::Matrix embeddings_;
    tensor::Matrix logits_;
    tensor::Matrix probs_;
    // Backward scratch, kept so a step allocates nothing once warm.
    tensor::Matrix dlogits_;
    tensor::Matrix dembed_;
};

}  // namespace spider::nn
