// Tests for the nn extensions: Dropout layer semantics (train/eval modes,
// inverted scaling, mask-consistent backward, expectation preservation)
// and the gradient-norm importance sampler.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/samplers.hpp"
#include "nn/layers.hpp"
#include "nn/mlp_classifier.hpp"

namespace spider::nn {
namespace {

TEST(Dropout, EvalModeIsIdentity) {
    Dropout layer{0.5, util::Rng{1}};
    layer.set_training(false);
    tensor::Matrix x{4, 8};
    util::Rng rng{2};
    x.randomize_normal(rng, 0.0F, 1.0F);
    tensor::Matrix y;
    layer.forward(x, y);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_FLOAT_EQ(y.flat()[i], x.flat()[i]);
    }
}

TEST(Dropout, ZeroProbabilityIsIdentityInTraining) {
    Dropout layer{0.0, util::Rng{3}};
    tensor::Matrix x{2, 4, 3.0F};
    tensor::Matrix y;
    layer.forward(x, y);
    for (float v : y.flat()) EXPECT_FLOAT_EQ(v, 3.0F);
}

TEST(Dropout, TrainingDropsAndRescales) {
    const double p = 0.5;
    Dropout layer{p, util::Rng{5}};
    tensor::Matrix x{100, 100, 1.0F};
    tensor::Matrix y;
    layer.forward(x, y);

    std::size_t zeros = 0;
    double sum = 0.0;
    for (float v : y.flat()) {
        if (v == 0.0F) {
            ++zeros;
        } else {
            EXPECT_FLOAT_EQ(v, 2.0F);  // 1 / (1 - 0.5)
        }
        sum += v;
    }
    const double n = static_cast<double>(y.size());
    EXPECT_NEAR(static_cast<double>(zeros) / n, p, 0.02);
    // Inverted dropout preserves the expectation.
    EXPECT_NEAR(sum / n, 1.0, 0.05);
}

TEST(Dropout, BackwardUsesSameMask) {
    Dropout layer{0.5, util::Rng{7}};
    tensor::Matrix x{10, 10, 1.0F};
    tensor::Matrix y;
    layer.forward(x, y);
    tensor::Matrix dy{10, 10, 1.0F};
    tensor::Matrix dx;
    layer.backward(dy, &dx);
    // Gradient flows exactly where activations survived.
    for (std::size_t i = 0; i < y.size(); ++i) {
        EXPECT_FLOAT_EQ(dx.flat()[i], y.flat()[i]);
    }
}

TEST(Dropout, RejectsInvalidProbability) {
    EXPECT_THROW((Dropout{1.0, util::Rng{1}}), std::invalid_argument);
    EXPECT_THROW((Dropout{-0.1, util::Rng{1}}), std::invalid_argument);
}

TEST(Dropout, MlpClassifierTrainsWithDropout) {
    MlpConfig config;
    config.input_dim = 2;
    config.hidden_dims = {16, 8};
    config.num_classes = 2;
    config.dropout = 0.2;
    config.seed = 11;
    MlpClassifier model{config};

    util::Rng rng{13};
    tensor::Matrix x{64, 2};
    std::vector<std::uint32_t> labels(64);
    for (std::size_t i = 0; i < 64; ++i) {
        const std::uint32_t cls = i % 2;
        x.at(i, 0) = static_cast<float>(rng.normal(cls ? 2.0 : -2.0, 0.5));
        x.at(i, 1) = static_cast<float>(rng.normal(cls ? -2.0 : 2.0, 0.5));
        labels[i] = cls;
    }
    for (int step = 0; step < 80; ++step) {
        model.forward(x, labels);
        model.backward_and_step(labels);
    }
    // Eval-mode accuracy (dropout off) on the training data.
    EXPECT_GT(model.evaluate(x, labels), 0.9);
    // Two eval calls are deterministic (no stochastic masks in eval).
    EXPECT_DOUBLE_EQ(model.evaluate(x, labels), model.evaluate(x, labels));
}

}  // namespace
}  // namespace spider::nn

namespace spider::core {
namespace {

TEST(GradientNormSampler, InitiallyUniform) {
    GradientNormSampler sampler{100, util::Rng{17}};
    for (std::uint32_t i = 0; i < 100; ++i) {
        EXPECT_DOUBLE_EQ(sampler.importance_of(i), 1.0);
    }
    const auto order = sampler.epoch_order(0);
    EXPECT_EQ(order.size(), 100U);
}

TEST(GradientNormSampler, EmaTracksObservations) {
    GradientNormSampler sampler{10, util::Rng{19}, /*smoothing=*/0.5};
    sampler.observe_losses(std::vector<std::uint32_t>{3},
                           std::vector<double>{5.0});
    // EMA: 0.5 * 1.0 + 0.5 * 5.0 = 3.0.
    EXPECT_DOUBLE_EQ(sampler.importance_of(3), 3.0);
    sampler.observe_losses(std::vector<std::uint32_t>{3},
                           std::vector<double>{5.0});
    EXPECT_DOUBLE_EQ(sampler.importance_of(3), 4.0);
}

TEST(GradientNormSampler, DrawsSkewTowardHighNorms) {
    GradientNormSampler sampler{4, util::Rng{23}, 1.0};
    sampler.observe_losses(std::vector<std::uint32_t>{0, 1, 2, 3},
                           std::vector<double>{0.1, 0.1, 0.1, 9.7});
    std::map<std::uint32_t, int> counts;
    for (int rep = 0; rep < 500; ++rep) {
        for (std::uint32_t id : sampler.epoch_order(0)) ++counts[id];
    }
    // Weights 0.1/0.1/0.1/9.7 -> id 3 drawn ~97% of the time.
    EXPECT_GT(counts[3], counts[0] * 10);
}

TEST(GradientNormSampler, ZeroNormsClampedPositive) {
    GradientNormSampler sampler{2, util::Rng{29}, 1.0};
    sampler.observe_losses(std::vector<std::uint32_t>{0, 1},
                           std::vector<double>{0.0, 0.0});
    EXPECT_GT(sampler.importance_of(0), 0.0);
    // Sampling still works (alias table needs positive mass).
    EXPECT_EQ(sampler.epoch_order(0).size(), 2U);
}

TEST(GradientNormSampler, RejectsBadSmoothing) {
    EXPECT_THROW((GradientNormSampler{4, util::Rng{1}, 0.0}),
                 std::invalid_argument);
    EXPECT_THROW((GradientNormSampler{4, util::Rng{1}, 1.5}),
                 std::invalid_argument);
}

}  // namespace
}  // namespace spider::core
