// Neural-network substrate tests. The load-bearing ones are the numerical
// gradient checks: every layer's analytic backward pass is validated
// against central finite differences, so the training dynamics the whole
// evaluation rests on are trustworthy.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "golden_rows.hpp"
#include "nn/layers.hpp"
#include "nn/mlp_classifier.hpp"
#include "nn/model_profile.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

namespace spider::nn {
namespace {

/// Scalar loss of a forward pass: mean softmax cross-entropy.
double loss_of(Sequential& net, Linear& head, const tensor::Matrix& x,
               std::span<const std::uint32_t> labels) {
    tensor::Matrix hidden;
    net.forward(x, hidden);
    tensor::Matrix logits;
    head.forward(hidden, logits);
    tensor::Matrix probs;
    tensor::softmax_rows(logits, probs);
    return tensor::cross_entropy(probs, labels);
}

TEST(Linear, ForwardMatchesManualComputation) {
    util::Rng rng{3};
    Linear layer{2, 2, rng};
    layer.weight().flat()[0] = 1.0F;  // W = [[1, 2], [3, 4]]
    layer.weight().flat()[1] = 2.0F;
    layer.weight().flat()[2] = 3.0F;
    layer.weight().flat()[3] = 4.0F;
    layer.bias().flat()[0] = 0.5F;
    layer.bias().flat()[1] = -0.5F;

    tensor::Matrix x{1, 2};
    x.at(0, 0) = 1.0F;
    x.at(0, 1) = 1.0F;
    tensor::Matrix y;
    layer.forward(x, y);
    EXPECT_FLOAT_EQ(y.at(0, 0), 4.5F);   // 1+3+0.5
    EXPECT_FLOAT_EQ(y.at(0, 1), 5.5F);   // 2+4-0.5
}

TEST(GradientCheck, FullNetworkNumericalGradients) {
    util::Rng rng{11};
    Sequential net;
    net.add(std::make_unique<Linear>(4, 6, rng));
    net.add(std::make_unique<Relu>());
    net.add(std::make_unique<Linear>(6, 5, rng));
    net.add(std::make_unique<Relu>());
    Linear head{5, 3, rng};

    tensor::Matrix x{3, 4};
    x.randomize_normal(rng, 0.0F, 1.0F);
    const std::vector<std::uint32_t> labels = {0, 2, 1};

    // Analytic gradients.
    net.zero_grad();
    head.zero_grad();
    tensor::Matrix hidden;
    net.forward(x, hidden);
    tensor::Matrix logits;
    head.forward(hidden, logits);
    tensor::Matrix probs;
    tensor::softmax_rows(logits, probs);
    tensor::Matrix dlogits;
    tensor::softmax_cross_entropy_backward(probs, labels, dlogits);
    tensor::Matrix dhidden;
    head.backward(dlogits, &dhidden);
    tensor::Matrix dx;
    net.backward(dhidden, &dx);

    // Finite differences on every parameter of every layer.
    const float eps = 1e-3F;
    auto check_params = [&](Layer& layer, const char* tag) {
        for (ParamRef ref : layer.params()) {
            for (std::size_t i = 0; i < ref.value->size(); ++i) {
                float& w = ref.value->flat()[i];
                const float original = w;
                w = original + eps;
                const double up = loss_of(net, head, x, labels);
                w = original - eps;
                const double down = loss_of(net, head, x, labels);
                w = original;
                const double numeric = (up - down) / (2.0 * eps);
                const double analytic = ref.grad->flat()[i];
                EXPECT_NEAR(analytic, numeric, 2e-2)
                    << tag << " param index " << i;
            }
        }
    };
    check_params(net, "trunk");
    check_params(head, "head");

    // The input gradient a non-null grad_input receives.
    ASSERT_EQ(dx.rows(), x.rows());
    ASSERT_EQ(dx.cols(), x.cols());
    for (std::size_t i = 0; i < x.size(); ++i) {
        float& v = x.flat()[i];
        const float original = v;
        v = original + eps;
        const double up = loss_of(net, head, x, labels);
        v = original - eps;
        const double down = loss_of(net, head, x, labels);
        v = original;
        EXPECT_NEAR(dx.flat()[i], (up - down) / (2.0 * eps), 2e-2)
            << "input index " << i;
    }
}

// A null grad_input skips the input gradient only: every parameter
// gradient is bit-identical to the run that asks for it.
TEST(Sequential, BackwardWithoutInputGradient) {
    const auto build = [] {
        util::Rng rng{43};
        Sequential net;
        net.add(std::make_unique<Linear>(5, 7, rng));
        net.add(std::make_unique<Relu>());
        net.add(std::make_unique<Dropout>(0.3, rng.split()));
        net.add(std::make_unique<Linear>(7, 4, rng));
        return net;
    };
    Sequential with_dx = build();
    Sequential without_dx = build();

    util::Rng rng{47};
    tensor::Matrix x{9, 5};
    x.randomize_normal(rng, 0.0F, 1.0F);
    tensor::Matrix dy{9, 4};
    dy.randomize_normal(rng, 0.0F, 1.0F);

    tensor::Matrix y;
    with_dx.forward(x, y);
    without_dx.forward(x, y);
    with_dx.zero_grad();
    without_dx.zero_grad();
    tensor::Matrix dx;
    with_dx.backward(dy, &dx);
    without_dx.backward(dy, nullptr);
    EXPECT_EQ(dx.rows(), 9U);
    EXPECT_EQ(dx.cols(), 5U);

    const std::vector<ParamRef> a = with_dx.params();
    const std::vector<ParamRef> b = without_dx.params();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p) {
        ASSERT_EQ(a[p].grad->size(), b[p].grad->size());
        EXPECT_EQ(std::memcmp(a[p].grad->data(), b[p].grad->data(),
                              a[p].grad->size() * sizeof(float)),
                  0)
            << "param " << p;
    }
}

TEST(Sequential, ActivationExposesIntermediate) {
    util::Rng rng{13};
    Sequential net;
    net.add(std::make_unique<Linear>(3, 4, rng));
    net.add(std::make_unique<Relu>());
    tensor::Matrix x{2, 3};
    x.randomize_normal(rng, 0.0F, 1.0F);
    tensor::Matrix out;
    net.forward(x, out);
    // Output equals the last activation; the pre-ReLU is also accessible.
    const tensor::Matrix& relu_out = net.activation(1);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_FLOAT_EQ(out.flat()[i], relu_out.flat()[i]);
        EXPECT_GE(relu_out.flat()[i], 0.0F);
    }
}

TEST(Sequential, ThrowsWhenEmpty) {
    Sequential net;
    tensor::Matrix x{1, 1};
    tensor::Matrix y;
    EXPECT_THROW(net.forward(x, y), std::logic_error);
}

TEST(Sgd, StepMovesAgainstGradient) {
    util::Rng rng{17};
    Linear layer{2, 2, rng};
    layer.zero_grad();
    const float before = layer.weight().flat()[0];
    // Gradient of +1 on one weight.
    layer.params()[0].grad->flat()[0] = 1.0F;
    SgdConfig config;
    config.learning_rate = 0.1F;
    config.momentum = 0.0F;
    config.weight_decay = 0.0F;
    SgdOptimizer opt{layer.params(), config};
    opt.step();
    EXPECT_NEAR(layer.weight().flat()[0], before - 0.1F, 1e-6);
    // Gradients were consumed.
    EXPECT_FLOAT_EQ(layer.params()[0].grad->flat()[0], 0.0F);
}

TEST(Sgd, MomentumAccumulates) {
    util::Rng rng{19};
    Linear layer{1, 1, rng};
    layer.weight().flat()[0] = 0.0F;
    SgdConfig config;
    config.learning_rate = 1.0F;
    config.momentum = 0.5F;
    config.weight_decay = 0.0F;
    SgdOptimizer opt{layer.params(), config};
    // Two steps of unit gradient: v1 = 1, v2 = 1.5.
    layer.params()[0].grad->flat()[0] = 1.0F;
    opt.step();
    EXPECT_NEAR(layer.weight().flat()[0], -1.0F, 1e-6);
    layer.params()[0].grad->flat()[0] = 1.0F;
    opt.step();
    EXPECT_NEAR(layer.weight().flat()[0], -2.5F, 1e-6);
}

TEST(Sgd, WeightDecayShrinksWeights) {
    util::Rng rng{23};
    Linear layer{1, 1, rng};
    layer.weight().flat()[0] = 10.0F;
    SgdConfig config;
    config.learning_rate = 0.1F;
    config.momentum = 0.0F;
    config.weight_decay = 0.5F;
    SgdOptimizer opt{layer.params(), config};
    layer.params()[0].grad->flat()[0] = 0.0F;
    opt.step();
    EXPECT_NEAR(layer.weight().flat()[0], 10.0F - 0.1F * 0.5F * 10.0F, 1e-5);
}

TEST(CosineLr, EndpointsAndMonotonicity) {
    EXPECT_FLOAT_EQ(cosine_lr(0.1F, 0.001F, 0, 100), 0.1F);
    EXPECT_NEAR(cosine_lr(0.1F, 0.001F, 99, 100), 0.001F, 1e-6);
    float prev = 1.0F;
    for (std::size_t e = 0; e < 50; ++e) {
        const float lr = cosine_lr(0.1F, 0.001F, e, 50);
        EXPECT_LE(lr, prev);
        prev = lr;
    }
    EXPECT_FLOAT_EQ(cosine_lr(0.1F, 0.001F, 0, 1), 0.1F);
}

TEST(MlpClassifier, LearnsLinearlySeparableData) {
    MlpConfig config;
    config.input_dim = 2;
    config.hidden_dims = {8, 4};
    config.num_classes = 2;
    config.seed = 29;
    config.sgd.learning_rate = 0.1F;
    MlpClassifier model{config};

    util::Rng rng{31};
    tensor::Matrix x{64, 2};
    std::vector<std::uint32_t> labels(64);
    auto fill = [&] {
        for (std::size_t i = 0; i < 64; ++i) {
            const std::uint32_t cls = i % 2;
            x.at(i, 0) = static_cast<float>(rng.normal(cls ? 2.0 : -2.0, 0.5));
            x.at(i, 1) = static_cast<float>(rng.normal(cls ? -2.0 : 2.0, 0.5));
            labels[i] = cls;
        }
    };

    double first_loss = 0.0;
    double last_loss = 0.0;
    for (int step = 0; step < 60; ++step) {
        fill();
        const ForwardResult fwd = model.forward(x, labels);
        if (step == 0) first_loss = fwd.mean_loss;
        last_loss = fwd.mean_loss;
        model.backward_and_step(labels);
    }
    EXPECT_LT(last_loss, first_loss * 0.2);
    fill();
    EXPECT_GT(model.evaluate(x, labels), 0.95);
}

TEST(MlpClassifier, EmbeddingDimensionsMatchConfig) {
    MlpConfig config;
    config.input_dim = 5;
    config.hidden_dims = {16, 7};
    config.num_classes = 3;
    MlpClassifier model{config};
    EXPECT_EQ(model.embedding_dim(), 7U);

    tensor::Matrix x{4, 5};
    const std::vector<std::uint32_t> labels = {0, 1, 2, 0};
    const ForwardResult fwd = model.forward(x, labels);
    EXPECT_EQ(fwd.embeddings.rows(), 4U);
    EXPECT_EQ(fwd.embeddings.cols(), 7U);
    EXPECT_EQ(fwd.per_sample_loss.size(), 4U);
    EXPECT_EQ(fwd.predictions.size(), 4U);
}

TEST(MlpClassifier, TrainMaskBlocksUpdatesForMaskedRows) {
    MlpConfig config;
    config.input_dim = 2;
    config.hidden_dims = {4, 4};
    config.num_classes = 2;
    config.seed = 37;
    config.sgd.weight_decay = 0.0F;  // decay alone would move weights
    MlpClassifier model_masked{config};
    MlpClassifier model_reference{config};

    util::Rng rng{41};
    tensor::Matrix x{8, 2};
    x.randomize_normal(rng, 0.0F, 1.0F);
    const std::vector<std::uint32_t> labels = {0, 1, 0, 1, 0, 1, 0, 1};

    // Masking every row = no update at all: predictions stay identical to
    // an untrained clone.
    model_masked.forward(x, labels);
    const std::vector<std::uint8_t> none(8, 0);
    model_masked.backward_and_step(labels, none);

    const ForwardResult a = model_masked.forward(x, labels);
    const ForwardResult b = model_reference.forward(x, labels);
    for (std::size_t i = 0; i < a.per_sample_loss.size(); ++i) {
        EXPECT_NEAR(a.per_sample_loss[i], b.per_sample_loss[i], 1e-6);
    }
}

TEST(MlpClassifier, RejectsBadInputs) {
    MlpConfig config;
    config.input_dim = 3;
    config.hidden_dims = {4};
    config.num_classes = 2;
    MlpClassifier model{config};
    tensor::Matrix wrong{2, 5};
    const std::vector<std::uint32_t> labels = {0, 1};
    EXPECT_THROW(model.forward(wrong, labels), std::invalid_argument);
    EXPECT_THROW(model.backward_and_step(labels), std::logic_error);
}

/// Hash of the bits of everything one forward pass returns. Each field is a
/// function of every parameter, so a one-ulp move of any weight shows here.
std::uint64_t hash_of(const ForwardResult& fwd) {
    std::uint64_t hash = golden::fnv1a(
        golden::kFnvBasis, fwd.per_sample_loss.data(),
        fwd.per_sample_loss.size() * sizeof(double));
    hash = golden::fnv1a(hash, fwd.embeddings.data(),
                         fwd.embeddings.size() * sizeof(float));
    return golden::fnv1a(hash, fwd.predictions.data(),
                         fwd.predictions.size() * sizeof(std::uint32_t));
}

// Golden training run of the classifier at the shapes both training
// workloads use (32 -> 64 -> 32 -> 10, batch 128): one row per step with
// the loss as a hex float and a hash of the forward outputs, which are
// computed from the parameters the previous step left; a final probe row
// pins the last update. One file per kernel table,
// tests/golden/mlp_<table>.txt; ctest also runs this under
// SPIDER_SIMD=scalar (NnGolden.portable_kernels). A change to the MLP
// path meant to be bit-neutral passes both files unmodified.
TEST(NnGolden, MlpStepsMatch) {
    constexpr std::size_t kBatch = 128;
    MlpConfig config;
    config.input_dim = 32;
    config.hidden_dims = {64, 32};
    config.num_classes = 10;
    config.seed = 2024;
    MlpClassifier model{config};

    util::Rng rng{77};
    tensor::Matrix x{kBatch, config.input_dim};
    std::vector<std::uint32_t> labels(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
        labels[i] = static_cast<std::uint32_t>(i % config.num_classes);
    }

    std::vector<std::string> rows;
    for (int step = 0; step < 20; ++step) {
        x.randomize_normal(rng, 0.0F, 1.0F);
        const ForwardResult fwd = model.forward(x, labels);
        model.backward_and_step(labels);
        rows.push_back(golden::row_of("s%02d loss %a hash %016llx", step,
                                      fwd.mean_loss,
                                      static_cast<unsigned long long>(
                                          hash_of(fwd))));
    }
    x.randomize_normal(rng, 0.0F, 1.0F);
    const ForwardResult probe = model.forward(x, labels);
    rows.push_back(golden::row_of(
        "probe loss %a hash %016llx acc %a", probe.mean_loss,
        static_cast<unsigned long long>(hash_of(probe)),
        model.evaluate(x, labels)));

    golden::expect_golden(
        std::string{"mlp_"} + tensor::simd::active_kernels().name + ".txt",
        rows, "NnGolden");
}

TEST(ModelProfile, Table1ValuesPreserved) {
    const ModelProfile r18 = make_profile(ModelKind::kResNet18);
    EXPECT_EQ(r18.name, "ResNet18");
    EXPECT_DOUBLE_EQ(r18.table1_stage1_ms, 42.0);
    EXPECT_DOUBLE_EQ(r18.backward_ms, 35.0);
    EXPECT_DOUBLE_EQ(r18.is_ms, 16.0);
    EXPECT_FALSE(r18.long_is_pipeline);

    const ModelProfile alex = make_profile(ModelKind::kAlexNet);
    EXPECT_DOUBLE_EQ(alex.table1_stage1_ms, 62.0);
    EXPECT_DOUBLE_EQ(alex.is_ms, 35.0);
    EXPECT_TRUE(alex.long_is_pipeline);  // Fig. 12(b) model
}

TEST(ModelProfile, EvaluatedSetHasFourModels) {
    const auto models = evaluated_profiles();
    ASSERT_EQ(models.size(), 4U);
    EXPECT_EQ(models[0].name, "ResNet18");
    EXPECT_EQ(models[3].name, "Vgg16");
    EXPECT_EQ(all_profiles().size(), 6U);
}

TEST(ModelProfile, EmbeddingDimsTrackPaperOrdering) {
    // AlexNet/VGG16 have the largest embeddings (paper Section 5), hence
    // the longest IS stage.
    const auto r18 = make_profile(ModelKind::kResNet18);
    const auto alex = make_profile(ModelKind::kAlexNet);
    EXPECT_GT(alex.paper_embedding_dim, r18.paper_embedding_dim);
    EXPECT_GT(alex.is_ms, r18.is_ms);
}

}  // namespace
}  // namespace spider::nn
