// Tests for the dense math kernels: shape handling, matmul variants
// (including the transpose forms used by backprop), activation forward and
// backward, numerically-stable softmax, cross-entropy, and distances.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace spider::tensor {
namespace {

Matrix make(std::size_t r, std::size_t c, std::initializer_list<float> vals) {
    Matrix m{r, c};
    std::size_t i = 0;
    for (float v : vals) m.flat()[i++] = v;
    return m;
}

TEST(Matrix, ConstructionAndFill) {
    Matrix m{3, 4, 2.5F};
    EXPECT_EQ(m.rows(), 3U);
    EXPECT_EQ(m.cols(), 4U);
    EXPECT_EQ(m.size(), 12U);
    for (float v : m.flat()) EXPECT_FLOAT_EQ(v, 2.5F);
    m.zero();
    for (float v : m.flat()) EXPECT_FLOAT_EQ(v, 0.0F);
}

TEST(Matrix, RowSpanIsView) {
    Matrix m{2, 3};
    m.row(1)[2] = 9.0F;
    EXPECT_FLOAT_EQ(m.at(1, 2), 9.0F);
}

TEST(Matrix, KaimingInitVariance) {
    util::Rng rng{5};
    Matrix m{256, 256};
    m.randomize_kaiming(rng, 256);
    double sum = 0.0;
    double sq = 0.0;
    for (float v : m.flat()) {
        sum += v;
        sq += static_cast<double>(v) * v;
    }
    const double n = static_cast<double>(m.size());
    EXPECT_NEAR(sum / n, 0.0, 0.005);
    EXPECT_NEAR(sq / n, 2.0 / 256.0, 0.001);  // He variance
}

TEST(Ops, MatmulKnownValues) {
    const Matrix a = make(2, 3, {1, 2, 3, 4, 5, 6});
    const Matrix b = make(3, 2, {7, 8, 9, 10, 11, 12});
    Matrix out;
    matmul(a, b, out);
    ASSERT_EQ(out.rows(), 2U);
    ASSERT_EQ(out.cols(), 2U);
    EXPECT_FLOAT_EQ(out.at(0, 0), 58.0F);
    EXPECT_FLOAT_EQ(out.at(0, 1), 64.0F);
    EXPECT_FLOAT_EQ(out.at(1, 0), 139.0F);
    EXPECT_FLOAT_EQ(out.at(1, 1), 154.0F);
}

TEST(Ops, MatmulTransposeVariantsAgree) {
    util::Rng rng{9};
    Matrix a{5, 7};
    Matrix b{5, 4};
    a.randomize_normal(rng, 0, 1);
    b.randomize_normal(rng, 0, 1);

    // a^T @ b computed directly vs via explicit transpose + matmul.
    Matrix at{7, 5};
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = 0; j < 7; ++j) {
            at.at(j, i) = a.at(i, j);
        }
    }
    Matrix expected;
    matmul(at, b, expected);
    Matrix got;
    matmul_at_b(a, b, got);
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_NEAR(got.flat()[i], expected.flat()[i], 1e-4);
    }
}

TEST(Ops, MatmulABTransposeAgree) {
    util::Rng rng{10};
    Matrix a{4, 6};
    Matrix b{3, 6};
    a.randomize_normal(rng, 0, 1);
    b.randomize_normal(rng, 0, 1);
    Matrix bt{6, 3};
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 6; ++j) {
            bt.at(j, i) = b.at(i, j);
        }
    }
    Matrix expected;
    matmul(a, bt, expected);
    Matrix got;
    matmul_a_bt(a, b, got);
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_NEAR(got.flat()[i], expected.flat()[i], 1e-4);
    }
}

TEST(Ops, AddRowVectorBroadcasts) {
    Matrix m = make(2, 3, {0, 0, 0, 1, 1, 1});
    const std::vector<float> bias = {1, 2, 3};
    add_row_vector(m, bias);
    EXPECT_FLOAT_EQ(m.at(0, 0), 1.0F);
    EXPECT_FLOAT_EQ(m.at(0, 2), 3.0F);
    EXPECT_FLOAT_EQ(m.at(1, 1), 3.0F);
}

TEST(Ops, ReluForwardBackward) {
    const Matrix x = make(1, 4, {-1, 0, 2, -3});
    Matrix y;
    relu(x, y);
    EXPECT_FLOAT_EQ(y.at(0, 0), 0.0F);
    EXPECT_FLOAT_EQ(y.at(0, 2), 2.0F);

    const Matrix dy = make(1, 4, {5, 5, 5, 5});
    Matrix dx;
    relu_backward(x, dy, dx);
    EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0F);  // x <= 0: gradient blocked
    EXPECT_FLOAT_EQ(dx.at(0, 1), 0.0F);
    EXPECT_FLOAT_EQ(dx.at(0, 2), 5.0F);
}

// relu_backward selects without a branch; it must pick exactly what the
// branchy formula picks, bit for bit, over signed zeros, NaNs, infinities
// and subnormals on either side.
TEST(Ops, ReluBackwardBitExact) {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float tiny = std::numeric_limits<float>::denorm_min();
    const std::vector<float> values = {0.0F, -0.0F, 1.5F,  -2.0F, nan, -nan,
                                       inf,  -inf,  tiny,  -tiny, 1e-30F};
    const std::size_t n = values.size();
    Matrix x{n, n};
    Matrix dy{n, n};
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            x.at(i, j) = values[i];
            dy.at(i, j) = values[j];
        }
    }
    Matrix dx;
    relu_backward(x, dy, dx);
    for (std::size_t i = 0; i < x.size(); ++i) {
        float want;
        if (x.flat()[i] > 0.0F) {
            want = dy.flat()[i];
        } else {
            want = 0.0F;
        }
        EXPECT_EQ(std::bit_cast<std::uint32_t>(dx.flat()[i]),
                  std::bit_cast<std::uint32_t>(want))
            << "x=" << x.flat()[i] << " dy=" << dy.flat()[i];
    }
}

TEST(Ops, SoftmaxRowsSumToOne) {
    const Matrix logits = make(2, 3, {1, 2, 3, -1, 0, 1});
    Matrix probs;
    softmax_rows(logits, probs);
    for (std::size_t i = 0; i < 2; ++i) {
        float sum = 0.0F;
        for (float p : probs.row(i)) {
            EXPECT_GT(p, 0.0F);
            sum += p;
        }
        EXPECT_NEAR(sum, 1.0F, 1e-6);
    }
    // Monotone in logits.
    EXPECT_GT(probs.at(0, 2), probs.at(0, 1));
}

TEST(Ops, SoftmaxNumericallyStableForLargeLogits) {
    const Matrix logits = make(1, 3, {1000.0F, 1001.0F, 1002.0F});
    Matrix probs;
    softmax_rows(logits, probs);
    float sum = 0.0F;
    for (float p : probs.row(0)) {
        EXPECT_FALSE(std::isnan(p));
        sum += p;
    }
    EXPECT_NEAR(sum, 1.0F, 1e-6);
}

TEST(Ops, CrossEntropyKnownValue) {
    // Uniform probabilities over 4 classes: CE = ln(4).
    Matrix probs{2, 4, 0.25F};
    const std::vector<std::uint32_t> labels = {0, 3};
    EXPECT_NEAR(cross_entropy(probs, labels), std::log(4.0), 1e-6);
    const auto per_row = cross_entropy_per_row(probs, labels);
    ASSERT_EQ(per_row.size(), 2U);
    EXPECT_NEAR(per_row[0], std::log(4.0), 1e-6);
}

TEST(Ops, SoftmaxCrossEntropyGradient) {
    const Matrix probs = make(1, 3, {0.2F, 0.3F, 0.5F});
    const std::vector<std::uint32_t> labels = {1};
    Matrix grad;
    softmax_cross_entropy_backward(probs, labels, grad);
    EXPECT_NEAR(grad.at(0, 0), 0.2F, 1e-6);
    EXPECT_NEAR(grad.at(0, 1), -0.7F, 1e-6);  // p - 1
    EXPECT_NEAR(grad.at(0, 2), 0.5F, 1e-6);
}

TEST(Ops, ArgmaxRows) {
    const Matrix m = make(2, 3, {1, 9, 2, 7, 3, 5});
    const auto idx = argmax_rows(m);
    ASSERT_EQ(idx.size(), 2U);
    EXPECT_EQ(idx[0], 1U);
    EXPECT_EQ(idx[1], 0U);
}

TEST(Ops, Axpy) {
    const Matrix x = make(1, 3, {1, 2, 3});
    Matrix y = make(1, 3, {10, 10, 10});
    axpy(2.0F, x, y);
    EXPECT_FLOAT_EQ(y.at(0, 0), 12.0F);
    EXPECT_FLOAT_EQ(y.at(0, 2), 16.0F);
}

TEST(Ops, Distances) {
    const std::vector<float> a = {0, 0, 0};
    const std::vector<float> b = {1, 2, 2};
    EXPECT_FLOAT_EQ(squared_l2(a, b), 9.0F);
    EXPECT_FLOAT_EQ(l2_distance(a, b), 3.0F);
    EXPECT_FLOAT_EQ(l2_distance(a, a), 0.0F);
}

}  // namespace
}  // namespace spider::tensor
