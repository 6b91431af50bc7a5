// Parity tests for the vectorized kernel dispatch (tensor/simd.hpp): the
// dispatched squared_l2 / GEMM / axpy paths must agree with the plain-loop
// *_scalar references to 1e-5 over random shapes, with special attention to
// ragged tails that are not multiples of the SIMD width (8/16 floats).
// dot_rows and squared_l2_ids are held to their table's own dot and
// squared_l2 bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"

namespace spider::tensor {
namespace {

Matrix random_matrix(util::Rng& rng, std::size_t rows, std::size_t cols) {
    Matrix m{rows, cols};
    m.randomize_normal(rng, 0.0F, 1.0F);
    return m;
}

std::vector<float> random_vec(util::Rng& rng, std::size_t n) {
    std::vector<float> v(n);
    for (float& x : v) x = static_cast<float>(rng.normal());
    return v;
}

void expect_matrix_near(const Matrix& got, const Matrix& want) {
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.rows(); ++i) {
        for (std::size_t j = 0; j < got.cols(); ++j) {
            const float w = want.at(i, j);
            const float tol = 1e-5F * std::max(1.0F, std::fabs(w));
            EXPECT_NEAR(got.at(i, j), w, tol)
                << "at (" << i << "," << j << ")";
        }
    }
}

// Dims straddling the 8- and 16-float vector widths, plus sub-width sizes.
const std::size_t kRaggedDims[] = {1,  2,  3,  7,  8,  9,  15, 16, 17,
                                   31, 32, 33, 63, 64, 65, 100, 127, 128, 129};

TEST(SimdDispatch, TablesAreWellFormed) {
    const simd::Kernels& active = simd::active_kernels();
    const simd::Kernels& portable = simd::portable_kernels();
    EXPECT_NE(active.name, nullptr);
    EXPECT_NE(portable.name, nullptr);
    EXPECT_NE(active.squared_l2, nullptr);
    EXPECT_NE(active.squared_l2_ids, nullptr);
    EXPECT_NE(active.dot, nullptr);
    EXPECT_NE(active.dot_rows, nullptr);
    EXPECT_NE(active.axpy, nullptr);
    EXPECT_NE(active.gemm_acc, nullptr);
    // avx2_active() must agree with which table got picked.
    EXPECT_EQ(simd::avx2_active(),
              &active == simd::avx2_kernels_or_null());
}

TEST(SimdParity, SquaredL2RaggedTails) {
    util::Rng rng{11};
    for (const std::size_t dim : kRaggedDims) {
        const std::vector<float> a = random_vec(rng, dim);
        const std::vector<float> b = random_vec(rng, dim);
        const float ref = squared_l2_scalar(a, b);
        const float got = squared_l2(a, b);
        EXPECT_NEAR(got, ref, 1e-5F * std::max(1.0F, std::fabs(ref)))
            << "dim=" << dim;
    }
}

TEST(SimdParity, SquaredL2ZeroLengthAndIdentical) {
    const std::vector<float> empty;
    EXPECT_EQ(squared_l2(empty, empty), 0.0F);
    util::Rng rng{12};
    const std::vector<float> v = random_vec(rng, 33);
    EXPECT_EQ(squared_l2(v, v), 0.0F);
}

TEST(SimdParity, DotAgainstScalarReduction) {
    util::Rng rng{13};
    const auto dot = simd::active_kernels().dot;
    for (const std::size_t dim : kRaggedDims) {
        const std::vector<float> a = random_vec(rng, dim);
        const std::vector<float> b = random_vec(rng, dim);
        float ref = 0.0F;
        for (std::size_t i = 0; i < dim; ++i) ref += a[i] * b[i];
        const float got = dot(a.data(), b.data(), dim);
        EXPECT_NEAR(got, ref, 1e-5F * std::max(1.0F, std::fabs(ref)))
            << "dim=" << dim;
    }
}

// Every table's dot_rows must return exactly what the same table's dot
// returns for each row (same accumulators, reduction order and tail), at
// every k across the 8/16-wide steps and every count of rows around the
// four-row block. ldb > k with NaN padding catches reads past a row's k
// floats; the sentinel after out catches writes past `rows`.
TEST(SimdParity, DotRowsBitEqualToDot) {
    std::vector<const simd::Kernels*> tables = {&simd::portable_kernels()};
    if (&simd::active_kernels() != tables.front()) {
        tables.push_back(&simd::active_kernels());
    }
    util::Rng rng{37};
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const simd::Kernels* table : tables) {
        for (std::size_t k = 0; k <= 70; ++k) {
            for (std::size_t rows = 1; rows <= 9; ++rows) {
                const std::size_t ldb = k + 3;
                const std::vector<float> a = random_vec(rng, k);
                std::vector<float> b(rows * ldb, nan);
                for (std::size_t j = 0; j < rows; ++j) {
                    for (std::size_t p = 0; p < k; ++p) {
                        b[j * ldb + p] = static_cast<float>(rng.normal());
                    }
                }
                std::vector<float> out(rows + 1, -1.0F);
                table->dot_rows(a.data(), b.data(), ldb, rows, k, out.data());
                for (std::size_t j = 0; j < rows; ++j) {
                    const float want = table->dot(a.data(), b.data() + j * ldb, k);
                    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[j]),
                              std::bit_cast<std::uint32_t>(want))
                        << table->name << " k=" << k << " rows=" << rows
                        << " row " << j << ": " << out[j] << " vs " << want;
                }
                EXPECT_EQ(out[rows], -1.0F) << table->name << " k=" << k
                                            << " rows=" << rows;
            }
        }
    }
}

// Every table's squared_l2_ids must return exactly what the same table's
// squared_l2 returns for each listed row, at every n across the 8/16-wide
// steps and the dim-32 fast path, over unsorted and repeated ids. With
// stop_below = 0 it writes the whole list; with stop_below just above a
// value in the middle it stops at the first value below it, having written
// every out up to that one and none after (the sentinel).
TEST(SimdParity, SquaredL2IdsBitEqualToSquaredL2) {
    std::vector<const simd::Kernels*> tables = {&simd::portable_kernels()};
    if (&simd::active_kernels() != tables.front()) {
        tables.push_back(&simd::active_kernels());
    }
    const std::vector<std::uint32_t> ids = {5, 0, 5, 3, 6, 1, 1, 2, 4};
    constexpr std::size_t kRows = 7;
    const float sentinel = -1.0F;
    const auto bits = [](float x) { return std::bit_cast<std::uint32_t>(x); };
    util::Rng rng{41};
    for (const simd::Kernels* table : tables) {
        for (std::size_t n = 0; n <= 130; ++n) {
            const std::vector<float> q = random_vec(rng, n);
            const std::vector<float> base = random_vec(rng, kRows * n);
            std::vector<float> want(ids.size());
            for (std::size_t j = 0; j < ids.size(); ++j) {
                want[j] = table->squared_l2(q.data(), base.data() + ids[j] * n, n);
            }
            for (const std::size_t count : {std::size_t{0}, ids.size()}) {
                std::vector<float> out(ids.size() + 1, sentinel);
                const std::size_t got = table->squared_l2_ids(
                    q.data(), base.data(), ids.data(), count, n, 0.0F,
                    out.data());
                EXPECT_EQ(got, count) << table->name << " n=" << n;
                for (std::size_t j = 0; j < count; ++j) {
                    EXPECT_EQ(bits(out[j]), bits(want[j]))
                        << table->name << " n=" << n << " row " << j << ": "
                        << out[j] << " vs " << want[j];
                }
                EXPECT_EQ(out[count], sentinel) << table->name << " n=" << n;
            }
            const std::size_t middle = ids.size() / 2;
            const float stop = std::nextafter(
                want[middle], std::numeric_limits<float>::infinity());
            std::size_t expected = 0;
            while (!(want[expected] < stop)) ++expected;
            std::vector<float> out(ids.size(), sentinel);
            const std::size_t got = table->squared_l2_ids(
                q.data(), base.data(), ids.data(), ids.size(), n, stop,
                out.data());
            EXPECT_EQ(got, expected) << table->name << " n=" << n;
            for (std::size_t j = 0; j < ids.size(); ++j) {
                EXPECT_EQ(bits(out[j]), bits(j <= expected ? want[j] : sentinel))
                    << table->name << " n=" << n << " stop row " << j;
            }
        }
    }
}

TEST(SimdParity, MatmulRandomShapesIncludingRagged) {
    util::Rng rng{17};
    const std::size_t shapes[][3] = {{1, 1, 1},   {2, 3, 4},   {4, 16, 16},
                                     {5, 7, 13},  {8, 32, 10}, {13, 17, 19},
                                     {16, 64, 33}, {31, 33, 47}, {64, 64, 64}};
    for (const auto& s : shapes) {
        const Matrix a = random_matrix(rng, s[0], s[1]);
        const Matrix b = random_matrix(rng, s[1], s[2]);
        Matrix want;
        Matrix got;
        matmul_scalar(a, b, want);
        matmul(a, b, got);
        expect_matrix_near(got, want);
    }
}

TEST(SimdParity, MatmulAtBRandomShapesIncludingRagged) {
    util::Rng rng{19};
    const std::size_t shapes[][3] = {{1, 1, 1},  {3, 2, 5},   {7, 4, 9},
                                     {16, 8, 17}, {33, 5, 31}, {64, 13, 65}};
    for (const auto& s : shapes) {
        // a: [k, m], b: [k, n] -> out: [m, n]
        const Matrix a = random_matrix(rng, s[0], s[1]);
        const Matrix b = random_matrix(rng, s[0], s[2]);
        Matrix want;
        Matrix got;
        matmul_at_b_scalar(a, b, want);
        matmul_at_b(a, b, got);
        expect_matrix_near(got, want);
    }
}

TEST(SimdParity, MatmulABtRandomShapesIncludingRagged) {
    util::Rng rng{23};
    const std::size_t shapes[][3] = {{1, 1, 1},  {2, 5, 3},   {9, 7, 4},
                                     {17, 15, 8}, {31, 33, 5}, {65, 13, 64}};
    for (const auto& s : shapes) {
        // a: [m, k], b: [n, k] -> out: [m, n]
        const Matrix a = random_matrix(rng, s[0], s[1]);
        const Matrix b = random_matrix(rng, s[2], s[1]);
        Matrix want;
        Matrix got;
        matmul_a_bt_scalar(a, b, want);
        matmul_a_bt(a, b, got);
        expect_matrix_near(got, want);
    }
}

TEST(SimdParity, AxpyRaggedTails) {
    util::Rng rng{29};
    for (const std::size_t dim : kRaggedDims) {
        Matrix x = random_matrix(rng, 1, dim);
        Matrix y_ref = random_matrix(rng, 1, dim);
        Matrix y_got{1, dim};
        for (std::size_t j = 0; j < dim; ++j) y_got.at(0, j) = y_ref.at(0, j);
        axpy_scalar(0.37F, x, y_ref);
        axpy(0.37F, x, y_got);
        expect_matrix_near(y_got, y_ref);
    }
}

// The gradient path of nn/ runs entirely through matmul_at_b/matmul_a_bt;
// cross-check a full chain: numerical agreement of (a@b)@c computed with
// dispatched kernels vs. scalar ones compounds any kernel error.
TEST(SimdParity, ChainedGemmStaysWithinTolerance) {
    util::Rng rng{31};
    const Matrix a = random_matrix(rng, 21, 37);
    const Matrix b = random_matrix(rng, 37, 29);
    const Matrix c = random_matrix(rng, 29, 11);
    Matrix ab_ref;
    Matrix abc_ref;
    matmul_scalar(a, b, ab_ref);
    matmul_scalar(ab_ref, c, abc_ref);
    Matrix ab;
    Matrix abc;
    matmul(a, b, ab);
    matmul(ab, c, abc);
    for (std::size_t i = 0; i < abc.rows(); ++i) {
        for (std::size_t j = 0; j < abc.cols(); ++j) {
            const float w = abc_ref.at(i, j);
            EXPECT_NEAR(abc.at(i, j), w,
                        1e-4F * std::max(1.0F, std::fabs(w)));
        }
    }
}

}  // namespace
}  // namespace spider::tensor
