#include "tensor/ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "tensor/simd.hpp"

namespace spider::tensor {

void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
    assert(a.cols() == b.rows());
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.cols();
    if (out.rows() != m || out.cols() != n) out = Matrix{m, n};
    out.zero();
    simd::active_kernels().gemm_acc(m, n, k, a.data(), k, 1, b.data(), n,
                                    out.data(), n);
}

void matmul_at_b(const Matrix& a, const Matrix& b, Matrix& out) {
    assert(a.rows() == b.rows());
    const std::size_t k = a.rows();
    const std::size_t m = a.cols();
    const std::size_t n = b.cols();
    if (out.rows() != m || out.cols() != n) out = Matrix{m, n};
    out.zero();
    // A^T is a with swapped strides; the strided-A microkernel absorbs it.
    simd::active_kernels().gemm_acc(m, n, k, a.data(), 1, m, b.data(), n,
                                    out.data(), n);
}

void matmul_a_bt(const Matrix& a, const Matrix& b, Matrix& out) {
    assert(a.cols() == b.cols());
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.rows();
    if (out.rows() != m || out.cols() != n) out = Matrix{m, n};
    // One kernel call per output row; each element is bit-equal to the
    // table's dot(a_row, b_row, k).
    const auto dot_rows = simd::active_kernels().dot_rows;
    for (std::size_t i = 0; i < m; ++i) {
        dot_rows(a.row(i).data(), b.data(), k, n, k, out.row(i).data());
    }
}

void matmul_scalar(const Matrix& a, const Matrix& b, Matrix& out) {
    assert(a.cols() == b.rows());
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.cols();
    if (out.rows() != m || out.cols() != n) out = Matrix{m, n};
    out.zero();
    // i-k-j loop order: the inner loop streams both b and out rows.
    for (std::size_t i = 0; i < m; ++i) {
        float* out_row = out.row(i).data();
        const float* a_row = a.row(i).data();
        for (std::size_t p = 0; p < k; ++p) {
            const float aip = a_row[p];
            if (aip == 0.0F) continue;
            const float* b_row = b.row(p).data();
            for (std::size_t j = 0; j < n; ++j) {
                out_row[j] += aip * b_row[j];
            }
        }
    }
}

void matmul_at_b_scalar(const Matrix& a, const Matrix& b, Matrix& out) {
    assert(a.rows() == b.rows());
    const std::size_t k = a.rows();
    const std::size_t m = a.cols();
    const std::size_t n = b.cols();
    if (out.rows() != m || out.cols() != n) out = Matrix{m, n};
    out.zero();
    for (std::size_t p = 0; p < k; ++p) {
        const float* a_row = a.row(p).data();
        const float* b_row = b.row(p).data();
        for (std::size_t i = 0; i < m; ++i) {
            const float aip = a_row[i];
            if (aip == 0.0F) continue;
            float* out_row = out.row(i).data();
            for (std::size_t j = 0; j < n; ++j) {
                out_row[j] += aip * b_row[j];
            }
        }
    }
}

void matmul_a_bt_scalar(const Matrix& a, const Matrix& b, Matrix& out) {
    assert(a.cols() == b.cols());
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.rows();
    if (out.rows() != m || out.cols() != n) out = Matrix{m, n};
    for (std::size_t i = 0; i < m; ++i) {
        const float* a_row = a.row(i).data();
        float* out_row = out.row(i).data();
        for (std::size_t j = 0; j < n; ++j) {
            const float* b_row = b.row(j).data();
            float sum = 0.0F;
            for (std::size_t p = 0; p < k; ++p) {
                sum += a_row[p] * b_row[p];
            }
            out_row[j] = sum;
        }
    }
}

void add_row_vector(Matrix& m, std::span<const float> bias) {
    assert(bias.size() == m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i) {
        float* row = m.row(i).data();
        for (std::size_t j = 0; j < m.cols(); ++j) {
            row[j] += bias[j];
        }
    }
}

void relu(const Matrix& x, Matrix& y) {
    if (y.rows() != x.rows() || y.cols() != x.cols()) {
        y = Matrix{x.rows(), x.cols()};
    }
    const std::span<const float> in = x.flat();
    const std::span<float> out = y.flat();
    for (std::size_t i = 0; i < in.size(); ++i) {
        out[i] = in[i] > 0.0F ? in[i] : 0.0F;
    }
}

void relu_backward(const Matrix& x, const Matrix& dy, Matrix& dx) {
    assert(x.rows() == dy.rows() && x.cols() == dy.cols());
    if (dx.rows() != x.rows() || dx.cols() != x.cols()) {
        dx = Matrix{x.rows(), x.cols()};
    }
    const std::span<const float> xin = x.flat();
    const std::span<const float> grad = dy.flat();
    const std::span<float> out = dx.flat();
    for (std::size_t i = 0; i < xin.size(); ++i) {
        // Load grad[i] unconditionally: the select then compiles to a
        // blend, not a branch that mispredicts on mixed-sign activations.
        const float g = grad[i];
        out[i] = xin[i] > 0.0F ? g : 0.0F;
    }
}

void softmax_rows(const Matrix& logits, Matrix& probs) {
    if (probs.rows() != logits.rows() || probs.cols() != logits.cols()) {
        probs = Matrix{logits.rows(), logits.cols()};
    }
    for (std::size_t i = 0; i < logits.rows(); ++i) {
        const std::span<const float> in = logits.row(i);
        const std::span<float> out = probs.row(i);
        const float maxv = *std::max_element(in.begin(), in.end());
        float sum = 0.0F;
        for (std::size_t j = 0; j < in.size(); ++j) {
            out[j] = std::exp(in[j] - maxv);
            sum += out[j];
        }
        for (float& v : out) {
            v /= sum;
        }
    }
}

double cross_entropy(const Matrix& probs,
                     std::span<const std::uint32_t> labels) {
    assert(labels.size() == probs.rows());
    double total = 0.0;
    for (std::size_t i = 0; i < probs.rows(); ++i) {
        const float p = std::max(probs.at(i, labels[i]), 1e-12F);
        total -= std::log(static_cast<double>(p));
    }
    return total / static_cast<double>(probs.rows());
}

std::vector<double> cross_entropy_per_row(
    const Matrix& probs, std::span<const std::uint32_t> labels) {
    assert(labels.size() == probs.rows());
    std::vector<double> losses(probs.rows());
    for (std::size_t i = 0; i < probs.rows(); ++i) {
        const float p = std::max(probs.at(i, labels[i]), 1e-12F);
        losses[i] = -std::log(static_cast<double>(p));
    }
    return losses;
}

void softmax_cross_entropy_backward(const Matrix& probs,
                                    std::span<const std::uint32_t> labels,
                                    Matrix& dlogits) {
    assert(labels.size() == probs.rows());
    if (dlogits.rows() != probs.rows() || dlogits.cols() != probs.cols()) {
        dlogits = Matrix{probs.rows(), probs.cols()};
    }
    const float inv_batch = 1.0F / static_cast<float>(probs.rows());
    for (std::size_t i = 0; i < probs.rows(); ++i) {
        const std::span<const float> p = probs.row(i);
        const std::span<float> g = dlogits.row(i);
        for (std::size_t j = 0; j < p.size(); ++j) {
            g[j] = p[j] * inv_batch;
        }
        g[labels[i]] -= inv_batch;
    }
}

std::vector<std::uint32_t> argmax_rows(const Matrix& m) {
    std::vector<std::uint32_t> out(m.rows());
    for (std::size_t i = 0; i < m.rows(); ++i) {
        const std::span<const float> row = m.row(i);
        out[i] = static_cast<std::uint32_t>(
            std::max_element(row.begin(), row.end()) - row.begin());
    }
    return out;
}

void axpy(float alpha, const Matrix& x, Matrix& y) {
    assert(x.rows() == y.rows() && x.cols() == y.cols());
    simd::active_kernels().axpy(alpha, x.data(), y.data(), x.size());
}

float squared_l2(std::span<const float> a, std::span<const float> b) {
    assert(a.size() == b.size());
    return simd::active_kernels().squared_l2(a.data(), b.data(), a.size());
}

float l2_distance(std::span<const float> a, std::span<const float> b) {
    return std::sqrt(squared_l2(a, b));
}

float squared_l2_scalar(std::span<const float> a, std::span<const float> b) {
    assert(a.size() == b.size());
    float sum = 0.0F;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const float d = a[i] - b[i];
        sum += d * d;
    }
    return sum;
}

float l2_distance_scalar(std::span<const float> a, std::span<const float> b) {
    return std::sqrt(squared_l2_scalar(a, b));
}

void axpy_scalar(float alpha, const Matrix& x, Matrix& y) {
    assert(x.rows() == y.rows() && x.cols() == y.cols());
    const std::span<const float> xin = x.flat();
    const std::span<float> yout = y.flat();
    for (std::size_t i = 0; i < xin.size(); ++i) {
        yout[i] += alpha * xin[i];
    }
}

}  // namespace spider::tensor
