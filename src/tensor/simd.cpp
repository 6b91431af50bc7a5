#include "tensor/simd.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>

namespace spider::tensor::simd {

namespace {

// ---- Portable kernels: unrolled with independent accumulators so the
// reduction has instruction-level parallelism even without explicit SIMD,
// and so -O2/-O3 auto-vectorization has straight-line bodies to work with.

inline float squared_l2_portable(const float* a, const float* b,
                                std::size_t n) {
    float acc0 = 0.0F;
    float acc1 = 0.0F;
    float acc2 = 0.0F;
    float acc3 = 0.0F;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float d0 = a[i] - b[i];
        const float d1 = a[i + 1] - b[i + 1];
        const float d2 = a[i + 2] - b[i + 2];
        const float d3 = a[i + 3] - b[i + 3];
        acc0 += d0 * d0;
        acc1 += d1 * d1;
        acc2 += d2 * d2;
        acc3 += d3 * d3;
    }
    for (; i < n; ++i) {
        const float d = a[i] - b[i];
        acc0 += d * d;
    }
    return (acc0 + acc1) + (acc2 + acc3);
}

std::size_t squared_l2_ids_portable(const float* q, const float* base,
                                    const std::uint32_t* ids,
                                    std::size_t count, std::size_t n,
                                    float stop_below, float* out) {
    // squared_l2_portable inlined per row: same arithmetic, no indirect
    // call.
    for (std::size_t j = 0; j < count; ++j) {
        out[j] = squared_l2_portable(q, base + std::size_t{ids[j]} * n, n);
        if (out[j] < stop_below) return j;
    }
    return count;
}

inline float dot_portable(const float* a, const float* b, std::size_t n) {
    float acc0 = 0.0F;
    float acc1 = 0.0F;
    float acc2 = 0.0F;
    float acc3 = 0.0F;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        acc0 += a[i] * b[i];
        acc1 += a[i + 1] * b[i + 1];
        acc2 += a[i + 2] * b[i + 2];
        acc3 += a[i + 3] * b[i + 3];
    }
    for (; i < n; ++i) {
        acc0 += a[i] * b[i];
    }
    return (acc0 + acc1) + (acc2 + acc3);
}

void dot_rows_portable(const float* a, const float* b, std::size_t ldb,
                       std::size_t rows, std::size_t k, float* out) {
    // dot_portable inlined per row: same arithmetic, no indirect call.
    for (std::size_t j = 0; j < rows; ++j) {
        out[j] = dot_portable(a, b + j * ldb, k);
    }
}

void axpy_portable(float alpha, const float* x, float* y, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        y[i] += alpha * x[i];
    }
}

void gemm_acc_portable(std::size_t m, std::size_t n, std::size_t k,
                       const float* a, std::size_t a_rs, std::size_t a_cs,
                       const float* b, std::size_t ldb, float* c,
                       std::size_t ldc) {
    // Row-blocked i-k-j: four output rows share one streaming pass over
    // each B row, quartering B traffic and giving the inner loop four
    // independent FMA chains.
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
        float* c0 = c + i * ldc;
        float* c1 = c0 + ldc;
        float* c2 = c1 + ldc;
        float* c3 = c2 + ldc;
        for (std::size_t p = 0; p < k; ++p) {
            const float* a_col = a + p * a_cs;
            const float a0 = a_col[i * a_rs];
            const float a1 = a_col[(i + 1) * a_rs];
            const float a2 = a_col[(i + 2) * a_rs];
            const float a3 = a_col[(i + 3) * a_rs];
            const float* b_row = b + p * ldb;
            for (std::size_t j = 0; j < n; ++j) {
                const float bv = b_row[j];
                c0[j] += a0 * bv;
                c1[j] += a1 * bv;
                c2[j] += a2 * bv;
                c3[j] += a3 * bv;
            }
        }
    }
    for (; i < m; ++i) {
        float* c_row = c + i * ldc;
        for (std::size_t p = 0; p < k; ++p) {
            const float aip = a[i * a_rs + p * a_cs];
            const float* b_row = b + p * ldb;
            for (std::size_t j = 0; j < n; ++j) {
                c_row[j] += aip * b_row[j];
            }
        }
    }
}

constexpr Kernels kPortable{
    "portable",        squared_l2_portable, squared_l2_ids_portable,
    dot_portable,      dot_rows_portable,   axpy_portable,
    gemm_acc_portable,
};

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

const Kernels& resolve() {
    const char* env = std::getenv("SPIDER_SIMD");
    if (env != nullptr && std::string_view{env} == "scalar") {
        return kPortable;
    }
    if (cpu_has_avx2_fma()) {
        if (const Kernels* avx2 = avx2_kernels_or_null()) {
            return *avx2;
        }
    }
    return kPortable;
}

}  // namespace

const Kernels& portable_kernels() { return kPortable; }

const Kernels& active_kernels() {
    static const Kernels& kernels = resolve();
    return kernels;
}

bool avx2_active() { return &active_kernels() == avx2_kernels_or_null(); }

}  // namespace spider::tensor::simd
