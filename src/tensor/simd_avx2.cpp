// AVX2+FMA kernel table. This translation unit is the only one compiled
// with -mavx2 -mfma (see tensor/CMakeLists.txt); when the toolchain lacks
// those flags it degrades to a stub returning nullptr, and simd.cpp's
// runtime CPU check keeps the vector path off machines without AVX2.

#include "tensor/simd.hpp"

#ifdef __AVX2__

#include <immintrin.h>

#include <cstdint>

namespace spider::tensor::simd {

namespace {

float hsum8(__m256 v) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 sum = _mm_add_ps(lo, hi);
    sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
    sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 0x55));
    return _mm_cvtss_f32(sum);
}

inline float squared_l2_avx2(const float* a, const float* b, std::size_t n) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m256 d0 =
            _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
        const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                                        _mm256_loadu_ps(b + i + 8));
        acc0 = _mm256_fmadd_ps(d0, d0, acc0);
        acc1 = _mm256_fmadd_ps(d1, d1, acc1);
    }
    for (; i + 8 <= n; i += 8) {
        const __m256 d =
            _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
        acc0 = _mm256_fmadd_ps(d, d, acc0);
    }
    float sum = hsum8(_mm256_add_ps(acc0, acc1));
    for (; i < n; ++i) {
        const float d = a[i] - b[i];
        sum += d * d;
    }
    return sum;
}

// squared_l2_avx2 for one query against rows of an arena. At n == 32 (the
// embedding width the simulator indexes) the query stays in four registers
// and each row runs squared_l2_avx2's arithmetic for that width: acc0 takes
// lanes [0,8) then [16,24), acc1 takes [8,16) then [24,32), and the row
// reduces as hsum8(acc0 + acc1) with no tail. Every other width inlines
// squared_l2_avx2 per row. Either way out[j] is bit-equal to
// squared_l2_avx2(q, row, n).
std::size_t squared_l2_ids_avx2(const float* q, const float* base,
                                const std::uint32_t* ids, std::size_t count,
                                std::size_t n, float stop_below, float* out) {
    if (n == 32) {
        const __m256 q0 = _mm256_loadu_ps(q);
        const __m256 q1 = _mm256_loadu_ps(q + 8);
        const __m256 q2 = _mm256_loadu_ps(q + 16);
        const __m256 q3 = _mm256_loadu_ps(q + 24);
        for (std::size_t j = 0; j < count; ++j) {
            const float* b = base + std::size_t{ids[j]} * 32;
            const __m256 d0 = _mm256_sub_ps(q0, _mm256_loadu_ps(b));
            const __m256 d1 = _mm256_sub_ps(q1, _mm256_loadu_ps(b + 8));
            const __m256 d2 = _mm256_sub_ps(q2, _mm256_loadu_ps(b + 16));
            const __m256 d3 = _mm256_sub_ps(q3, _mm256_loadu_ps(b + 24));
            __m256 acc0 = _mm256_fmadd_ps(d0, d0, _mm256_setzero_ps());
            __m256 acc1 = _mm256_fmadd_ps(d1, d1, _mm256_setzero_ps());
            acc0 = _mm256_fmadd_ps(d2, d2, acc0);
            acc1 = _mm256_fmadd_ps(d3, d3, acc1);
            out[j] = hsum8(_mm256_add_ps(acc0, acc1));
            if (out[j] < stop_below) return j;
        }
        return count;
    }
    for (std::size_t j = 0; j < count; ++j) {
        out[j] = squared_l2_avx2(q, base + std::size_t{ids[j]} * n, n);
        if (out[j] < stop_below) return j;
    }
    return count;
}

float dot_avx2(const float* a, const float* b, std::size_t n) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                               acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                               _mm256_loadu_ps(b + i + 8), acc1);
    }
    for (; i + 8 <= n; i += 8) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                               acc0);
    }
    float sum = hsum8(_mm256_add_ps(acc0, acc1));
    for (; i < n; ++i) {
        sum += a[i] * b[i];
    }
    return sum;
}

// hsum8 of four vectors at once, returning [h0, h1, h0, h1 | h2, h3, h2, h3]
// with h_q = hsum8(v_q) bit for bit: each vertical add below adds the same
// two partial sums, first operand first, that hsum8's add of that level
// adds for one vector (lo + hi, then lanes 0/1 + lanes 2/3, then lane 0 +
// lane 1), so the four reductions cost one vector op sequence, not four.
__m256 hsum8x4(__m256 v0, __m256 v1, __m256 v2, __m256 v3) {
    const __m256 t02 = _mm256_add_ps(_mm256_permute2f128_ps(v0, v2, 0x20),
                                     _mm256_permute2f128_ps(v0, v2, 0x31));
    const __m256 t13 = _mm256_add_ps(_mm256_permute2f128_ps(v1, v3, 0x20),
                                     _mm256_permute2f128_ps(v1, v3, 0x31));
    const __m256 u = _mm256_add_ps(
        _mm256_shuffle_ps(t02, t13, _MM_SHUFFLE(1, 0, 1, 0)),
        _mm256_shuffle_ps(t02, t13, _MM_SHUFFLE(3, 2, 3, 2)));
    return _mm256_add_ps(_mm256_shuffle_ps(u, u, _MM_SHUFFLE(2, 0, 2, 0)),
                         _mm256_shuffle_ps(u, u, _MM_SHUFFLE(3, 1, 3, 1)));
}

// dot_avx2 over four rows of b at once: each row keeps dot_avx2's two
// accumulators, its 16/8-wide steps, its hsum8 reduction (via hsum8x4) and
// its scalar tail, so out[r] is bit-equal to dot_avx2(a, b + r*ldb, k); the
// rows only share the loads of a (8 accumulators + 2 a vectors in
// registers).
void dot_rows_avx2(const float* a, const float* b, std::size_t ldb,
                   std::size_t rows, std::size_t k, float* out) {
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        const float* b0 = b + r * ldb;
        const float* b1 = b0 + ldb;
        const float* b2 = b1 + ldb;
        const float* b3 = b2 + ldb;
        __m256 acc00 = _mm256_setzero_ps();
        __m256 acc01 = _mm256_setzero_ps();
        __m256 acc10 = _mm256_setzero_ps();
        __m256 acc11 = _mm256_setzero_ps();
        __m256 acc20 = _mm256_setzero_ps();
        __m256 acc21 = _mm256_setzero_ps();
        __m256 acc30 = _mm256_setzero_ps();
        __m256 acc31 = _mm256_setzero_ps();
        std::size_t i = 0;
        for (; i + 16 <= k; i += 16) {
            const __m256 a0 = _mm256_loadu_ps(a + i);
            const __m256 a1 = _mm256_loadu_ps(a + i + 8);
            acc00 = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b0 + i), acc00);
            acc01 = _mm256_fmadd_ps(a1, _mm256_loadu_ps(b0 + i + 8), acc01);
            acc10 = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b1 + i), acc10);
            acc11 = _mm256_fmadd_ps(a1, _mm256_loadu_ps(b1 + i + 8), acc11);
            acc20 = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b2 + i), acc20);
            acc21 = _mm256_fmadd_ps(a1, _mm256_loadu_ps(b2 + i + 8), acc21);
            acc30 = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b3 + i), acc30);
            acc31 = _mm256_fmadd_ps(a1, _mm256_loadu_ps(b3 + i + 8), acc31);
        }
        for (; i + 8 <= k; i += 8) {
            const __m256 a0 = _mm256_loadu_ps(a + i);
            acc00 = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b0 + i), acc00);
            acc10 = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b1 + i), acc10);
            acc20 = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b2 + i), acc20);
            acc30 = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b3 + i), acc30);
        }
        alignas(32) float sums[8];
        _mm256_store_ps(sums, hsum8x4(_mm256_add_ps(acc00, acc01),
                                      _mm256_add_ps(acc10, acc11),
                                      _mm256_add_ps(acc20, acc21),
                                      _mm256_add_ps(acc30, acc31)));
        const float* rows4[4] = {b0, b1, b2, b3};
        const std::size_t lane[4] = {0, 1, 4, 5};
        for (std::size_t q = 0; q < 4; ++q) {
            float sum = sums[lane[q]];
            for (std::size_t t = i; t < k; ++t) {
                sum += a[t] * rows4[q][t];
            }
            out[r + q] = sum;
        }
    }
    for (; r < rows; ++r) {
        out[r] = dot_avx2(a, b + r * ldb, k);
    }
}

void axpy_avx2(float alpha, const float* x, float* y, std::size_t n) {
    const __m256 va = _mm256_set1_ps(alpha);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 vy = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                                          _mm256_loadu_ps(y + i));
        _mm256_storeu_ps(y + i, vy);
    }
    for (; i < n; ++i) {
        y[i] += alpha * x[i];
    }
}

// 4x16 register-blocked microkernel: four C rows x two ymm columns stay in
// registers across the whole k loop (8 accumulators + 2 B loads + 1
// broadcast = 11 of 16 ymm registers), so each A element and B vector is
// touched once per tile.
void gemm_tile_4x16(std::size_t k, const float* a, std::size_t a_rs,
                    std::size_t a_cs, std::size_t i0, const float* b,
                    std::size_t ldb, std::size_t j0, float* c,
                    std::size_t ldc) {
    __m256 acc[4][2];
    for (auto& row : acc) {
        row[0] = _mm256_setzero_ps();
        row[1] = _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < k; ++p) {
        const float* b_row = b + p * ldb + j0;
        const __m256 b0 = _mm256_loadu_ps(b_row);
        const __m256 b1 = _mm256_loadu_ps(b_row + 8);
        const float* a_col = a + p * a_cs;
        for (std::size_t r = 0; r < 4; ++r) {
            const __m256 va = _mm256_set1_ps(a_col[(i0 + r) * a_rs]);
            acc[r][0] = _mm256_fmadd_ps(va, b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_ps(va, b1, acc[r][1]);
        }
    }
    for (std::size_t r = 0; r < 4; ++r) {
        float* c_row = c + (i0 + r) * ldc + j0;
        _mm256_storeu_ps(c_row, _mm256_add_ps(_mm256_loadu_ps(c_row), acc[r][0]));
        _mm256_storeu_ps(c_row + 8,
                         _mm256_add_ps(_mm256_loadu_ps(c_row + 8), acc[r][1]));
    }
}

// 1x16 edge kernel for the <4 leftover rows of an i panel.
void gemm_tile_1x16(std::size_t k, const float* a, std::size_t a_rs,
                    std::size_t a_cs, std::size_t i, const float* b,
                    std::size_t ldb, std::size_t j0, float* c,
                    std::size_t ldc) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
        const float* b_row = b + p * ldb + j0;
        const __m256 va = _mm256_set1_ps(a[i * a_rs + p * a_cs]);
        acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b_row), acc0);
        acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(b_row + 8), acc1);
    }
    float* c_row = c + i * ldc + j0;
    _mm256_storeu_ps(c_row, _mm256_add_ps(_mm256_loadu_ps(c_row), acc0));
    _mm256_storeu_ps(c_row + 8,
                     _mm256_add_ps(_mm256_loadu_ps(c_row + 8), acc1));
}

// 4x8 tile for an 8-wide column strip (narrow right-hand sides, e.g. the
// 10-class logits GEMM, would otherwise fall entirely off the vector path).
void gemm_tile_4x8(std::size_t k, const float* a, std::size_t a_rs,
                   std::size_t a_cs, std::size_t i0, const float* b,
                   std::size_t ldb, std::size_t j0, float* c,
                   std::size_t ldc) {
    __m256 acc[4];
    for (auto& v : acc) v = _mm256_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
        const __m256 bv = _mm256_loadu_ps(b + p * ldb + j0);
        const float* a_col = a + p * a_cs;
        for (std::size_t r = 0; r < 4; ++r) {
            const __m256 va = _mm256_set1_ps(a_col[(i0 + r) * a_rs]);
            acc[r] = _mm256_fmadd_ps(va, bv, acc[r]);
        }
    }
    for (std::size_t r = 0; r < 4; ++r) {
        float* c_row = c + (i0 + r) * ldc + j0;
        _mm256_storeu_ps(c_row, _mm256_add_ps(_mm256_loadu_ps(c_row), acc[r]));
    }
}

void gemm_tile_1x8(std::size_t k, const float* a, std::size_t a_rs,
                   std::size_t a_cs, std::size_t i, const float* b,
                   std::size_t ldb, std::size_t j0, float* c,
                   std::size_t ldc) {
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
        const __m256 va = _mm256_set1_ps(a[i * a_rs + p * a_cs]);
        acc = _mm256_fmadd_ps(va, _mm256_loadu_ps(b + p * ldb + j0), acc);
    }
    float* c_row = c + i * ldc + j0;
    _mm256_storeu_ps(c_row, _mm256_add_ps(_mm256_loadu_ps(c_row), acc));
}

// Masked tiles for the final 1..7 columns: maskload/maskstore keep the
// strip on the FMA path without reading or writing past row ends.
__m256i tail_mask(std::size_t rem) {
    alignas(32) std::int32_t lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t j = 0; j < rem; ++j) lanes[j] = -1;
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(lanes));
}

void gemm_tile_4xm(std::size_t k, const float* a, std::size_t a_rs,
                   std::size_t a_cs, std::size_t i0, const float* b,
                   std::size_t ldb, std::size_t j0, float* c, std::size_t ldc,
                   __m256i mask) {
    __m256 acc[4];
    for (auto& v : acc) v = _mm256_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
        const __m256 bv = _mm256_maskload_ps(b + p * ldb + j0, mask);
        const float* a_col = a + p * a_cs;
        for (std::size_t r = 0; r < 4; ++r) {
            const __m256 va = _mm256_set1_ps(a_col[(i0 + r) * a_rs]);
            acc[r] = _mm256_fmadd_ps(va, bv, acc[r]);
        }
    }
    for (std::size_t r = 0; r < 4; ++r) {
        float* c_row = c + (i0 + r) * ldc + j0;
        const __m256 cv = _mm256_maskload_ps(c_row, mask);
        _mm256_maskstore_ps(c_row, mask, _mm256_add_ps(cv, acc[r]));
    }
}

void gemm_tile_1xm(std::size_t k, const float* a, std::size_t a_rs,
                   std::size_t a_cs, std::size_t i, const float* b,
                   std::size_t ldb, std::size_t j0, float* c, std::size_t ldc,
                   __m256i mask) {
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
        const __m256 va = _mm256_set1_ps(a[i * a_rs + p * a_cs]);
        acc = _mm256_fmadd_ps(va, _mm256_maskload_ps(b + p * ldb + j0, mask),
                              acc);
    }
    float* c_row = c + i * ldc + j0;
    const __m256 cv = _mm256_maskload_ps(c_row, mask);
    _mm256_maskstore_ps(c_row, mask, _mm256_add_ps(cv, acc));
}

void gemm_acc_avx2(std::size_t m, std::size_t n, std::size_t k,
                   const float* a, std::size_t a_rs, std::size_t a_cs,
                   const float* b, std::size_t ldb, float* c,
                   std::size_t ldc) {
    const std::size_t n16 = n - n % 16;
    for (std::size_t j0 = 0; j0 < n16; j0 += 16) {
        std::size_t i = 0;
        for (; i + 4 <= m; i += 4) {
            gemm_tile_4x16(k, a, a_rs, a_cs, i, b, ldb, j0, c, ldc);
        }
        for (; i < m; ++i) {
            gemm_tile_1x16(k, a, a_rs, a_cs, i, b, ldb, j0, c, ldc);
        }
    }
    std::size_t j0 = n16;
    if (j0 + 8 <= n) {
        std::size_t i = 0;
        for (; i + 4 <= m; i += 4) {
            gemm_tile_4x8(k, a, a_rs, a_cs, i, b, ldb, j0, c, ldc);
        }
        for (; i < m; ++i) {
            gemm_tile_1x8(k, a, a_rs, a_cs, i, b, ldb, j0, c, ldc);
        }
        j0 += 8;
    }
    if (j0 < n) {
        const __m256i mask = tail_mask(n - j0);
        std::size_t i = 0;
        for (; i + 4 <= m; i += 4) {
            gemm_tile_4xm(k, a, a_rs, a_cs, i, b, ldb, j0, c, ldc, mask);
        }
        for (; i < m; ++i) {
            gemm_tile_1xm(k, a, a_rs, a_cs, i, b, ldb, j0, c, ldc, mask);
        }
    }
}

constexpr Kernels kAvx2{
    "avx2+fma", squared_l2_avx2, squared_l2_ids_avx2, dot_avx2,
    dot_rows_avx2, axpy_avx2, gemm_acc_avx2,
};

}  // namespace

const Kernels* avx2_kernels_or_null() { return &kAvx2; }

}  // namespace spider::tensor::simd

#else  // !__AVX2__

namespace spider::tensor::simd {

const Kernels* avx2_kernels_or_null() { return nullptr; }

}  // namespace spider::tensor::simd

#endif
