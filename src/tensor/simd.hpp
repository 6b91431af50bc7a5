#pragma once

// Runtime SIMD dispatch for the hot tensor kernels. Every distance the ANN
// substrate computes and every GEMM the nn/ training loop issues funnels
// through the function-pointer table below, resolved once per process:
//
//   - portable_kernels(): multi-accumulator unrolled loops that plain
//     -O2 code generation handles well (and that auto-vectorize where the
//     compiler is allowed to) — the fallback on any CPU.
//   - an AVX2+FMA table (simd_avx2.cpp, compiled with -mavx2 -mfma when the
//     toolchain supports it) selected at runtime iff the executing CPU
//     reports both features, so the same binary runs on older x86-64.
//
// `SPIDER_SIMD=scalar` in the environment pins the portable table — the
// before/after axis of bench_micro_kernels. The plain-loop *_scalar
// reference implementations live in ops.hpp; parity tests compare the
// dispatched kernels against them to 1e-5. `dot_rows` and `squared_l2_ids`
// have a stricter contract, checked bit for bit: within one table they
// return exactly what that table's `dot` and `squared_l2` return for each
// row.

#include <cstddef>
#include <cstdint>

namespace spider::tensor::simd {

/// One ISA's implementation of the hot kernels. All pointers are non-null.
struct Kernels {
    /// Human-readable ISA tag ("portable", "avx2+fma") for logs/benches.
    const char* name;

    /// sum_i (a[i] - b[i])^2
    float (*squared_l2)(const float* a, const float* b, std::size_t n);

    /// out[j] = squared_l2(q, base + ids[j]*n, n) for j = 0, 1, ... in
    /// order, bit-equal to this table's `squared_l2`. Returns the first j
    /// with out[j] < stop_below, after writing out[0..j], or `count` when
    /// there is none. stop_below = 0 never stops: squared distances are
    /// >= +0. This is one query against many rows of a row-major arena
    /// (an HNSW link list), with one indirect call per list.
    std::size_t (*squared_l2_ids)(const float* q, const float* base,
                                  const std::uint32_t* ids, std::size_t count,
                                  std::size_t n, float stop_below, float* out);

    /// sum_i a[i] * b[i]
    float (*dot)(const float* a, const float* b, std::size_t n);

    /// out[j] = dot(a, b + j*ldb, k) for j < rows, bit-equal to this table's
    /// `dot`: every row keeps dot's accumulators, reduction order and
    /// scalar tail (rows may share the loads of `a`). This is `a @ B^T` for
    /// one row of a; it does not go through gemm_acc, whose accumulation
    /// order differs.
    void (*dot_rows)(const float* a, const float* b, std::size_t ldb,
                     std::size_t rows, std::size_t k, float* out);

    /// y[i] += alpha * x[i]
    void (*axpy)(float alpha, const float* x, float* y, std::size_t n);

    /// Register-blocked GEMM accumulate: c[i][j] += sum_p A(i,p) * B(p,j)
    /// with A(i,p) = a[i*a_rs + p*a_cs] and B(p,j) = b[p*ldb + j]. The
    /// strided A access lets one kernel serve both `a @ b` (a_rs=k, a_cs=1)
    /// and `a^T @ b` (a_rs=1, a_cs=m); B and C are dense row-major. C is
    /// accumulated into, so callers zero it first. C must not alias A or B.
    void (*gemm_acc)(std::size_t m, std::size_t n, std::size_t k,
                     const float* a, std::size_t a_rs, std::size_t a_cs,
                     const float* b, std::size_t ldb, float* c,
                     std::size_t ldc);
};

/// The portable fallback table (always available).
[[nodiscard]] const Kernels& portable_kernels();

/// The table in use for this process: AVX2+FMA when compiled in and the
/// CPU supports it, else portable. Resolved once; thread-safe.
[[nodiscard]] const Kernels& active_kernels();

/// True when active_kernels() is the AVX2+FMA table.
[[nodiscard]] bool avx2_active();

/// Defined in simd_avx2.cpp: the AVX2+FMA table, or nullptr when that
/// translation unit was built without AVX2 support. Callers must still
/// check CPU features before using it — active_kernels() does.
[[nodiscard]] const Kernels* avx2_kernels_or_null();

}  // namespace spider::tensor::simd
