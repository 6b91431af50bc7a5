// Before/after microbench for the vectorized hot path (ISSUE 1):
//
//   - squared_l2 at ANN-relevant dims      -> GB/s   (scalar vs dispatched)
//   - one query against a link list         -> ns per distance (a loop of
//     squared_l2 calls vs one squared_l2_ids call, dispatched table)
//   - GEMM at training-loop shapes          -> GFLOP/s (scalar vs dispatched),
//     including dY @ W^T at the three backward shapes of the MLP
//   - one MLP training step                 -> us per forward and per
//     backward_and_step on the dispatched table (run under
//     SPIDER_SIMD=scalar for the portable one)
//   - graph-IS batch scoring                -> samples/s (serial vs
//     score_batch over a thread pool, --threads N)
//
// Prints human-readable tables and writes BENCH_kernels.json (path
// overridable as argv), with the git sha, ISA, scoring and hardware
// threads and build type, so perf baselines are diffable across PRs.
//
// Usage: bench_micro_kernels [--threads N] [--out BENCH_kernels.json]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ann/hnsw.hpp"
#include "bench_common.hpp"
#include "core/graph_scorer.hpp"
#include "nn/mlp_classifier.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace spider;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `body` enough times to pass ~80ms of wall clock and returns the
/// per-iteration time in seconds (median-free but warm: one calibration
/// pass then one timed pass).
template <typename F>
double time_per_iter(F&& body) {
    // Calibrate iteration count.
    std::size_t iters = 1;
    for (;;) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < iters; ++i) body();
        const double elapsed = seconds_since(start);
        if (elapsed > 0.02 || iters > (1ULL << 30)) break;
        iters *= 8;
    }
    // Timed pass at ~4x the calibrated count.
    iters *= 4;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) body();
    return seconds_since(start) / static_cast<double>(iters);
}

struct JsonWriter {
    std::ostringstream out;
    bool first_section = true;

    void open() { out << "{\n"; }
    void section(const std::string& name) {
        if (!first_section) out << ",\n";
        first_section = false;
        out << "  \"" << name << "\": [\n";
    }
    void close_section() { out << "\n  ]"; }
    void close(std::size_t threads) {
        out << ",\n  \"threads\": " << threads << ",\n"
            << bench::provenance_json() << "\n}\n";
    }
};

double median(std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

struct MlpStepUs {
    double forward = 0.0;
    double backward = 0.0;
};

/// Median microseconds of one forward and one backward_and_step of the
/// classifier both training workloads run (32 -> 64 -> 32 -> 10, the
/// MlpConfig defaults) at batch 128, on this process's kernel table. Each
/// step gets fresh inputs; a zero learning rate keeps the weights, and so
/// the mix of activation signs, stationary.
MlpStepUs time_mlp_step() {
    constexpr std::size_t kBatch = 128;
    constexpr int kWarmup = 50;
    constexpr int kSteps = 1000;
    const nn::MlpConfig config;
    nn::MlpClassifier model{config};
    model.set_learning_rate(0.0F);
    util::Rng rng{7};
    tensor::Matrix x{kBatch, config.input_dim};
    std::vector<std::uint32_t> labels(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
        labels[i] = static_cast<std::uint32_t>(i % config.num_classes);
    }
    std::vector<double> forward_us;
    std::vector<double> backward_us;
    for (int step = 0; step < kWarmup + kSteps; ++step) {
        x.randomize_normal(rng, 0.0F, 1.0F);
        const auto t0 = Clock::now();
        (void)model.forward(x, labels);
        const auto t1 = Clock::now();
        model.backward_and_step(labels);
        const auto t2 = Clock::now();
        if (step < kWarmup) continue;
        forward_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        backward_us.push_back(
            std::chrono::duration<double, std::micro>(t2 - t1).count());
    }
    return {median(forward_us), median(backward_us)};
}

std::vector<float> random_vec(util::Rng& rng, std::size_t n) {
    std::vector<float> v(n);
    for (float& x : v) x = static_cast<float>(rng.normal());
    return v;
}

}  // namespace

int main(int argc, char** argv) {
    std::size_t threads = 8;
    std::string out_path = "BENCH_kernels.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads" && i + 1 < argc) {
            threads = static_cast<std::size_t>(std::stoul(argv[++i]));
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: bench_micro_kernels [--threads N] [--out F]\n";
            return 2;
        }
    }

    const char* isa = tensor::simd::active_kernels().name;
    std::cout << "### bench_micro_kernels — vectorized hot-path baseline\n"
              << "### dispatched ISA: " << isa << ", scoring threads: "
              << threads << "\n\n";

    JsonWriter json;
    json.open();

    // ---- squared_l2: GB/s over both input vectors.
    util::Table dist_table{"squared_l2 throughput (scalar vs dispatched)"};
    dist_table.set_header(
        {"dim", "scalar GB/s", "simd GB/s", "speedup"});
    json.section("squared_l2");
    bool first = true;
    util::Rng rng{2025};
    for (const std::size_t dim : {32UL, 64UL, 128UL, 256UL}) {
        const std::vector<float> a = random_vec(rng, dim);
        const std::vector<float> b = random_vec(rng, dim);
        // volatile sink defeats dead-code elimination across iterations.
        volatile float sink = 0.0F;
        const double t_scalar = time_per_iter(
            [&] { sink = sink + tensor::squared_l2_scalar(a, b); });
        const double t_simd =
            time_per_iter([&] { sink = sink + tensor::squared_l2(a, b); });
        const double bytes = 2.0 * static_cast<double>(dim) * sizeof(float);
        const double gbps_scalar = bytes / t_scalar / 1e9;
        const double gbps_simd = bytes / t_simd / 1e9;
        const double speedup = t_scalar / t_simd;
        dist_table.add_row({std::to_string(dim),
                            util::Table::fmt(gbps_scalar, 2),
                            util::Table::fmt(gbps_simd, 2),
                            util::Table::fmt(speedup, 2)});
        if (!first) json.out << ",\n";
        first = false;
        json.out << "    {\"dim\": " << dim << ", \"scalar_gbps\": "
                 << gbps_scalar << ", \"simd_gbps\": " << gbps_simd
                 << ", \"speedup\": " << speedup << "}";
    }
    json.close_section();
    dist_table.print(std::cout);

    // ---- squared_l2_ids: one query against one link list of arena rows
    // (24 ids, a full level-0 list at M = 12) in one call, against a loop
    // of per-call squared_l2 through the same table, which is how HNSW
    // computed a list before the one-to-many kernel.
    const tensor::simd::Kernels& kernels = tensor::simd::active_kernels();
    util::Table ids_table{"one-to-many squared_l2 (" + std::string{isa} +
                          ", per-call loop vs squared_l2_ids)"};
    ids_table.set_header({"dim", "loop ns/dist", "ids ns/dist", "speedup"});
    json.section("squared_l2_ids");
    first = true;
    for (const std::size_t dim : {32UL, 128UL}) {
        constexpr std::size_t kRows = 2048;
        constexpr std::size_t kList = 24;
        const std::vector<float> base = random_vec(rng, kRows * dim);
        const std::vector<float> q = random_vec(rng, dim);
        std::vector<std::uint32_t> ids(kList);
        for (std::uint32_t& id : ids) {
            id = static_cast<std::uint32_t>(rng.uniform_index(kRows));
        }
        std::vector<float> out(kList);
        volatile float sink = 0.0F;
        const double t_loop = time_per_iter([&] {
            for (std::size_t j = 0; j < kList; ++j) {
                out[j] = kernels.squared_l2(q.data(),
                                            base.data() + ids[j] * dim, dim);
            }
            sink = sink + out[kList - 1];
        });
        const double t_ids = time_per_iter([&] {
            kernels.squared_l2_ids(q.data(), base.data(), ids.data(), kList,
                                   dim, 0.0F, out.data());
            sink = sink + out[kList - 1];
        });
        const double ns_loop = t_loop * 1e9 / static_cast<double>(kList);
        const double ns_ids = t_ids * 1e9 / static_cast<double>(kList);
        const double speedup = t_loop / t_ids;
        ids_table.add_row({std::to_string(dim), util::Table::fmt(ns_loop, 2),
                           util::Table::fmt(ns_ids, 2),
                           util::Table::fmt(speedup, 2)});
        if (!first) json.out << ",\n";
        first = false;
        json.out << "    {\"dim\": " << dim << ", \"list\": " << kList
                 << ", \"loop_ns_per_dist\": " << ns_loop
                 << ", \"ids_ns_per_dist\": " << ns_ids
                 << ", \"speedup\": " << speedup << "}";
    }
    json.close_section();
    ids_table.print(std::cout);

    // ---- GEMM: GFLOP/s at the shapes the MLP training loop issues
    // (batch x hidden forward, gradient transposes, and dY @ W^T at the
    // head, second and first Linear of the backward pass) plus a square
    // stress.
    util::Table gemm_table{"GEMM throughput (scalar vs dispatched)"};
    gemm_table.set_header(
        {"shape (m*k*n)", "op", "scalar GFLOP/s", "simd GFLOP/s", "speedup"});
    json.section("gemm");
    first = true;
    struct Shape {
        std::size_t m, k, n;
        const char* op;
    };
    const Shape shapes[] = {{128, 64, 64, "a@b"},
                            {128, 128, 10, "a@b"},
                            {64, 128, 128, "atb"},
                            {128, 10, 32, "abt"},
                            {128, 32, 64, "abt"},
                            {128, 64, 32, "abt"},
                            {256, 256, 256, "a@b"}};
    for (const Shape& s : shapes) {
        util::Rng grng{s.m * 31 + s.n};
        tensor::Matrix a{s.m, s.k};
        tensor::Matrix b{s.k, s.n};
        a.randomize_normal(grng, 0.0F, 1.0F);
        b.randomize_normal(grng, 0.0F, 1.0F);
        tensor::Matrix out;
        const std::string_view op = s.op;
        // For a^T@b the left operand is [k, m]; for a@b^T the right one is
        // [n, k].
        tensor::Matrix at{s.k, s.m};
        at.randomize_normal(grng, 0.0F, 1.0F);
        tensor::Matrix bt{s.n, s.k};
        bt.randomize_normal(grng, 0.0F, 1.0F);
        const double t_scalar = time_per_iter([&] {
            if (op == "atb") {
                tensor::matmul_at_b_scalar(at, b, out);
            } else if (op == "abt") {
                tensor::matmul_a_bt_scalar(a, bt, out);
            } else {
                tensor::matmul_scalar(a, b, out);
            }
        });
        const double t_simd = time_per_iter([&] {
            if (op == "atb") {
                tensor::matmul_at_b(at, b, out);
            } else if (op == "abt") {
                tensor::matmul_a_bt(a, bt, out);
            } else {
                tensor::matmul(a, b, out);
            }
        });
        const double flops = 2.0 * static_cast<double>(s.m) *
                             static_cast<double>(s.k) *
                             static_cast<double>(s.n);
        const double gf_scalar = flops / t_scalar / 1e9;
        const double gf_simd = flops / t_simd / 1e9;
        const double speedup = t_scalar / t_simd;
        std::ostringstream shape_str;
        shape_str << s.m << "x" << s.k << "x" << s.n;
        gemm_table.add_row({shape_str.str(), s.op,
                            util::Table::fmt(gf_scalar, 2),
                            util::Table::fmt(gf_simd, 2),
                            util::Table::fmt(speedup, 2)});
        if (!first) json.out << ",\n";
        first = false;
        json.out << "    {\"m\": " << s.m << ", \"k\": " << s.k
                 << ", \"n\": " << s.n << ", \"op\": \"" << s.op
                 << "\", \"scalar_gflops\": " << gf_scalar
                 << ", \"simd_gflops\": " << gf_simd
                 << ", \"speedup\": " << speedup << "}";
    }
    json.close_section();
    gemm_table.print(std::cout);

    // ---- One MLP training step: us per pass on this process's table.
    util::Table mlp_table{"MLP step at batch 128 (" + std::string{isa} + ")"};
    mlp_table.set_header({"pass", "us"});
    json.section("mlp_step");
    const MlpStepUs step = time_mlp_step();
    mlp_table.add_row({"forward", util::Table::fmt(step.forward, 1)});
    mlp_table.add_row(
        {"backward_and_step", util::Table::fmt(step.backward, 1)});
    json.out << "    {\"pass\": \"forward\", \"batch\": 128, \"us\": "
             << step.forward << "},\n"
             << "    {\"pass\": \"backward_and_step\", \"batch\": 128, "
             << "\"us\": " << step.backward << "}";
    json.close_section();
    mlp_table.print(std::cout);

    // ---- Batch scoring: samples/s, serial vs score_batch over a pool.
    util::Table score_table{"graph-IS batch scoring (serial vs parallel)"};
    score_table.set_header({"dim", "serial samples/s", "parallel samples/s",
                            "speedup", "threads"});
    json.section("scoring");
    first = true;
    for (const std::size_t dim : {32UL, 64UL}) {
        ann::HnswConfig ann_config;
        ann_config.dim = dim;
        ann::HnswIndex index{ann_config};
        core::ScorerConfig scorer_config;
        core::GraphImportanceScorer scorer{
            index, scorer_config, [](std::uint32_t id) { return id % 10; }};
        util::Rng srng{dim};
        const std::size_t population = 2000;
        std::vector<float> embedding(dim);
        for (std::uint32_t id = 0; id < population; ++id) {
            const double center = static_cast<double>(id % 10);
            for (float& x : embedding) {
                x = static_cast<float>(srng.normal(center, 1.0));
            }
            scorer.update_embedding(id, embedding);
        }
        std::vector<std::uint32_t> batch(512);
        for (std::uint32_t i = 0; i < batch.size(); ++i) {
            batch[i] = i % population;
        }
        const double t_serial = time_per_iter(
            [&] { (void)scorer.score_batch(batch, nullptr); });
        util::ThreadPool pool{threads};
        const double t_parallel =
            time_per_iter([&] { (void)scorer.score_batch(batch, &pool); });
        const double sps_serial = static_cast<double>(batch.size()) / t_serial;
        const double sps_parallel =
            static_cast<double>(batch.size()) / t_parallel;
        const double speedup = t_serial / t_parallel;
        score_table.add_row({std::to_string(dim),
                             util::Table::fmt(sps_serial, 0),
                             util::Table::fmt(sps_parallel, 0),
                             util::Table::fmt(speedup, 2),
                             std::to_string(threads)});
        if (!first) json.out << ",\n";
        first = false;
        json.out << "    {\"dim\": " << dim << ", \"serial_samples_per_s\": "
                 << sps_serial << ", \"parallel_samples_per_s\": "
                 << sps_parallel << ", \"speedup\": " << speedup << "}";
    }
    json.close_section();
    score_table.print(std::cout);

    json.close(threads);
    std::ofstream out_file{out_path};
    out_file << json.out.str();
    if (!out_file) {
        std::cerr << "warning: could not write " << out_path << "\n";
        return 1;
    }
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
