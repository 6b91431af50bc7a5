#pragma once

// Shared configuration for the per-figure/table bench binaries.
//
// Every bench reproduces one table or figure from the paper on the scaled
// synthetic substrate (see DESIGN.md for the substitution table and
// EXPERIMENTS.md for paper-vs-measured numbers). Scales and epoch counts
// are chosen so the *full* harness runs in tens of minutes on one CPU
// core; set SPIDER_BENCH_FAST=1 for a quick smoke pass (reduced epochs and
// dataset sizes, same code paths).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "data/presets.hpp"
#include "nn/model_profile.hpp"
#include "sim/simulator.hpp"
#include "tensor/simd.hpp"
#include "util/table.hpp"

namespace spider::bench {

inline bool fast_mode() {
    const char* env = std::getenv("SPIDER_BENCH_FAST");
    return env != nullptr && std::string{env} != "0";
}

/// Epoch budget: the paper trains 100 epochs; the default here keeps the
/// full suite tractable on one core while preserving every trend.
inline std::size_t epochs(std::size_t full = 50) {
    return fast_mode() ? std::max<std::size_t>(full / 8, 4) : full;
}

/// Accuracy-sensitive experiments run under-converged, matching the
/// paper's relative convergence level (its ResNet18/CIFAR-10 reaches ~85%
/// of the architecture's ceiling at 100 epochs).
inline std::size_t epochs_accuracy() { return fast_mode() ? 5 : 16; }

inline double cifar_scale() { return fast_mode() ? 0.02 : 0.06; }
inline double imagenet_scale() { return fast_mode() ? 0.002 : 0.006; }

/// Baseline SimConfig with the calibrated storage model; benches override
/// dataset/strategy/epochs per experiment.
inline sim::SimConfig base_config() {
    sim::SimConfig config;
    config.dataset = data::cifar10_like(cifar_scale());
    config.epochs = epochs();
    config.batch_size = 128;
    config.cache_fraction = 0.20;
    config.seed = 1;
    // Skip re-indexing near-static embeddings (pure optimization; see
    // DESIGN.md "score refresh cadence").
    config.scorer.min_update_distance = 0.03;
    return config;
}

inline sim::SimConfig cifar10_config() { return base_config(); }

inline sim::SimConfig cifar100_config() {
    sim::SimConfig config = base_config();
    config.dataset = data::cifar100_like(cifar_scale());
    return config;
}

inline sim::SimConfig imagenet_config() {
    sim::SimConfig config = base_config();
    config.dataset = data::imagenet_like(imagenet_scale());
    config.model = nn::make_profile(nn::ModelKind::kResNet50);
    return config;
}

/// `git describe --always --dirty` of the source tree the bench was built
/// from, read when the bench runs ("unknown" outside a git checkout): the
/// provenance a committed BENCH_*.json carries next to ISA and threads.
inline std::string git_sha() {
    const std::string command = std::string{"git -C \""} + SPIDER_SOURCE_DIR +
                                "\" describe --always --dirty --abbrev=12 "
                                "--exclude='*' 2>/dev/null";
    std::string sha;
    if (FILE* pipe = ::popen(command.c_str(), "r")) {
        char buf[64];
        while (std::fgets(buf, sizeof buf, pipe) != nullptr) sha += buf;
        ::pclose(pipe);
    }
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == ' ')) {
        sha.pop_back();
    }
    return sha.empty() ? "unknown" : sha;
}

/// CMAKE_BUILD_TYPE the bench binary was compiled with.
inline const char* build_type() { return SPIDER_BUILD_TYPE; }

/// The provenance members every committed BENCH_*.json ends with: source
/// sha, dispatched kernel table, hardware threads and build type, one per
/// line at two-space indent, without a trailing comma or newline.
inline std::string provenance_json() {
    std::ostringstream out;
    out << "  \"git_sha\": \"" << git_sha() << "\",\n"
        << "  \"isa\": \"" << tensor::simd::active_kernels().name << "\",\n"
        << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"build_type\": \"" << build_type() << "\"";
    return out.str();
}

inline void print_preamble(const char* experiment, const char* paper_ref) {
    std::cout << "### " << experiment << " — reproduces " << paper_ref
              << "\n";
    std::cout << "### substrate: synthetic (see DESIGN.md), "
              << (fast_mode() ? "FAST mode" : "full mode") << "\n\n";
}

}  // namespace spider::bench
