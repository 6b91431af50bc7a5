// perfbench: the canonical end-to-end benchmark of the SpiderCache library.
//
//   perfbench --workload train_spider|train_lru_ssd|serve_loader
//             --seed N --seconds S --trace 0|1 --tmp DIR [--spans FILE]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object with the metrics, the correctness tally and provenance. Normally
// started through perfbench/run.py, which builds this binary, validates
// the output against BENCHMARK.json and prints the final result line.

#include <sys/resource.h>

#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "report.hpp"
#include "tensor/simd.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double peak_rss_mb() {
    // VmHWM belongs to this program's address space. getrusage's ru_maxrss
    // survives exec on Linux, so it would report the launching process's
    // peak whenever that was larger.
    std::ifstream status{"/proc/self/status"};
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB
        }
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace perfbench

namespace {

int usage() {
    std::cerr << "usage: perfbench --workload train_spider|train_lru_ssd|"
                 "serve_loader --seed N --seconds S --trace 0|1 --tmp DIR "
                 "[--spans FILE]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace perfbench;
    RunOptions options;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc) return usage();
            const std::string value = argv[++i];
            if (arg == "--workload") {
                options.workload = value;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1") return usage();
                options.trace = value == "1";
            } else if (arg == "--tmp") {
                options.tmp_dir = value;
            } else if (arg == "--spans") {
                options.spans_path = value;
            } else {
                return usage();
            }
        }
    } catch (const std::exception&) {
        return usage();
    }
    const bool training = options.workload == "train_spider" ||
                          options.workload == "train_lru_ssd";
    if ((!training && options.workload != "serve_loader") ||
        options.tmp_dir.empty() || !(options.seconds > 0.0)) {
        return usage();
    }
    std::filesystem::create_directories(options.tmp_dir);

    Report report;
    report.provenance("workload", options.workload);
    report.provenance("seed", std::to_string(options.seed));
    report.provenance("trace", options.trace ? "1" : "0");
    report.provenance("hardware_threads",
                      std::to_string(std::thread::hardware_concurrency()));
    report.provenance("kernels", spider::tensor::simd::active_kernels().name);
    report.provenance("build_type", PERFBENCH_BUILD_TYPE);
    try {
        if (training) {
            run_training(options, report);
        } else {
            run_serving(options, report);
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
                  << "\n";
        return 1;
    }
    std::cout << report.to_json() << std::endl;
    return 0;
}
