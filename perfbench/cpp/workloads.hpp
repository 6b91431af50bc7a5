#pragma once

// The three canonical workloads (see perfbench/README.md for why each
// exists and which layer metrics it is expected to move).

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Scratch directory owned by this run; SSD and WAL directories are
    /// created below it and removed again.
    std::string tmp_dir;
    /// Where the traced run writes its spans ("" = do not write).
    std::string spans_path;
};

/// Derives an independent 64-bit seed for input stream `stream` from the
/// workload seed (SplitMix64 finalizer).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Seconds on a steady clock since an arbitrary origin.
[[nodiscard]] double now_s();

/// train_spider and train_lru_ssd.
void run_training(const RunOptions& options, Report& report);
/// serve_loader.
void run_serving(const RunOptions& options, Report& report);

}  // namespace perfbench
