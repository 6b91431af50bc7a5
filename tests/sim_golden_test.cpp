// Golden runs of TrainingSimulator::run() (SimGolden.*): one row per epoch
// with every EpochMetrics counter, the virtual times as integer
// nanoseconds and the learning signal as hex floats, then one totals row
// (and, for a traced run, one row hashing the access trace), compared
// against tests/golden/sim_*.txt. Every run is serial
// (worker_threads = 1, cache_shards = 1), so each file is a pure function
// of the code; ctest runs the suite under SPIDER_SIMD=scalar so the files
// hold on any host. A behaviour-neutral change to run() or to a layer it
// drives passes these unmodified; on a mismatch the full actual file is
// written next to the test binary as sim_<name>.actual.txt.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "data/presets.hpp"
#include "golden_rows.hpp"
#include "sim/simulator.hpp"
#include "tensor/simd.hpp"

namespace spider::sim {
namespace {

using golden::row_of;

/// A scratch directory for the SSD segments and the WAL, removed on exit.
class TempDir {
public:
    explicit TempDir(const std::string& name)
        : path_{std::filesystem::temp_directory_path() /
                ("spider_sim_golden_" + name + "_" +
                 std::to_string(::getpid()))} {
        std::filesystem::remove_all(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    [[nodiscard]] std::string sub(const std::string& leaf) const {
        return (path_ / leaf).string();
    }

private:
    std::filesystem::path path_;
};

SimConfig base_config() {
    SimConfig config;
    config.dataset = data::cifar10_like(/*scale=*/0.02, /*seed=*/7);  // 1000
    config.strategy = StrategyKind::kSpider;
    config.epochs = 4;
    config.batch_size = 64;
    config.cache_fraction = 0.2;
    config.worker_threads = 1;
    config.cache_shards = 1;
    config.seed = 5;
    return config;
}

long long ns(storage::SimDuration d) {
    return static_cast<long long>(d.count());
}

unsigned long long u(std::uint64_t v) {
    return static_cast<unsigned long long>(v);
}

std::vector<std::string> rows_of(const metrics::RunResult& result) {
    std::vector<std::string> rows;
    for (const metrics::EpochMetrics& e : result.epochs) {
        rows.push_back(
            row_of("e%zu acc %llu hit %llu imp %llu hom %llu sub %llu ",
                   e.epoch, u(e.accesses), u(e.hits), u(e.importance_hits),
                   u(e.homophily_hits), u(e.substitutions)) +
            row_of("ssd %llu/%llu miss %llu pf %llu/%llu cold %llu ",
                   u(e.ssd_hits), u(e.ssd_misses), u(e.misses),
                   u(e.prefetch_issued), u(e.prefetch_hidden),
                   u(e.cold_start_misses)) +
            row_of("win %a rest %llu ", e.prefetch_window_avg,
                   u(e.restored_items)) +
            row_of("fault %llu/%llu/%llu/%llu/%llu/%llu ", u(e.fetch_retries),
                   u(e.fetch_hedges), u(e.fetch_timeouts), u(e.breaker_trips),
                   u(e.fault_substitutions), u(e.fault_skips)) +
            row_of("clu %llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu ",
                   u(e.cluster_local_hits), u(e.peer_hits), u(e.peer_misses),
                   u(e.cluster_remote), u(e.peer_hedges), u(e.peer_hedge_wins),
                   u(e.peer_throttled), u(e.peer_failovers)) +
            row_of("tun %llu/%llu slot %llu/%llu ", u(e.shadow_hits),
                   u(e.tuner_switches), u(e.slot_waits), u(e.peak_in_flight)) +
            row_of("loss %a acc %a std %a ratio %a ", e.train_loss,
                   e.test_accuracy, e.score_std, e.imp_ratio) +
            row_of("t %lld/%lld/%lld/%lld/%lld", ns(e.load_time),
                   ns(e.compute_time), ns(e.is_time), ns(e.epoch_time),
                   ns(e.fault_time)));
    }
    rows.push_back(row_of("total %lld final %a best %a", ns(result.total_time),
                          result.final_accuracy, result.best_accuracy));
    return rows;
}

/// The epoch rows, then one row with the record count and an FNV-1a hash
/// of every access-trace record (field by field, so padding never counts).
std::vector<std::string> rows_with_trace_of(const metrics::RunResult& result) {
    std::vector<std::string> rows = rows_of(result);
    std::uint64_t hash = golden::kFnvBasis;
    for (const trace::Record& r : result.access_trace.records()) {
        const std::uint32_t fields[] = {r.epoch, r.requested, r.served,
                                        static_cast<std::uint32_t>(r.outcome)};
        hash = golden::fnv1a(hash, fields, sizeof fields);
    }
    rows.push_back(row_of("trace %zu %016llx", result.access_trace.size(),
                          static_cast<unsigned long long>(hash)));
    return rows;
}

void expect_golden_run(const std::string& name, const SimConfig& config) {
    ASSERT_EQ(std::string_view{tensor::simd::active_kernels().name},
              "portable")
        << "the golden runs are pinned on the portable kernels; run under "
           "SPIDER_SIMD=scalar (ctest does)";
    const metrics::RunResult result = TrainingSimulator{config}.run();
    golden::expect_golden("sim_" + name + ".txt",
                          config.record_trace ? rows_with_trace_of(result)
                                              : rows_of(result),
                          "SimGolden " + name);
}

TEST(SimGolden, SpiderPlain) { expect_golden_run("spider", base_config()); }

TEST(SimGolden, LruWithBlockSsdAndWal) {
    const TempDir dir{"lru"};
    SimConfig config = base_config();
    config.strategy = StrategyKind::kBaselineLru;
    config.ssd.enabled = true;
    config.ssd.capacity_items = 300;
    config.ssd.path = dir.sub("ssd");
    config.ssd.segment_mb = 1;
    config.wal_dir = dir.sub("wal");
    expect_golden_run("lru_ssd_wal", config);
}

TEST(SimGolden, SpiderFaultsWithStaticPrefetch) {
    SimConfig config = base_config();
    config.faults.enabled = true;
    config.faults.transient_failure_prob = 0.02;
    config.faults.timeout_ms = 25.0;
    config.faults.outage_start_ms = 400.0;
    config.faults.outage_duration_ms = 250.0;
    config.resilience.max_attempts = 3;
    config.resilience.breaker_failure_threshold = 8;
    config.resilience.breaker_cooldown_ms = 200.0;
    config.resilience.max_substitute_fraction = 0.02;
    config.prefetch_enabled = true;
    config.prefetch_window = 48;
    expect_golden_run("faults_prefetch", config);
}

TEST(SimGolden, SpiderAdaptivePrefetch) {
    SimConfig config = base_config();
    config.prefetch_enabled = true;
    config.prefetch_adaptive = true;
    config.prefetch_window_max = 96;
    expect_golden_run("adaptive_prefetch", config);
}

TEST(SimGolden, ClusterChurnBudgetAndStraggler) {
    SimConfig config = base_config();
    config.cluster.nodes = 4;
    config.cluster.comm_budget_mb = 0.5;
    config.cluster.straggler_node = 1;
    config.cluster.hedge_delay_ms = 1.0;
    config.cluster.peer_transient_prob = 0.05;
    config.cluster.max_attempts = 1;
    config.cluster_node_cache_fraction = 0.10;
    config.cluster_join_epoch = 1;
    config.cluster_leave_epoch = 3;
    expect_golden_run("cluster", config);
}

TEST(SimGolden, RestartWithWalAndBlockSsd) {
    const TempDir dir{"restart"};
    SimConfig config = base_config();
    config.epochs = 5;
    config.restart_epoch = 3;
    config.ssd.enabled = true;
    config.ssd.capacity_items = 150;
    config.ssd.path = dir.sub("ssd");
    config.ssd.segment_mb = 1;
    config.wal_dir = dir.sub("wal");
    expect_golden_run("restart", config);
}

TEST(SimGolden, ShadowTuner) {
    SimConfig config = base_config();
    config.epochs = 6;
    config.elastic_enabled = false;
    config.tuner.enabled = true;
    config.tuner.ratio_grid = {0.5, 0.7, 0.9};
    config.tuner.policy_grid = {cache::PolicyKind::kSemantic,
                                cache::PolicyKind::kGdsf};
    config.tuner.margin = 0.0;
    config.tuner.sustain_epochs = 1;
    expect_golden_run("tuner", config);
}

TEST(SimGolden, ICacheTwoGpusWithTrace) {
    // Loss-based selective backprop (train_mask, stage2_scale), the
    // all-reduce term, the sampler's score spread and the trace merge.
    SimConfig config = base_config();
    config.strategy = StrategyKind::kICache;
    config.num_gpus = 2;
    config.record_trace = true;
    expect_golden_run("icache_2gpu_trace", config);
}

TEST(SimGolden, ColdRestartWithSsdAdaptivePrefetchAndTuner) {
    // A kill without a WAL: every rebuilt part starts empty, including the
    // residency-model SSD tier, the adaptive lookahead and the tuner panel.
    SimConfig config = base_config();
    config.epochs = 5;
    config.restart_epoch = 2;
    config.ssd.enabled = true;
    config.ssd.capacity_items = 150;
    config.prefetch_enabled = true;
    config.prefetch_adaptive = true;
    config.prefetch_window_max = 64;
    config.tuner.enabled = true;
    config.tuner.ratio_grid = {0.6, 0.9};
    config.tuner.sustain_epochs = 1;
    expect_golden_run("cold_restart", config);
}

}  // namespace
}  // namespace spider::sim
