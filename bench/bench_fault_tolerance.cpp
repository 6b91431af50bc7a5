// Fault-tolerance sweep (DESIGN.md §9, EXPERIMENTS.md "fault injection"):
// trains SpiderCache and the LRU baseline across a grid of
//
//   transient failure rate x periodic-outage duration
//
// on the fault-injected remote store with the resilient client (retry +
// hedge + breaker) and degraded-mode substitution enabled. Reports total
// virtual training time, the fault-attributable slice, the substituted
// fraction, and final accuracy per cell — plus the baseline/SpiderCache
// time ratio, which widens as the storage gets sicker: a higher hit
// ratio means fewer remote fetches exposed to the weather, so the cache
// itself is a fault-tolerance mechanism.
//
// Prints a table and writes BENCH_faults.json, with the shared provenance
// (git sha, ISA, hardware threads, build type), so the trend is diffable
// across changes.
//
// --weather adds Markov-weather rows (DESIGN.md §12.1): the same i.i.d.
// rates modulated by the good/degraded/outage chain, so faults arrive in
// correlated storms instead of one attempt at a time.
//
// A warm-restart comparison always runs (DESIGN.md §12.2): a kill -9 at
// mid-training, restarted cold (no WAL) vs warm (WAL snapshot + log),
// reporting recovered residency and the restart epoch's miss bill.
//
// Usage: bench_fault_tolerance [--out BENCH_faults.json] [--epochs N]
//                              [--weather]

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "metrics/metrics.hpp"
#include "sim/simulator.hpp"
#include "storage/clock.hpp"
#include "util/table.hpp"

namespace {

using namespace spider;

struct Cell {
    double transient_prob = 0.0;
    double outage_ms = 0.0;
    /// Modulate the rates with the Markov weather chain (--weather rows).
    bool weather = false;
};

struct CellResult {
    double total_min = 0.0;
    double fault_min = 0.0;
    double substituted = 0.0;
    double accuracy = 0.0;
    std::uint64_t retries = 0;
    std::uint64_t hedges = 0;
    std::uint64_t trips = 0;
    std::uint64_t skips = 0;
};

CellResult run_cell(sim::StrategyKind strategy, const Cell& cell,
                    std::size_t epochs) {
    sim::SimConfig config = bench::base_config();
    config.strategy = strategy;
    config.epochs = epochs;

    config.faults.enabled =
        cell.transient_prob > 0.0 || cell.outage_ms > 0.0 || cell.weather;
    config.faults.transient_failure_prob = cell.transient_prob;
    config.faults.latency_spike_prob = cell.transient_prob;  // same weather
    config.faults.timeout_ms = 40.0;
    config.faults.outage_start_ms = 2000.0;
    config.faults.outage_duration_ms = cell.outage_ms;
    config.faults.outage_period_ms = cell.outage_ms > 0.0 ? 20000.0 : 0.0;
    config.faults.brownout_factor = 2.0;
    config.faults.brownout_duration_ms = cell.outage_ms > 0.0 ? 500.0 : 0.0;
    if (cell.weather) {
        config.faults.weather.enabled = true;
        config.faults.weather.slot_ms = 500.0;
        config.faults.weather.p_degrade = 0.08;
        config.faults.weather.p_recover = 0.25;
        config.faults.weather.p_fail = 0.10;
        config.faults.weather.p_restore = 0.35;
        config.faults.weather.degraded_mult = 6.0;
        config.faults.weather.degraded_slowdown = 2.5;
    }

    config.resilience.breaker_failure_threshold = 16;
    config.resilience.breaker_cooldown_ms = 400.0;
    config.resilience.max_substitute_fraction = 0.05;

    const metrics::RunResult run = sim::TrainingSimulator{config}.run();
    CellResult r;
    r.total_min = storage::to_minutes(run.total_time);
    r.fault_min = storage::to_minutes(run.total_fault_time());
    r.substituted = run.substituted_fraction();
    r.accuracy = run.final_accuracy;
    for (const metrics::EpochMetrics& e : run.epochs) {
        r.retries += e.fetch_retries;
        r.hedges += e.fetch_hedges;
        r.trips += e.breaker_trips;
        r.skips += e.fault_skips;
    }
    return r;
}

struct RestartResult {
    double total_min = 0.0;
    std::uint64_t restored = 0;
    std::uint64_t restart_misses = 0;     // misses in the restart epoch
    std::uint64_t cold_start_misses = 0;  // first-batch demand misses there
};

/// One mid-training kill -9 under a mildly sick backend: `warm` restores
/// through the WAL, otherwise the restart is stone-cold. `restart_epoch`
/// of zero runs the uninterrupted reference.
RestartResult run_restart(std::size_t epochs, std::size_t restart_epoch,
                          bool warm) {
    sim::SimConfig config = bench::base_config();
    config.strategy = sim::StrategyKind::kSpider;
    config.epochs = epochs;
    config.ssd.enabled = true;
    config.ssd.capacity_items =
        static_cast<std::size_t>(0.3 * static_cast<double>(
                                           config.dataset.num_samples));
    config.faults.enabled = true;
    config.faults.transient_failure_prob = 0.02;
    config.faults.latency_spike_prob = 0.02;
    config.faults.timeout_ms = 40.0;
    config.restart_epoch = restart_epoch;
    const std::string wal_dir = "bench_faults_wal";
    if (warm) config.wal_dir = wal_dir;

    const metrics::RunResult run = sim::TrainingSimulator{config}.run();
    if (warm) std::filesystem::remove_all(wal_dir);
    RestartResult r;
    r.total_min = storage::to_minutes(run.total_time);
    const std::size_t at = restart_epoch > 0 ? restart_epoch : 0;
    if (at < run.epochs.size()) {
        r.restored = run.epochs[at].restored_items;
        r.restart_misses = run.epochs[at].misses;
        r.cold_start_misses = run.epochs[at].cold_start_misses;
    }
    return r;
}

}  // namespace

int main(int argc, char** argv) {
    std::string out_path = "BENCH_faults.json";
    std::size_t epochs = bench::epochs(12);
    bool weather = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--epochs" && i + 1 < argc) {
            epochs = static_cast<std::size_t>(std::stoul(argv[++i]));
        } else if (arg == "--weather") {
            weather = true;
        } else {
            std::cerr << "usage: bench_fault_tolerance [--out F] "
                         "[--epochs N] [--weather]\n";
            return 2;
        }
    }

    bench::print_preamble("bench_fault_tolerance",
                          "fault-injected storage (DESIGN.md §9)");

    std::vector<Cell> grid = {
        {0.00, 0.0},    // healthy backend (the zero-cost-off reference)
        {0.02, 0.0},    // sporadic transients + spikes
        {0.05, 0.0},    // sick backend
        {0.00, 4000.0}, // clean but with periodic 4 s outages
        {0.02, 4000.0}, // the acceptance scenario
        {0.05, 8000.0}, // hostile: sick backend, long outages
    };
    if (weather) {
        // The same base rates under the Markov chain: storms of degraded
        // slots multiply them 6x in bursts, plus weather outages.
        grid.push_back({0.02, 0.0, /*weather=*/true});
        grid.push_back({0.02, 4000.0, /*weather=*/true});
    }

    util::Table table{"fault sweep — SpiderCache vs LRU baseline"};
    table.set_header({"transient", "outage ms", "weather", "strategy",
                      "total min", "fault min", "subst", "skips", "retries",
                      "trips", "accuracy", "lru/spider"});

    std::ostringstream json;
    json << "{\n  \"rows\": [\n";
    bool first = true;
    for (const Cell& cell : grid) {
        const CellResult spider =
            run_cell(sim::StrategyKind::kSpider, cell, epochs);
        const CellResult lru =
            run_cell(sim::StrategyKind::kBaselineLru, cell, epochs);
        const double ratio =
            spider.total_min == 0.0 ? 0.0 : lru.total_min / spider.total_min;
        const CellResult* results[] = {&spider, &lru};
        const char* names[] = {"spider", "lru"};
        for (int s = 0; s < 2; ++s) {
            const CellResult& r = *results[s];
            table.add_row({util::Table::fmt(cell.transient_prob, 2),
                           util::Table::fmt(cell.outage_ms, 0),
                           cell.weather ? "markov" : "iid", names[s],
                           util::Table::fmt(r.total_min, 2),
                           util::Table::fmt(r.fault_min, 2),
                           util::Table::fmt(r.substituted, 4),
                           std::to_string(r.skips),
                           std::to_string(r.retries),
                           std::to_string(r.trips),
                           util::Table::fmt(r.accuracy, 3),
                           s == 0 ? util::Table::fmt(ratio, 3) : ""});
            if (!first) json << ",\n";
            first = false;
            json << "    {\"strategy\": \"" << names[s]
                 << "\", \"transient_prob\": " << cell.transient_prob
                 << ", \"outage_ms\": " << cell.outage_ms
                 << ", \"weather\": " << (cell.weather ? "true" : "false")
                 << ", \"total_min\": " << r.total_min
                 << ", \"fault_min\": " << r.fault_min
                 << ", \"substituted_fraction\": " << r.substituted
                 << ", \"fault_skips\": " << r.skips
                 << ", \"retries\": " << r.retries
                 << ", \"hedges\": " << r.hedges
                 << ", \"breaker_trips\": " << r.trips
                 << ", \"accuracy\": " << r.accuracy
                 << ", \"lru_over_spider\": " << ratio << "}";
        }
    }
    table.print(std::cout);

    // ---- Warm vs. cold restart (DESIGN.md §12.2): kill -9 mid-training.
    const std::size_t restart_epoch = std::max<std::size_t>(epochs / 2, 1);
    const RestartResult none = run_restart(epochs, 0, false);
    const RestartResult cold = run_restart(epochs, restart_epoch, false);
    const RestartResult warm = run_restart(epochs, restart_epoch, true);

    util::Table restart_table{
        "kill -9 at epoch " + std::to_string(restart_epoch) +
        " — warm (WAL) vs cold restart"};
    restart_table.set_header({"restart", "total min", "restored",
                              "restart-epoch misses", "cold-start misses"});
    restart_table.add_row({"none", util::Table::fmt(none.total_min, 2), "-",
                           "-", "-"});
    restart_table.add_row({"cold", util::Table::fmt(cold.total_min, 2),
                           std::to_string(cold.restored),
                           std::to_string(cold.restart_misses),
                           std::to_string(cold.cold_start_misses)});
    restart_table.add_row({"warm", util::Table::fmt(warm.total_min, 2),
                           std::to_string(warm.restored),
                           std::to_string(warm.restart_misses),
                           std::to_string(warm.cold_start_misses)});
    std::cout << "\n";
    restart_table.print(std::cout);

    json << "\n  ],\n  \"restart\": {\n"
         << "    \"restart_epoch\": " << restart_epoch << ",\n"
         << "    \"none_total_min\": " << none.total_min << ",\n"
         << "    \"cold_total_min\": " << cold.total_min << ",\n"
         << "    \"warm_total_min\": " << warm.total_min << ",\n"
         << "    \"cold_restored_items\": " << cold.restored << ",\n"
         << "    \"warm_restored_items\": " << warm.restored << ",\n"
         << "    \"cold_restart_misses\": " << cold.restart_misses << ",\n"
         << "    \"warm_restart_misses\": " << warm.restart_misses << ",\n"
         << "    \"cold_cold_start_misses\": " << cold.cold_start_misses
         << ",\n"
         << "    \"warm_cold_start_misses\": " << warm.cold_start_misses
         << "\n  },\n  \"epochs\": " << epochs << ",\n"
         << bench::provenance_json() << "\n}\n";
    std::ofstream out_file{out_path};
    out_file << json.str();
    if (!out_file) {
        std::cerr << "warning: could not write " << out_path << "\n";
        return 1;
    }
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
