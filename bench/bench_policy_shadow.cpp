// Shadow-tuner bench (DESIGN.md §13): does the online tuner find the
// static sweet spot? Two difficulty mixes — the stock CIFAR-10-like
// workload and a harder one (closer class centroids + long-tail
// imbalance) — each swept over static imp_ratio splits with the elastic
// manager off, then run once more with the ShadowTuner picking the split
// on the fly from the same grid. The headline the JSON pins:
//
//   * on every mix, the auto-tuned run's steady-state (tail) hit ratio
//     lands within 5% of the best static split's — without knowing the
//     workload in advance.
//
// A second table compares the pluggable Importance-section policies
// (semantic vs LRU/LFU/GDSF/cost-aware) at a fixed split, documenting why
// the paper's score-gated admission is the default.
//
// Prints tables and writes BENCH_policy.json so the baseline is diffable
// across PRs. `--smoke` runs a reduced grid with the same hard assertion
// (exits non-zero on failure), wired into ctest as BenchSmoke.PolicyShadow.
// Deterministic for a given seed: virtual clock, no wall-time anywhere.
//
// Usage: bench_policy_shadow [--smoke] [--out BENCH_policy.json]
//                            [--epochs E]

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cache/policy.hpp"
#include "data/presets.hpp"
#include "metrics/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

namespace {

using spider::cache::PolicyKind;
using spider::sim::SimConfig;
using spider::sim::StrategyKind;
using spider::sim::TrainingSimulator;

struct Mix {
    std::string name;
    spider::data::DatasetSpec dataset;
};

SimConfig base_config(const Mix& mix, std::size_t epochs) {
    SimConfig config;
    config.dataset = mix.dataset;
    config.strategy = StrategyKind::kSpider;
    config.epochs = epochs;
    config.batch_size = 64;
    config.cache_fraction = 0.2;
    config.seed = 5;
    config.elastic_enabled = false;  // static splits; tuner owns changes
    return config;
}

struct RunStats {
    double tail_hit = 0.0;
    double final_ratio = 0.0;
    std::uint64_t switches = 0;
    std::uint64_t shadow_hits = 0;
};

RunStats run_once(SimConfig config) {
    const std::size_t tail = std::max<std::size_t>(config.epochs / 2, 1);
    TrainingSimulator sim{config};
    const spider::metrics::RunResult result = sim.run();
    RunStats stats;
    stats.tail_hit = result.tail_hit_ratio(tail);
    stats.final_ratio = result.epochs.back().imp_ratio;
    for (const auto& epoch : result.epochs) {
        stats.switches += epoch.tuner_switches;
        stats.shadow_hits += epoch.shadow_hits;
    }
    return stats;
}

// The elastic manager validates r_start >= r_end even when disabled, so a
// static split pins both ends of the trajectory to the same ratio.
void pin_ratio(SimConfig& config, double ratio) {
    config.elastic.r_start = ratio;
    config.elastic.r_end = ratio;
}

RunStats run_static(const Mix& mix, std::size_t epochs, double ratio) {
    SimConfig config = base_config(mix, epochs);
    pin_ratio(config, ratio);
    return run_once(config);
}

RunStats run_tuned(const Mix& mix, std::size_t epochs,
                   const std::vector<double>& grid, double start_ratio) {
    SimConfig config = base_config(mix, epochs);
    pin_ratio(config, start_ratio);
    config.tuner.enabled = true;
    config.tuner.ratio_grid = grid;
    config.tuner.margin = 0.005;
    config.tuner.sustain_epochs = 2;
    return run_once(config);
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string out_path;
    bool out_set = false;
    std::size_t epochs = 16;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
            out_set = true;
        } else if (arg == "--epochs" && i + 1 < argc) {
            epochs = std::stoul(argv[++i]);
        } else {
            std::cerr << "usage: bench_policy_shadow [--smoke] [--out F]"
                         " [--epochs E]\n";
            return 2;
        }
    }
    std::vector<double> grid{0.3, 0.5, 0.7, 0.9};
    if (smoke) {
        epochs = 10;
        grid = {0.3, 0.9};
    } else if (!out_set) {
        out_path = "BENCH_policy.json";
    }

    // Mix 1: the stock workload. Mix 2: closer centroids (harder to
    // separate semantically) + long-tail imbalance — the regime where the
    // right section split is least obvious a priori.
    spider::data::DatasetSpec hard = spider::data::cifar10_like(0.02, 7);
    hard.class_separation = 0.8;
    hard.imbalance_factor = 4.0;
    const std::vector<Mix> mixes{
        {"cifar10", spider::data::cifar10_like(0.02, 7)},
        {"hard", hard},
    };

    std::cout << "### bench_policy_shadow — shadow-tuned split vs static "
                 "imp_ratio sweep\n"
              << "### " << epochs << " epochs, cache fraction 0.2, elastic "
              << "off (static splits stay put; only the tuner moves)\n\n";

    std::ostringstream json;
    json << "{\n  \"mixes\": [\n";
    bool ok = true;
    bool first_mix = true;
    for (const Mix& mix : mixes) {
        spider::util::Table table{"mix: " + mix.name};
        table.set_header({"imp_ratio", "tail hit ratio"});

        double best_static = 0.0;
        double best_ratio = grid.front();
        std::ostringstream sweep_json;
        bool first_point = true;
        for (const double ratio : grid) {
            const RunStats stats = run_static(mix, epochs, ratio);
            table.add_row({spider::util::Table::fmt(ratio, 1),
                           spider::util::Table::fmt(stats.tail_hit, 4)});
            if (stats.tail_hit > best_static) {
                best_static = stats.tail_hit;
                best_ratio = ratio;
            }
            if (!first_point) sweep_json << ", ";
            first_point = false;
            sweep_json << "{\"imp_ratio\": " << ratio
                       << ", \"tail_hit_ratio\": " << stats.tail_hit << "}";
        }

        // The tuner starts from the grid point FARTHEST from the static
        // winner, so matching the sweep requires actually switching.
        const double start =
            best_ratio >= 0.5 ? grid.front() : grid.back();
        const RunStats tuned = run_tuned(mix, epochs, grid, start);
        table.add_row({"tuned (" + spider::util::Table::fmt(start, 1) +
                           " -> " +
                           spider::util::Table::fmt(tuned.final_ratio, 2) +
                           ")",
                       spider::util::Table::fmt(tuned.tail_hit, 4)});
        table.print(std::cout);
        std::cout << "  tuner: " << tuned.switches << " switch(es), "
                  << tuned.shadow_hits << " shadow hits, best static "
                  << spider::util::Table::fmt(best_static, 4) << " @ "
                  << spider::util::Table::fmt(best_ratio, 1) << "\n\n";

        const bool within = tuned.tail_hit >= 0.95 * best_static;
        if (!within) {
            std::cerr << "FAIL: mix " << mix.name << ": tuned tail hit "
                      << tuned.tail_hit << " below 95% of best static "
                      << best_static << "\n";
            ok = false;
        }
        if (!first_mix) json << ",\n";
        first_mix = false;
        json << "    {\"name\": \"" << mix.name << "\", \"static_sweep\": ["
             << sweep_json.str() << "], \"best_static\": " << best_static
             << ", \"best_ratio\": " << best_ratio
             << ", \"tuned\": {\"start_ratio\": " << start
             << ", \"final_ratio\": " << tuned.final_ratio
             << ", \"tail_hit_ratio\": " << tuned.tail_hit
             << ", \"switches\": " << tuned.switches
             << ", \"shadow_hits\": " << tuned.shadow_hits
             << "}, \"within_5pct\": " << (within ? "true" : "false")
             << "}";
    }
    json << "\n  ],\n  \"policies\": [\n";

    // Importance-policy comparison at the stock mix's fixed 0.9 split.
    spider::util::Table ptable{"importance policy @ imp_ratio 0.9 (" +
                               mixes.front().name + ")"};
    ptable.set_header({"policy", "tail hit ratio"});
    const PolicyKind policies[] = {PolicyKind::kSemantic, PolicyKind::kLru,
                                   PolicyKind::kLfu, PolicyKind::kGdsf,
                                   PolicyKind::kCost};
    bool first_policy = true;
    for (const PolicyKind kind : policies) {
        SimConfig config = base_config(mixes.front(), epochs);
        pin_ratio(config, 0.9);
        config.policy.importance = kind;
        const RunStats stats = run_once(config);
        ptable.add_row({spider::cache::to_string(kind),
                        spider::util::Table::fmt(stats.tail_hit, 4)});
        if (!first_policy) json << ",\n";
        first_policy = false;
        json << "    {\"policy\": \"" << spider::cache::to_string(kind)
             << "\", \"tail_hit_ratio\": " << stats.tail_hit << "}";
    }
    ptable.print(std::cout);
    json << "\n  ],\n" << spider::bench::provenance_json() << "\n}\n";

    if (!out_path.empty()) {
        std::ofstream out{out_path};
        out << json.str();
        std::cout << "\nwrote " << out_path << "\n";
    }
    if (!ok) return 1;
    std::cout << "OK: tuned split within 5% of the best static split on "
                 "every mix\n";
    return 0;
}
