// Multi-node cooperative-cache bench (DESIGN.md §11): the same skewed
// workload driven through cluster::CooperativeCache in two modes —
// cooperative (consistent-hash ownership + peer fetch) vs storage-only
// (independent per-node caches, every shared miss at remote price) — at
// N in {2, 4, 8} nodes, plus a straggler scenario at N = 4 where one
// node's serving link draws latency spikes and hedged duplicates claw
// the tail back.
//
// Headlines this pins:
//   * peer fetch beats storage-only mean miss-service time at EVERY
//     node count (the aggregate partitioned cache beats N duplicated
//     caches, and a peer hop costs ~10x less than remote storage);
//   * with a straggler, hedging recovers most of the straggler-free
//     mean (>= half of the tail inflation, with margin to spare).
//
// Prints a table and writes BENCH_multinode.json, ending with the
// provenance members (git sha, ISA, hardware threads, build type), so the
// baseline is diffable across PRs. `--smoke` runs a reduced grid with hard
// assertions (exits non-zero when a headline fails), wired into ctest
// as BenchSmoke.Multinode. All costs are virtual-clock: the numbers are
// deterministic for a given seed, machine-independent.
//
// Usage: bench_multinode [--smoke] [--out BENCH_multinode.json]
//                        [--epochs E] [--accesses A]

#include <cstdint>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cooperative_cache.hpp"
#include "data/presets.hpp"
#include "storage/remote_store.hpp"
#include "storage/resilient_store.hpp"
#include "util/table.hpp"

namespace {

using spider::cluster::ClusterConfig;
using spider::cluster::ClusterCounters;
using spider::cluster::CooperativeCache;
using spider::storage::RemoteStore;
using spider::storage::RemoteStoreConfig;
using spider::storage::SimDuration;

struct CellResult {
    double mean_ms = 0.0;  ///< mean miss-service time per access
    ClusterCounters counters;
    std::uint64_t accesses = 0;
};

/// Drives `epochs` x `accesses` skewed lookups round-robin across the
/// active nodes; returns the mean virtual service cost per access.
CellResult run_workload(const spider::data::SyntheticDataset& dataset,
                        const ClusterConfig& cc, std::size_t epochs,
                        std::size_t accesses) {
    RemoteStore remote{dataset, RemoteStoreConfig{
                                    .latency_per_sample =
                                        spider::storage::from_ms(4.5),
                                    .bytes_per_ms = 1.25e6,
                                    .parallelism = 2,
                                }};
    spider::storage::ResilientStore client{remote, {}, {}};
    CooperativeCache coop{dataset, client, cc};
    const std::vector<std::uint32_t> nodes = coop.active_nodes();

    std::mt19937_64 rng{99};
    std::uniform_real_distribution<double> unit{0.0, 1.0};
    const auto n = static_cast<double>(dataset.size());

    SimDuration total{};
    std::uint64_t count = 0;
    SimDuration now{};
    for (std::size_t e = 0; e < epochs; ++e) {
        coop.begin_epoch();
        for (std::size_t i = 0; i < accesses; ++i) {
            // u^2 skew: hot head, long tail — the regime where a shared
            // partitioned cache pays off but never fully covers.
            const double u = unit(rng);
            const auto id = static_cast<std::uint32_t>(u * u * (n - 1.0));
            const std::uint32_t node = nodes[i % nodes.size()];
            const auto r = coop.service(node, id, now);
            total += r.cost;
            now += r.cost;
            ++count;
            if (i % 128 == 127) coop.on_batch_end(now);
        }
        coop.on_batch_end(now);
    }
    CellResult cell;
    cell.mean_ms = spider::storage::to_ms(total) / static_cast<double>(count);
    cell.counters = coop.counters();
    cell.accesses = count;
    return cell;
}

double pct(std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : 100.0 * static_cast<double>(part) /
                            static_cast<double>(whole);
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string out_path;
    bool out_set = false;
    std::size_t epochs = 6;
    std::size_t accesses = 40000;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
            out_set = true;
        } else if (arg == "--epochs" && i + 1 < argc) {
            epochs = std::stoul(argv[++i]);
        } else if (arg == "--accesses" && i + 1 < argc) {
            accesses = std::stoul(argv[++i]);
        } else {
            std::cerr << "usage: bench_multinode [--smoke] [--out F]"
                         " [--epochs E] [--accesses A]\n";
            return 2;
        }
    }
    if (smoke) {
        epochs = 3;
        accesses = 8000;
    } else if (!out_set) {
        out_path = "BENCH_multinode.json";
    }

    const spider::data::SyntheticDataset dataset{
        spider::data::cifar10_like(0.08, 21)};  // 4000 samples
    const std::size_t per_node_items = dataset.size() * 12 / 100;

    const auto base = [&](std::size_t nodes) {
        ClusterConfig cc;
        cc.nodes = nodes;
        cc.node_cache_items = per_node_items;
        cc.seed = 5;
        return cc;
    };

    std::cout << "### bench_multinode — cooperative peer fetch vs "
                 "storage-only at N nodes\n"
              << "### dataset " << dataset.size() << " samples, "
              << per_node_items << " items/node shard, " << epochs
              << " epochs x " << accesses << " accesses (virtual time)\n\n";

    spider::util::Table table{"mean miss-service time per access"};
    table.set_header({"nodes", "storage-only ms", "coop ms", "speedup",
                      "local %", "peer %", "remote %"});

    std::ostringstream json;
    json << "{\n  \"scaling\": [\n";
    bool ok = true;
    bool first = true;
    for (const std::size_t n : {2UL, 4UL, 8UL}) {
        ClusterConfig storage_only = base(n);
        storage_only.peer_fetch_enabled = false;
        const CellResult so = run_workload(dataset, storage_only, epochs,
                                           accesses);
        const CellResult coop = run_workload(dataset, base(n), epochs,
                                             accesses);
        const ClusterCounters& c = coop.counters;
        const std::uint64_t remote_sourced =
            c.remote_fetches - c.peer_misses;
        table.add_row(
            {std::to_string(n), spider::util::Table::fmt(so.mean_ms, 3),
             spider::util::Table::fmt(coop.mean_ms, 3),
             spider::util::Table::fmt(so.mean_ms / coop.mean_ms, 2),
             spider::util::Table::fmt(pct(c.local_hits, coop.accesses), 1),
             spider::util::Table::fmt(
                 pct(c.peer_hits + c.peer_misses, coop.accesses), 1),
             spider::util::Table::fmt(pct(remote_sourced, coop.accesses),
                                      1)});
        if (!first) json << ",\n";
        first = false;
        json << "    {\"nodes\": " << n
             << ", \"storage_only_ms\": " << so.mean_ms
             << ", \"coop_ms\": " << coop.mean_ms
             << ", \"speedup\": " << so.mean_ms / coop.mean_ms
             << ", \"local_hits\": " << c.local_hits
             << ", \"peer_hits\": " << c.peer_hits
             << ", \"peer_misses\": " << c.peer_misses
             << ", \"remote_sourced\": " << remote_sourced
             << ", \"peer_bytes\": " << c.peer_bytes << "}";
        // Headline 1: peer fetch must win at every node count.
        if (coop.mean_ms >= so.mean_ms) {
            std::cerr << "FAIL: coop mean " << coop.mean_ms
                      << " ms did not beat storage-only " << so.mean_ms
                      << " ms at " << n << " nodes\n";
            ok = false;
        }
    }
    table.print(std::cout);

    // Straggler scenario at N = 4: node 3's serving link spikes; hedged
    // duplicates bound the tail. The trigger sits just above the nominal
    // peer exchange (~0.46 ms) so a spiked primary hedges immediately,
    // and the duplicate redraws the link weather (usually clean).
    const auto straggler = [&](bool hedge, bool spike) {
        ClusterConfig cc = base(4);
        if (spike) {
            cc.straggler_node = 3;
            cc.straggler_spike_prob = 0.4;
            cc.straggler_spike_mult = 10.0;
        }
        cc.hedge_enabled = hedge;
        cc.hedge_delay_ms = 0.6;
        return run_workload(dataset, cc, epochs, accesses);
    };
    const CellResult clean = straggler(false, false);
    const CellResult unhedged = straggler(false, true);
    const CellResult hedged = straggler(true, true);
    const double inflation = unhedged.mean_ms - clean.mean_ms;
    const double residual = hedged.mean_ms - clean.mean_ms;
    const double recovered =
        inflation > 0.0 ? 1.0 - residual / inflation : 0.0;

    spider::util::Table stable{"straggler at N=4 (node 3 spiking)"};
    stable.set_header({"scenario", "mean ms", "hedges", "hedge wins"});
    stable.add_row({"no straggler", spider::util::Table::fmt(clean.mean_ms, 3),
                    "0", "0"});
    stable.add_row({"straggler, no hedge",
                    spider::util::Table::fmt(unhedged.mean_ms, 3), "0", "0"});
    stable.add_row({"straggler, hedged",
                    spider::util::Table::fmt(hedged.mean_ms, 3),
                    std::to_string(hedged.counters.hedges),
                    std::to_string(hedged.counters.hedge_wins)});
    stable.print(std::cout);
    std::cout << "hedging recovered "
              << spider::util::Table::fmt(100.0 * recovered, 1)
              << "% of the straggler inflation\n";

    // Headline 2: hedging must claw back a large share of the straggler
    // inflation (gate at 40% for headroom; observed ~50%+, leaving the
    // hedged mean within a few percent of the straggler-free one).
    if (recovered < 0.4) {
        std::cerr << "FAIL: hedging recovered only " << 100.0 * recovered
                  << "% of the straggler inflation\n";
        ok = false;
    }

    json << "\n  ],\n  \"straggler_n4\": {"
         << "\"clean_ms\": " << clean.mean_ms
         << ", \"unhedged_ms\": " << unhedged.mean_ms
         << ", \"hedged_ms\": " << hedged.mean_ms
         << ", \"hedges\": " << hedged.counters.hedges
         << ", \"hedge_wins\": " << hedged.counters.hedge_wins
         << ", \"recovered_fraction\": " << recovered << "},\n"
         << "  \"epochs\": " << epochs
         << ",\n  \"accesses_per_epoch\": " << accesses
         << ",\n  \"dataset_samples\": " << dataset.size()
         << ",\n  \"items_per_node\": " << per_node_items << ",\n"
         << spider::bench::provenance_json() << "\n}\n";
    if (!out_path.empty()) {
        std::ofstream out{out_path};
        out << json.str();
        std::cout << "wrote " << out_path << "\n";
    }

    if (!ok) return 1;
    return 0;
}
