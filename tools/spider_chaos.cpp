// spider_chaos: virtual-time chaos/soak harness (DESIGN.md §12.3).
//
// Drives the concurrency-facing components — TwoLayerSemanticCache (+ WAL
// listeners), SsdTier, CooperativeCache, and a weather-enabled FaultModel —
// through hours of *virtual* time in seconds of wall time, continuously
// checking the PR-5 freeze-oracle invariants:
//
//   (a) every neighbor-index entry names a resident homophily key
//   (b) no id is resident in both sections
//   (c) per-shard section sizes respect their capacity slices
//   (d) the seqlock residency view matches the locked sections exactly
//
// Each virtual-minute tick runs a multithreaded op burst against the
// cache and SSD tier, quiesces, freezes, and checks. Between ticks the
// harness injects chaos events: elastic repartition flips, kill -9 +
// warm restart through the WAL (with a different shard count, asserting
// >= 50% residency recovery), cluster join/leave churn, and weather-chain
// determinism probes against an independently constructed twin model.
//
//   ./spider_chaos --smoke             # fixed seed, ~4.2 virtual hours,
//                                      # bounded wall time (the ctest tier)
//   ./spider_chaos --hours 24 --seed 7 # overnight soak
//
// Exit status 0 = survived with zero invariant violations; 1 = any
// violation or failed recovery assertion (details on stderr).

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cache/semantic_cache.hpp"
#include "cluster/cooperative_cache.hpp"
#include "data/dataset.hpp"
#include "data/presets.hpp"
#include "storage/fault_model.hpp"
#include "storage/remote_store.hpp"
#include "storage/resilient_store.hpp"
#include "storage/ssd_tier.hpp"
#include "storage/wal.hpp"
#include "util/rng.hpp"

namespace {

using namespace spider;

struct Options {
    double hours = 4.2;
    std::uint64_t seed = 1;
    std::size_t threads = 4;
    std::size_t ops_per_thread = 1500;  // per tick
    std::string wal_dir = "spider_chaos_wal";
    bool smoke = false;
};

/// Ports the four freeze-oracle invariant checks of
/// tests/cache_concurrency_test.cpp into violation strings (empty = sound).
std::vector<std::string> check_invariants(
    const cache::TwoLayerSemanticCache::FrozenState& frozen) {
    std::vector<std::string> violations;
    std::unordered_set<std::uint32_t> importance_ids;
    std::unordered_set<std::uint32_t> hom_keys;
    for (const auto& shard : frozen.shards) {
        for (const auto& [id, score] : shard.importance) {
            importance_ids.insert(id);
        }
        for (const std::uint32_t key : shard.homophily_keys) {
            hom_keys.insert(key);
        }
    }
    for (std::size_t s = 0; s < frozen.shards.size(); ++s) {
        const auto& shard = frozen.shards[s];
        // (c) capacity slices.
        if (shard.importance.size() > shard.importance_capacity) {
            violations.push_back("(c) shard " + std::to_string(s) +
                                 " importance over capacity");
        }
        if (shard.homophily_keys.size() > shard.homophily_capacity) {
            violations.push_back("(c) shard " + std::to_string(s) +
                                 " homophily over capacity");
        }
        // (b) section exclusivity.
        for (const std::uint32_t key : shard.homophily_keys) {
            if (importance_ids.contains(key)) {
                violations.push_back("(b) id " + std::to_string(key) +
                                     " resident in both sections");
            }
        }
        // (a) neighbor-index soundness.
        for (const auto& [neighbor, keys] : shard.neighbor_index) {
            for (const std::uint32_t key : keys) {
                if (!hom_keys.contains(key)) {
                    violations.push_back(
                        "(a) neighbor " + std::to_string(neighbor) +
                        " names non-resident surrogate " +
                        std::to_string(key));
                }
            }
        }
        // (d) view <-> section parity.
        std::size_t imp_flags = 0;
        std::size_t hom_flags = 0;
        std::size_t sur_flags = 0;
        for (const auto& [id, probe] : shard.view) {
            using View = cache::ShardResidencyView;
            if (probe.flags & View::kImportance) {
                ++imp_flags;
                if (!importance_ids.contains(id)) {
                    violations.push_back(
                        "(d) view lists non-resident importance id " +
                        std::to_string(id));
                }
            }
            if (probe.flags & View::kHomKey) {
                ++hom_flags;
                if (!hom_keys.contains(id)) {
                    violations.push_back(
                        "(d) view lists non-resident hom key " +
                        std::to_string(id));
                }
            }
            if (probe.flags & View::kSurrogate) {
                ++sur_flags;
                if (!hom_keys.contains(probe.surrogate)) {
                    violations.push_back(
                        "(d) view surrogate for " + std::to_string(id) +
                        " names non-resident key " +
                        std::to_string(probe.surrogate));
                }
            }
        }
        if (imp_flags != shard.importance.size()) {
            violations.push_back("(d) shard " + std::to_string(s) +
                                 " view/importance count mismatch");
        }
        if (hom_flags != shard.homophily_keys.size()) {
            violations.push_back("(d) shard " + std::to_string(s) +
                                 " view/homophily count mismatch");
        }
        std::size_t index_entries = 0;
        for (const auto& [neighbor, keys] : shard.neighbor_index) {
            if (!keys.empty()) ++index_entries;
        }
        if (sur_flags != index_entries) {
            violations.push_back("(d) shard " + std::to_string(s) +
                                 " view/surrogate count mismatch");
        }
    }
    return violations;
}

Options parse_args(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--hours" && i + 1 < argc) {
            opt.hours = std::stod(argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            opt.seed = std::stoull(argv[++i]);
        } else if (arg == "--threads" && i + 1 < argc) {
            opt.threads = std::stoul(argv[++i]);
        } else if (arg == "--ops" && i + 1 < argc) {
            opt.ops_per_thread = std::stoul(argv[++i]);
        } else if (arg == "--wal-dir" && i + 1 < argc) {
            opt.wal_dir = argv[++i];
        } else if (arg == "--smoke") {
            // The ctest tier: fixed seed, >= 4 virtual hours, a lighter
            // op burst so the whole soak stays within seconds of wall
            // time on CI machines.
            opt.smoke = true;
            opt.hours = 4.2;
            opt.seed = 1;
            opt.ops_per_thread = 600;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: spider_chaos [--hours H] [--seed N] "
                         "[--threads N] [--ops N] [--wal-dir D] [--smoke]\n";
            std::exit(0);
        } else {
            std::cerr << "spider_chaos: unknown argument '" << arg << "'\n";
            std::exit(2);
        }
    }
    return opt;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse_args(argc, argv);

    constexpr double kTickMinutes = 1.0;  // one tick = one virtual minute
    const auto ticks = static_cast<std::size_t>(opt.hours * 60.0 /
                                                kTickMinutes);
    constexpr std::size_t kCacheCapacity = 384;
    constexpr std::uint32_t kIdSpace = 4096;
    constexpr std::size_t kSsdCapacity = 512;
    const std::size_t shard_choices[] = {1, 2, 4, 8};

    // Fresh WAL directory per run — a chaos soak must not warm-restart
    // from a previous process's residue.
    std::filesystem::remove_all(opt.wal_dir);
    storage::CacheWal wal{storage::WalConfig{
        .enabled = true, .dir = opt.wal_dir, .sync_every_append = false}};

    util::Rng rng{opt.seed ^ 0xC4A05ULL};
    auto cache = std::make_unique<cache::TwoLayerSemanticCache>(
        kCacheCapacity, 0.6, /*shards=*/4, /*lockfree_reads=*/true);
    auto ssd = std::make_unique<storage::SsdTier>(storage::SsdTierConfig{
        .enabled = true, .capacity_items = kSsdCapacity});
    const auto attach = [&wal, &cache, &ssd] {
        const cache::ResidencyListener listener =
            [&wal](const cache::ResidencyRecord& rec) { wal.append(rec); };
        cache->set_residency_listener(listener);
        ssd->set_residency_listener(listener);
    };
    attach();

    // Weather-enabled fault model + an independently constructed twin:
    // the chain must be a pure function of (seed, slot), so the two must
    // agree forever regardless of query order.
    storage::FaultModelConfig weather_cfg;
    weather_cfg.enabled = true;
    weather_cfg.seed = opt.seed ^ 0x5707'11ULL;
    weather_cfg.transient_failure_prob = 0.02;
    weather_cfg.latency_spike_prob = 0.05;
    weather_cfg.weather.enabled = true;
    weather_cfg.weather.slot_ms = 500.0;
    weather_cfg.weather.p_degrade = 0.05;
    weather_cfg.weather.p_recover = 0.20;
    weather_cfg.weather.p_fail = 0.10;
    weather_cfg.weather.p_restore = 0.30;
    const storage::FaultModel weather{weather_cfg, storage::from_ms(4.5)};
    const storage::FaultModel weather_twin{weather_cfg,
                                           storage::from_ms(4.5)};

    // Small cooperative cluster for membership churn.
    const data::SyntheticDataset dataset{data::cifar10_like(0.02, opt.seed)};
    storage::RemoteStore remote{dataset, storage::RemoteStoreConfig{}};
    cluster::ClusterConfig ccfg;
    ccfg.nodes = 3;
    ccfg.node_cache_items = 128;
    ccfg.seed = opt.seed;
    storage::ResilientStore client{remote, {}, {}};
    cluster::CooperativeCache cluster{dataset, client, ccfg};

    std::uint64_t total_ops = 0;
    std::uint64_t kills = 0;
    std::uint64_t restored_total = 0;
    std::uint64_t elastic_flips = 0;
    std::uint64_t churn_events = 0;
    std::uint64_t weather_probes = 0;
    std::uint64_t slots_degraded = 0;
    std::uint64_t slots_outage = 0;
    std::uint64_t freeze_checks = 0;

    for (std::size_t tick = 0; tick < ticks; ++tick) {
        const storage::SimDuration now =
            storage::from_ms(static_cast<double>(tick) * kTickMinutes *
                             60.0 * 1000.0);

        // ---- Multithreaded op burst (cache + SSD), then quiesce.
        std::vector<std::thread> workers;
        workers.reserve(opt.threads);
        for (std::size_t t = 0; t < opt.threads; ++t) {
            workers.emplace_back([&, t, tick] {
                util::Rng wrng{opt.seed + tick * 131ULL + t};
                for (std::size_t op = 0; op < opt.ops_per_thread; ++op) {
                    const auto id = static_cast<std::uint32_t>(
                        wrng.uniform_index(kIdSpace));
                    const double roll = wrng.uniform();
                    if (roll < 0.55) {
                        (void)cache->lookup(id);
                        (void)cache->probe(id);
                    } else if (roll < 0.75) {
                        cache->on_miss_fetched(id, wrng.uniform());
                    } else if (roll < 0.85) {
                        const std::uint32_t nb[] = {id + 1, id + 7, id + 21};
                        cache->update_homophily(id, nb);
                    } else if (roll < 0.92) {
                        cache->update_importance_score(id, wrng.uniform());
                    } else if (roll < 0.97) {
                        if (!ssd->fetch(id)) ssd->insert(id);
                    } else {
                        (void)cache->find_resident_if(
                            id, [](std::uint32_t) { return true; });
                    }
                }
            });
        }
        for (auto& w : workers) w.join();
        total_ops += opt.threads * opt.ops_per_thread;

        // ---- Freeze-oracle invariant check at the quiesced point.
        const auto frozen = cache->freeze();
        const std::vector<std::string> violations = check_invariants(frozen);
        ++freeze_checks;
        if (!violations.empty()) {
            std::cerr << "spider_chaos: tick " << tick << " ("
                      << storage::to_ms(now) << " virtual ms): "
                      << violations.size() << " invariant violation(s)\n";
            for (const auto& v : violations) std::cerr << "  " << v << '\n';
            return 1;
        }

        // ---- Weather bookkeeping + twin determinism probe.
        const storage::WeatherState state = weather.weather_state(now);
        if (state == storage::WeatherState::kDegraded) ++slots_degraded;
        if (state == storage::WeatherState::kOutage) ++slots_outage;
        if (tick % 16 == 0) {
            for (int probe = 0; probe < 32; ++probe) {
                const auto slot = rng.uniform_index(ticks * 120ULL);
                if (weather.weather_state_at_slot(slot) !=
                    weather_twin.weather_state_at_slot(slot)) {
                    std::cerr << "spider_chaos: weather chain diverged at "
                                 "slot " << slot << '\n';
                    return 1;
                }
                const auto id = static_cast<std::uint32_t>(
                    rng.uniform_index(kIdSpace));
                const auto a = weather.evaluate(id, 0, now);
                const auto b = weather_twin.evaluate(id, 0, now);
                if (a.kind != b.kind || a.latency != b.latency) {
                    std::cerr << "spider_chaos: fault draw diverged for id "
                              << id << " at tick " << tick << '\n';
                    return 1;
                }
                ++weather_probes;
            }
        }

        // ---- Cluster traffic + occasional membership churn.
        const auto active = cluster.active_nodes();
        for (int i = 0; i < 48; ++i) {
            const std::uint32_t node = active[rng.uniform_index(
                active.size())];
            const auto id = static_cast<std::uint32_t>(
                rng.uniform_index(dataset.size()));
            (void)cluster.service(node, id, now);
        }
        cluster.on_batch_end(now);
        if (rng.uniform() < 0.10) {
            if (cluster.num_nodes() <= 2 ||
                (cluster.num_nodes() < 6 && rng.uniform() < 0.5)) {
                (void)cluster.add_node();
            } else {
                cluster.remove_node(cluster.active_nodes().back());
            }
            ++churn_events;
        }

        // ---- Elastic repartition flip.
        if (rng.uniform() < 0.25) {
            cache->set_imp_ratio(0.05 + 0.90 * rng.uniform());
            ++elastic_flips;
        }

        // ---- Kill -9 + warm restart through the WAL, with a different
        // shard count. Everything appended since the last flush point is
        // lost (drop_unflushed), exactly like a real unclean death.
        if (rng.uniform() < 0.06) {
            const std::size_t pre = cache->importance_size() +
                                    cache->homophily_size() +
                                    ssd->resident_items();
            wal.drop_unflushed();
            const std::size_t shards =
                shard_choices[rng.uniform_index(4)];
            cache = std::make_unique<cache::TwoLayerSemanticCache>(
                kCacheCapacity, 0.6, shards, /*lockfree_reads=*/true);
            ssd = std::make_unique<storage::SsdTier>(
                storage::SsdTierConfig{.enabled = true,
                                       .capacity_items = kSsdCapacity});
            const cache::RestoreImage image = wal.load();
            std::size_t restored = cache->restore_from_wal(image);
            restored += ssd->restore(image.ssd);
            attach();
            ++kills;
            restored_total += restored;
            if (pre > 0 && restored * 2 < pre) {
                std::cerr << "spider_chaos: warm restart at tick " << tick
                          << " recovered only " << restored << "/" << pre
                          << " resident items (< 50%)\n";
                return 1;
            }
            // The restored state must itself satisfy the invariants.
            const auto post = check_invariants(cache->freeze());
            if (!post.empty()) {
                std::cerr << "spider_chaos: restored cache violates "
                          << post.size() << " invariant(s) at tick "
                          << tick << '\n';
                for (const auto& v : post) std::cerr << "  " << v << '\n';
                return 1;
            }
        }

        // ---- Stable point: flush the tail every tick, compact the WAL
        // into a snapshot every 8th (also reconciling the un-streamed
        // elastic-repartition evictions and SSD recency drift).
        if ((tick + 1) % 8 == 0) {
            cache::RestoreImage image = cache->dump_residency();
            image.ssd = ssd->dump_residency();
            wal.compact(image);
        } else {
            wal.flush();
        }
    }

    std::filesystem::remove_all(opt.wal_dir);
    std::cout << "spider_chaos: survived " << opt.hours
              << " virtual hours (" << ticks << " ticks, " << total_ops
              << " cache ops)\n"
              << "  freeze checks     " << freeze_checks
              << " (0 violations)\n"
              << "  kills / restarts  " << kills << " (" << restored_total
              << " items recovered, >= 50% each)\n"
              << "  elastic flips     " << elastic_flips << "\n"
              << "  cluster churn     " << churn_events << " (final "
              << cluster.num_nodes() << " nodes)\n"
              << "  weather           " << slots_degraded
              << " degraded / " << slots_outage << " outage ticks, "
              << weather_probes << " twin probes consistent\n"
              << "  wal               " << wal.appended_records()
              << " records appended, " << wal.dropped_records()
              << " dropped at last load\n";
    return 0;
}
