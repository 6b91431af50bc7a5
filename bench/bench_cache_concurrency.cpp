// Concurrency bench for the sharded TwoLayerSemanticCache (ISSUE 2) and
// its seqlock read path (ISSUE 5): a mixed trainer-worker workload
// (~90% lookup, ~8% miss admission, ~2% homophily update) hammered by
// 1/2/4/8 threads against
//
//   - "seqlock":     8 shards, lock-free reads through the residency view,
//   - "locked":      8 shards, every read takes the shard mutex, and
//   - "global-lock": shards=1, mutex reads (the pre-sharding behavior)
//                    as the contention baseline,
//
// reporting aggregate ops/s, the quiescent hit ratio, and the p99 lookup
// latency sampled on thread 0. Prints a human-readable table and writes
// BENCH_cache.json so the baseline is diffable across PRs.
//
// Note: on single-core hosts (CI containers) thread counts above 1 cannot
// exceed 1x on real parallelism; the sharded-vs-global comparison at each
// thread count is the meaningful signal there, since it isolates lock
// contention from core count.
//
// Usage: bench_cache_concurrency [--out BENCH_cache.json]
//                                [--ops N] [--shards S]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cache/semantic_cache.hpp"
#include "core/prefetch.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace spider;
using Clock = std::chrono::steady_clock;

struct WorkloadResult {
    double ops_per_s = 0.0;
    double hit_ratio = 0.0;
    double p99_lookup_ns = 0.0;
};

/// Runs `threads` workers for `ops_per_thread` mixed ops against a fresh
/// cache with the given shard count. Thread 0 timestamps each lookup for
/// the p99; the others run untimed to keep the probe overhead off the
/// aggregate throughput number.
WorkloadResult run_workload(std::size_t threads, std::size_t shards,
                            bool lockfree_reads, std::size_t ops_per_thread,
                            std::uint32_t id_space) {
    cache::TwoLayerSemanticCache cache{4096, 0.7, shards, lockfree_reads};
    // Warm: fill to capacity so steady-state admissions contend for real.
    {
        util::Rng warm{99};
        for (std::uint32_t i = 0; i < 3 * 4096; ++i) {
            cache.on_miss_fetched(static_cast<std::uint32_t>(
                                      warm.uniform_index(id_space)),
                                  warm.uniform());
        }
    }

    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> lookups{0};
    std::vector<double> lookup_ns;  // thread 0 only
    lookup_ns.reserve(ops_per_thread);

    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            util::Rng rng{0xCAFEULL + t};
            std::uint64_t local_hits = 0;
            std::uint64_t local_lookups = 0;
            while (!go.load(std::memory_order_acquire)) {
                std::this_thread::yield();
            }
            for (std::size_t op = 0; op < ops_per_thread; ++op) {
                const auto id = static_cast<std::uint32_t>(
                    rng.uniform_index(id_space));
                const double roll = rng.uniform();
                if (roll < 0.90) {
                    ++local_lookups;
                    // Sample 1/16 of thread 0's lookups: enough for a
                    // stable p99, cheap enough that the timing probe does
                    // not distort the 1-thread throughput baseline.
                    if (t == 0 && (op & 0xF) == 0) {
                        const auto start = Clock::now();
                        const auto result = cache.lookup(id);
                        lookup_ns.push_back(
                            std::chrono::duration<double, std::nano>(
                                Clock::now() - start)
                                .count());
                        local_hits += result.kind != cache::HitKind::kMiss;
                    } else {
                        local_hits +=
                            cache.lookup(id).kind != cache::HitKind::kMiss;
                    }
                } else if (roll < 0.98) {
                    cache.on_miss_fetched(id, rng.uniform());
                } else {
                    const std::uint32_t nb[] = {id + 1, id + 3, id + 7};
                    cache.update_homophily(id, nb);
                }
            }
            hits.fetch_add(local_hits, std::memory_order_relaxed);
            lookups.fetch_add(local_lookups, std::memory_order_relaxed);
        });
    }

    const auto start = Clock::now();
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();

    WorkloadResult result;
    result.ops_per_s =
        static_cast<double>(threads * ops_per_thread) / elapsed;
    result.hit_ratio = lookups.load() == 0
                           ? 0.0
                           : static_cast<double>(hits.load()) /
                                 static_cast<double>(lookups.load());
    if (!lookup_ns.empty()) {
        const auto p99_at = static_cast<std::ptrdiff_t>(
            0.99 * static_cast<double>(lookup_ns.size() - 1));
        std::nth_element(lookup_ns.begin(), lookup_ns.begin() + p99_at,
                         lookup_ns.end());
        result.p99_lookup_ns = lookup_ns[static_cast<std::size_t>(p99_at)];
    }
    return result;
}

/// PrefetchPipeline issue->consume round-trip throughput under a given
/// in-flight window. `resize_each_batch` exercises the adaptive depth
/// controller's call pattern: set_max_in_flight once per batch (cycling
/// the window up and down) while the pipeline is hot — the cost of the
/// runtime resize must be noise against the fetch round-trips.
double run_prefetch_sweep(std::size_t window, std::size_t batches,
                          bool resize_each_batch) {
    constexpr std::size_t kBatch = 64;
    core::PrefetchPipeline::Config pc;
    pc.threads = 2;
    pc.max_in_flight = window;
    core::PrefetchPipeline pipeline{
        [](std::uint32_t) { return false; },
        [](std::uint32_t id) {
            // Stand-in for a remote fetch: touch the id so the callback
            // is not optimized away; real fetch latency is virtual-time.
            volatile std::uint32_t sink = id;
            (void)sink;
        },
        pc};

    const auto start = Clock::now();
    std::uint32_t next_id = 0;
    std::vector<std::uint32_t> ids(kBatch);
    for (std::size_t b = 0; b < batches; ++b) {
        if (resize_each_batch) {
            // Triangle wave over [window/2, 2*window]: the shape the EWMA
            // controller produces when load oscillates.
            const std::size_t lo = std::max<std::size_t>(window / 2, 1);
            const std::size_t hi = 2 * window;
            const std::size_t span = hi - lo + 1;
            pipeline.set_max_in_flight(lo + (b % span));
        }
        for (auto& id : ids) id = next_id++;
        pipeline.prefetch(ids);
        for (const std::uint32_t id : ids) (void)pipeline.consume(id);
    }
    pipeline.drain();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    return static_cast<double>(batches * kBatch) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
    std::string out_path = "BENCH_cache.json";
    std::size_t ops_per_thread = 400000;
    std::size_t shards = 8;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--ops" && i + 1 < argc) {
            ops_per_thread = static_cast<std::size_t>(std::stoul(argv[++i]));
        } else if (arg == "--shards" && i + 1 < argc) {
            shards = static_cast<std::size_t>(std::stoul(argv[++i]));
        } else {
            std::cerr << "usage: bench_cache_concurrency [--out F] [--ops N]"
                         " [--shards S]\n";
            return 2;
        }
    }
    constexpr std::uint32_t kIdSpace = 16384;

    std::cout << "### bench_cache_concurrency — sharded vs global-lock "
                 "TwoLayerSemanticCache\n"
              << "### hardware threads: "
              << std::thread::hardware_concurrency() << ", shards: " << shards
              << ", ops/thread: " << ops_per_thread << "\n\n";

    util::Table table{"mixed cache ops (90% lookup / 8% admit / 2% homophily)"};
    table.set_header({"threads", "layout", "Mops/s", "hit ratio",
                      "p99 lookup ns", "vs 1-thread"});

    struct Layout {
        const char* name;
        bool sharded;
        bool lockfree;
    };
    constexpr Layout kLayouts[] = {
        {"seqlock", true, true},
        {"locked", true, false},
        {"global-lock", false, false},
    };

    std::ostringstream json;
    json << "{\n  \"rows\": [\n";
    bool first = true;
    double bases[3] = {0.0, 0.0, 0.0};
    for (const std::size_t threads : {1UL, 2UL, 4UL, 8UL}) {
        for (std::size_t l = 0; l < 3; ++l) {
            const Layout& layout = kLayouts[l];
            const std::size_t layout_shards = layout.sharded ? shards : 1;
            const WorkloadResult r =
                run_workload(threads, layout_shards, layout.lockfree,
                             ops_per_thread, kIdSpace);
            if (threads == 1) bases[l] = r.ops_per_s;
            const double scaling =
                bases[l] == 0.0 ? 0.0 : r.ops_per_s / bases[l];
            table.add_row({std::to_string(threads), layout.name,
                           util::Table::fmt(r.ops_per_s / 1e6, 2),
                           util::Table::fmt(r.hit_ratio, 3),
                           util::Table::fmt(r.p99_lookup_ns, 0),
                           util::Table::fmt(scaling, 2)});
            if (!first) json << ",\n";
            first = false;
            json << "    {\"threads\": " << threads << ", \"shards\": "
                 << layout_shards
                 << ", \"lockfree\": " << (layout.lockfree ? "true" : "false")
                 << ", \"ops_per_s\": " << r.ops_per_s
                 << ", \"hit_ratio\": " << r.hit_ratio
                 << ", \"p99_lookup_ns\": " << r.p99_lookup_ns
                 << ", \"scaling_vs_1t\": " << scaling << "}";
        }
    }
    table.print(std::cout);

    // Prefetch window sweep (ISSUE 4): issue->consume round-trip
    // throughput across static windows, plus the adaptive controller's
    // resize-per-batch pattern. Printed only — BENCH_cache.json keeps its
    // committed schema.
    const std::size_t sweep_batches = std::max<std::size_t>(
        ops_per_thread / 400, 64);
    util::Table sweep{"PrefetchPipeline issue->consume round-trips"};
    sweep.set_header({"window", "mode", "Kops/s"});
    for (const std::size_t window : {16UL, 64UL, 256UL}) {
        sweep.add_row({std::to_string(window), "static",
                       util::Table::fmt(
                           run_prefetch_sweep(window, sweep_batches, false) /
                               1e3,
                           1)});
    }
    sweep.add_row({"64 (cycling)", "resize/batch",
                   util::Table::fmt(
                       run_prefetch_sweep(64, sweep_batches, true) / 1e3,
                       1)});
    sweep.print(std::cout);

    json << "\n  ],\n  \"ops_per_thread\": " << ops_per_thread << ",\n"
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
