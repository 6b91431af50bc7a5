// Loopback throughput/latency bench for the cache service: N concurrent
// clients drive pipelined GETs at depths 1/8/64 against an in-process
// SpiderServer, measuring ops/s, per-op p50/p99 latency, and the
// server-side batching amplification (frames serviced per drain pass).
// The headline this pins: pipelining + batching buys >= 2x ops/s over
// depth-1 at >= 8 clients — the syscall/wakeup cost dominates depth-1,
// and the gathered batch path amortizes it.
//
// Prints a table and writes BENCH_net.json so the baseline is diffable
// across PRs. `--smoke` runs a two-cell subset with a hard assertion
// (exits non-zero when pipelining does not beat depth-1), wired into
// ctest as BenchSmoke.Netbench.
//
// Usage: bench_netbench [--smoke] [--out BENCH_net.json]
//                       [--seconds S] [--clients list] [--depths list]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using spider::server::Client;
using spider::server::ServerConfig;
using spider::server::SpiderServer;
using spider::server::StatsReply;

constexpr std::uint32_t kIdSpace = 4096;  // == cache_items: hot after warmup

struct CellResult {
    std::size_t clients = 0;
    std::size_t depth = 0;
    double ops_per_s = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    /// Server-side frames serviced per drain pass over the cell.
    double amplification = 0.0;
};

double percentile(std::vector<double>& samples, double q) {
    if (samples.empty()) return 0.0;
    const auto at = static_cast<std::ptrdiff_t>(
        q * static_cast<double>(samples.size() - 1));
    std::nth_element(samples.begin(), samples.begin() + at, samples.end());
    return samples[static_cast<std::size_t>(at)];
}

/// One cell: `clients` threads, each flushing `depth`-deep GET pipelines
/// for `seconds` of wall time. Per-op latency is batch RTT / depth.
CellResult run_cell(SpiderServer& server, std::size_t clients,
                    std::size_t depth, double seconds) {
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> total_ops{0};
    std::vector<std::vector<double>> latencies(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);

    const StatsReply before = server.stats();
    for (std::size_t t = 0; t < clients; ++t) {
        threads.emplace_back([&, t] {
            Client client;
            client.connect("127.0.0.1", server.port());
            std::mt19937 rng{static_cast<std::uint32_t>(t + 1)};
            std::uniform_int_distribution<std::uint32_t> pick{0,
                                                              kIdSpace - 1};
            auto& lat = latencies[t];
            std::uint64_t ops = 0;
            while (!go.load(std::memory_order_acquire)) {
                std::this_thread::yield();
            }
            while (!stop.load(std::memory_order_acquire)) {
                for (std::size_t d = 0; d < depth; ++d) {
                    client.queue_get(0, pick(rng), 1.0);
                }
                const auto start = Clock::now();
                const auto replies = client.flush();
                const double rtt_us =
                    std::chrono::duration<double, std::micro>(Clock::now() -
                                                              start)
                        .count();
                lat.push_back(rtt_us / static_cast<double>(depth));
                ops += replies.size();
            }
            total_ops.fetch_add(ops, std::memory_order_relaxed);
        });
    }

    const auto start = Clock::now();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_release);
    for (auto& thread : threads) thread.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    const StatsReply after = server.stats();

    std::vector<double> merged;
    for (auto& lat : latencies) {
        merged.insert(merged.end(), lat.begin(), lat.end());
    }

    CellResult r;
    r.clients = clients;
    r.depth = depth;
    r.ops_per_s = static_cast<double>(total_ops.load()) / elapsed;
    r.p50_us = percentile(merged, 0.50);
    r.p99_us = percentile(merged, 0.99);
    const double frames =
        static_cast<double>(after.frames - before.frames);
    const double batches =
        static_cast<double>(after.batches - before.batches);
    r.amplification = batches > 0.0 ? frames / batches : 0.0;
    return r;
}

std::vector<std::size_t> parse_list(const std::string& text) {
    std::vector<std::size_t> out;
    std::stringstream ss{text};
    std::string item;
    while (std::getline(ss, item, ',')) {
        out.push_back(static_cast<std::size_t>(std::stoul(item)));
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string out_path;
    bool out_set = false;
    double seconds = 1.0;
    std::vector<std::size_t> clients{1, 8, 64, 256};
    std::vector<std::size_t> depths{1, 8, 64};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
            out_set = true;
        } else if (arg == "--seconds" && i + 1 < argc) {
            seconds = std::stod(argv[++i]);
        } else if (arg == "--clients" && i + 1 < argc) {
            clients = parse_list(argv[++i]);
        } else if (arg == "--depths" && i + 1 < argc) {
            depths = parse_list(argv[++i]);
        } else {
            std::cerr << "usage: bench_netbench [--smoke] [--out F]"
                         " [--seconds S] [--clients a,b,..]"
                         " [--depths a,b,..]\n";
            return 2;
        }
    }
    if (smoke) {
        // CI subset: one client count, the depth-1 baseline and one
        // pipelined depth. No JSON unless explicitly requested.
        clients = {8};
        depths = {1, 8};
        seconds = std::min(seconds, 0.4);
    } else if (!out_set) {
        out_path = "BENCH_net.json";
    }

    ServerConfig config;
    config.port = 0;  // ephemeral: the bench never collides with a real one
    config.cache_items = kIdSpace;
    SpiderServer server{config};
    server.start();

    // Warm the cache so the measured path is the seqlock importance hit —
    // the serving hot path, not the admission ramp.
    {
        Client warm;
        warm.connect("127.0.0.1", server.port());
        std::vector<std::uint32_t> ids(256);
        std::vector<double> scores(256, 1.0);
        for (std::uint32_t base = 0; base < kIdSpace; base += 256) {
            for (std::uint32_t i = 0; i < 256; ++i) ids[i] = base + i;
            (void)warm.mget(0, ids, scores);
        }
    }

    std::cout << "### bench_netbench — pipelined loopback clients vs the "
                 "cache service\n"
              << "### hardware threads: "
              << std::thread::hardware_concurrency()
              << ", cache items: " << kIdSpace << ", seconds/cell: "
              << seconds << "\n\n";

    spider::util::Table table{"pipelined GETs over loopback"};
    table.set_header({"clients", "depth", "Kops/s", "p50 us", "p99 us",
                      "amplification", "vs depth-1"});

    std::ostringstream json;
    json << "{\n  \"rows\": [\n";
    bool first = true;
    bool smoke_ok = true;
    for (const std::size_t n : clients) {
        double depth1_ops = 0.0;
        for (const std::size_t depth : depths) {
            const CellResult r = run_cell(server, n, depth, seconds);
            if (depth == 1) depth1_ops = r.ops_per_s;
            const double speedup =
                depth1_ops > 0.0 ? r.ops_per_s / depth1_ops : 0.0;
            table.add_row({std::to_string(n), std::to_string(depth),
                           spider::util::Table::fmt(r.ops_per_s / 1e3, 1),
                           spider::util::Table::fmt(r.p50_us, 1),
                           spider::util::Table::fmt(r.p99_us, 1),
                           spider::util::Table::fmt(r.amplification, 2),
                           spider::util::Table::fmt(speedup, 2)});
            if (!first) json << ",\n";
            first = false;
            json << "    {\"clients\": " << n << ", \"depth\": " << depth
                 << ", \"ops_per_s\": " << r.ops_per_s
                 << ", \"p50_us\": " << r.p50_us
                 << ", \"p99_us\": " << r.p99_us
                 << ", \"amplification\": " << r.amplification
                 << ", \"speedup_vs_depth1\": " << speedup << "}";
            // The headline: at >= 8 clients, pipelining+batching must buy
            // >= 2x over depth-1 (the smoke gate uses 1.5x headroom for
            // noisy CI boxes).
            if (smoke && n >= 8 && depth >= 8 && speedup < 1.5) {
                smoke_ok = false;
            }
        }
    }
    table.print(std::cout);

    const StatsReply stats = server.stats();
    std::cout << "served " << stats.frames << " frames in " << stats.batches
              << " batches; max batch " << stats.max_batch
              << "; bytes in/out " << stats.bytes_in << "/"
              << stats.bytes_out << "\n";
    server.stop();

    json << "\n  ],\n  \"seconds_per_cell\": " << seconds
         << ",\n  \"cache_items\": " << kIdSpace << ",\n"
         << spider::bench::provenance_json() << "\n}\n";
    if (!out_path.empty()) {
        std::ofstream out{out_path};
        out << json.str();
        std::cout << "wrote " << out_path << "\n";
    }

    if (smoke && !smoke_ok) {
        std::cerr << "SMOKE FAIL: pipelined depth did not reach 1.5x the "
                     "depth-1 ops/s at 8 clients\n";
        return 1;
    }
    return 0;
}
