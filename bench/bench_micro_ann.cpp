// Microbenchmarks (google-benchmark) for the ANN substrate: HNSW insert,
// search and in-place update across index sizes and embedding dimensions,
// a drifting upsert-then-knn batch shaped like the importance-sampling
// stage, brute-force comparison, PQ train/encode/ADC.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <vector>

#include "ann/bruteforce.hpp"
#include "ann/hnsw.hpp"
#include "ann/pq.hpp"
#include "util/rng.hpp"

namespace {

using namespace spider;

std::vector<float> random_point(util::Rng& rng, std::size_t dim) {
    std::vector<float> p(dim);
    for (float& x : p) {
        x = static_cast<float>(rng.normal(static_cast<double>(rng.uniform_index(8)), 1.0));
    }
    return p;
}

ann::HnswIndex build_index(std::size_t n, std::size_t dim) {
    ann::HnswConfig config;
    config.dim = dim;
    ann::HnswIndex index{config};
    util::Rng rng{n * 31 + dim};
    for (std::uint32_t i = 0; i < n; ++i) {
        index.upsert(i, random_point(rng, dim));
    }
    return index;
}

void BM_HnswInsert(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    ann::HnswConfig config;
    config.dim = dim;
    ann::HnswIndex index{config};
    util::Rng rng{7};
    std::uint32_t next_id = 0;
    for (auto _ : state) {
        index.upsert(next_id++, random_point(rng, dim));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HnswInsert)->Arg(32)->Arg(64)->Arg(128);

void BM_HnswSearch(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const std::size_t dim = 32;
    const ann::HnswIndex index = build_index(n, dim);
    util::Rng rng{11};
    const std::vector<float> query = random_point(rng, dim);
    for (auto _ : state) {
        benchmark::DoNotOptimize(index.knn(query, 10));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HnswSearch)->Arg(1000)->Arg(5000)->Arg(20000);

void BM_HnswUpdate(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const std::size_t dim = 32;
    ann::HnswIndex index = build_index(n, dim);
    util::Rng rng{13};
    std::uint32_t id = 0;
    for (auto _ : state) {
        index.upsert(id, random_point(rng, dim));
        id = (id + 1) % static_cast<std::uint32_t>(n);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HnswUpdate)->Arg(1000)->Arg(5000);

// The importance-sampling stage of train_spider in miniature: `nodes`
// clustered unit vectors at `dim`, then per iteration one batch of 128
// drifting in-place upserts followed by knn(self, 32, 48) for each of
// them. A fixed 100 batches keeps the distance counts reproducible.
// Arguments (nodes, dim): 1470 x 32 is the index a 2000-sample
// train_spider run holds after its first epoch (100 batches are about 8.7
// drift passes); 20k and 200k nodes move the vectors and links out of L2
// toward the paper's ImageNet scale. 1M nodes is not registered, since
// its build alone takes minutes; add ->Args({1000000, 32}) below to run it
// by hand. Counters: wall time per sample (one upsert plus one knn),
// split into its upsert and knn halves, distance computations per upsert
// and per knn, and the index size in MiB.
void BM_HnswDriftBatch(benchmark::State& state) {
    const auto population = static_cast<std::uint32_t>(state.range(0));
    const auto dim = static_cast<std::size_t>(state.range(1));
    constexpr std::uint32_t kBatch = 128;
    const auto normalize = [](std::vector<float>& p) {
        double norm_sq = 0.0;
        for (float x : p) norm_sq += static_cast<double>(x) * x;
        const auto inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
        for (float& x : p) x *= inv;
    };
    util::Rng rng{29};
    std::vector<std::vector<float>> centers;
    for (int c = 0; c < 8; ++c) {
        std::vector<float> center(dim);
        for (float& x : center) x = static_cast<float>(rng.normal());
        centers.push_back(std::move(center));
    }
    ann::HnswConfig config;
    config.dim = dim;
    ann::HnswIndex index{config};
    std::vector<std::vector<float>> points;
    points.reserve(population);
    for (std::uint32_t i = 0; i < population; ++i) {
        std::vector<float> p = centers[i % centers.size()];
        for (float& x : p) x += static_cast<float>(rng.normal());
        normalize(p);
        points.push_back(std::move(p));
        index.upsert(i, points.back());
    }

    std::uint32_t next = 0;
    std::uint64_t upsert_comps = 0;
    std::uint64_t knn_comps = 0;
    std::vector<std::uint32_t> batch(kBatch);
    using Clock = std::chrono::steady_clock;
    Clock::duration upsert_time{};
    Clock::duration knn_time{};
    for (auto _ : state) {
        const auto began = Clock::now();
        const std::uint64_t start = index.distance_computations();
        for (std::uint32_t& label : batch) {
            label = next;
            next = (next + 1) % population;
            for (float& x : points[label]) {
                x += static_cast<float>(rng.normal(0.0, 0.05));
            }
            normalize(points[label]);
            index.upsert(label, points[label]);
        }
        const std::uint64_t upserted = index.distance_computations();
        const auto searched = Clock::now();
        for (std::uint32_t label : batch) {
            benchmark::DoNotOptimize(index.knn(points[label], 32, 48));
        }
        upsert_time += searched - began;
        knn_time += Clock::now() - searched;
        upsert_comps += upserted - start;
        knn_comps += index.distance_computations() - upserted;
    }
    const auto micros = [](Clock::duration d) {
        return std::chrono::duration<double, std::micro>{d}.count();
    };
    const auto ops = static_cast<double>(state.iterations() * kBatch);
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.counters["us_per_sample"] = micros(upsert_time + knn_time) / ops;
    state.counters["upsert_us"] = micros(upsert_time) / ops;
    state.counters["knn_us"] = micros(knn_time) / ops;
    state.counters["upsert_comps"] = static_cast<double>(upsert_comps) / ops;
    state.counters["knn_comps"] = static_cast<double>(knn_comps) / ops;
    state.counters["index_mib"] =
        static_cast<double>(index.memory_bytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_HnswDriftBatch)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(100)
    ->Args({1470, 32})
    ->Args({20000, 32})
    ->Args({20000, 128})
    ->Args({200000, 32});

// Threaded axis: the scoring phase issues knn from many threads against a
// fixed graph (hnsw.hpp phase contract). gbench's --benchmark_filter can
// pin one thread count; the registered range sweeps 1..8.
void BM_HnswSearchConcurrent(benchmark::State& state) {
    static const ann::HnswIndex index = build_index(5000, 32);
    util::Rng rng{100 + static_cast<std::uint64_t>(state.thread_index())};
    const std::vector<float> query = random_point(rng, 32);
    for (auto _ : state) {
        benchmark::DoNotOptimize(index.knn(query, 10));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HnswSearchConcurrent)->ThreadRange(1, 8)->UseRealTime();

void BM_BruteForceSearch(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const std::size_t dim = 32;
    ann::BruteForceIndex index{dim};
    util::Rng rng{17};
    for (std::uint32_t i = 0; i < n; ++i) {
        index.upsert(i, random_point(rng, dim));
    }
    const std::vector<float> query = random_point(rng, dim);
    for (auto _ : state) {
        benchmark::DoNotOptimize(index.knn(query, 10));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BruteForceSearch)->Arg(1000)->Arg(5000)->Arg(20000);

void BM_PqEncode(benchmark::State& state) {
    const std::size_t dim = 64;
    ann::PqConfig config;
    config.dim = dim;
    config.num_subspaces = 16;
    ann::ProductQuantizer pq{config};
    util::Rng rng{19};
    const std::size_t n = 2000;
    std::vector<float> data(n * dim);
    for (float& x : data) x = static_cast<float>(rng.normal());
    pq.train(data, n);
    const std::span<const float> vec{data.data(), dim};
    for (auto _ : state) {
        benchmark::DoNotOptimize(pq.encode(vec));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PqEncode);

void BM_PqAdcDistanceWithTable(benchmark::State& state) {
    const std::size_t dim = 64;
    ann::PqConfig config;
    config.dim = dim;
    config.num_subspaces = 16;
    ann::ProductQuantizer pq{config};
    util::Rng rng{23};
    const std::size_t n = 2000;
    std::vector<float> data(n * dim);
    for (float& x : data) x = static_cast<float>(rng.normal());
    pq.train(data, n);
    const std::span<const float> query{data.data(), dim};
    const auto code = pq.encode(std::span<const float>{data.data() + dim, dim});
    const auto table = pq.build_distance_table(query);
    for (auto _ : state) {
        benchmark::DoNotOptimize(pq.table_distance(table, code));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PqAdcDistanceWithTable);

}  // namespace

BENCHMARK_MAIN();
